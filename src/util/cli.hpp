// Minimal command-line flag parsing for the example binaries.
//
//   CliParser cli(argc, argv);
//   int rounds = cli.get_int("rounds", 10);
//   std::string model = cli.get_string("model", "flnet");
//   if (cli.has("help")) { ... }
//
// Accepted syntaxes: --name=value, --name value, --flag (boolean).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace fleda {

class CliParser {
 public:
  CliParser(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& def = "") const;
  int get_int(const std::string& name, int def = 0) const;
  double get_double(const std::string& name, double def = 0.0) const;
  bool get_bool(const std::string& name, bool def = false) const;

  // Arguments that were not --flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace fleda
