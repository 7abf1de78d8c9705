#include "util/cli.hpp"

#include <cstdlib>

namespace fleda {

CliParser::CliParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" if the next token is not itself a flag, else a
    // boolean "--name".
    if (i + 1 < argc) {
      std::string next = argv[i + 1];
      if (next.size() < 2 || next.substr(0, 2) != "--") {
        flags_[body] = next;
        ++i;
        continue;
      }
    }
    flags_[body] = "true";
  }
}

bool CliParser::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliParser::get_string(const std::string& name,
                                  const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

int CliParser::get_int(const std::string& name, int def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return static_cast<int>(std::strtol(it->second.c_str(), nullptr, 10));
}

double CliParser::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliParser::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace fleda
