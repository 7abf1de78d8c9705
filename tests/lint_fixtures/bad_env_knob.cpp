// fleda-lint-fixture: expect env-knob
// Known-bad: a library function reading the environment. Each such
// read is a knob that changes a run without touching its config.
#include <cstdlib>
#include <string>

namespace fixture {

bool bad_env_switch() {
  const char* v = std::getenv("FIXTURE_SWITCH");
  return v != nullptr && std::string(v) == "1";
}

}  // namespace fixture
