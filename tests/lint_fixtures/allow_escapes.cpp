// fleda-lint-fixture: clean
// Every rule violated once, every violation carrying the per-line
// `// fleda-lint: allow(<rule>)` escape — the linter must report
// nothing. Real code pairs each escape with a justification.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

namespace fixture {

long escaped_clock() {
  auto t = std::chrono::steady_clock::now();  // fleda-lint: allow(raw-clock)
  return t.time_since_epoch().count();
}

int escaped_random() {
  return std::rand();  // fleda-lint: allow(raw-random)
}

void escaped_stdout() {
  std::printf("fixture\n");  // fleda-lint: allow(stdout-io)
}

double escaped_unordered(const std::unordered_map<int, double>& m) {
  std::unordered_map<int, double> copy = m;
  double total = 0.0;
  // Order-independent reduction (sum), so iteration order is harmless.
  for (const auto& kv : copy) {  // fleda-lint: allow(unordered-iter)
    total += kv.second;
  }
  return total;
}

const char* escaped_env() {
  return std::getenv("FIXTURE_LEVEL");  // fleda-lint: allow(env-knob)
}

// target("fma") in a comment is not an attribute; the call below is.
float escaped_fma(float a, float b, float c) {
  return std::fma(a, b, c);  // fleda-lint: allow(fp-contract)
}

struct Handshake {
  std::mutex cv_mutex;  // fleda-lint: allow(mutex-guarded)
};

}  // namespace fixture
