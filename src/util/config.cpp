#include "util/config.hpp"

#include <cstdlib>

#include "util/logging.hpp"

namespace fleda {

RunScale resolve_scale(const std::string& name) {
  RunScale s;
  if (name == "smoke") {
    s.name = "smoke";
    s.grid = 16;
    s.rounds = 3;
    s.steps_per_round = 4;
    s.finetune_steps = 20;
    s.batch_size = 4;
    s.placement_fraction = 0.03;
    return s;
  }
  if (name == "full") {
    s.name = "full";
    s.grid = 64;
    s.rounds = 30;
    s.steps_per_round = 40;
    s.finetune_steps = 1200;
    s.batch_size = 8;
    s.placement_fraction = 0.4;
    return s;
  }
  if (name != "quick") {
    FLEDA_LOG_WARN("unknown FLEDA_SCALE '%s'; using 'quick'", name.c_str());
  }
  s.placement_fraction = 0.06;  // tuned so local data is genuinely scarce
  s.rounds = 8;
  s.steps_per_round = 10;
  s.finetune_steps = 120;
  return s;  // quick defaults
}

RunScale scale_from_env() {
  // The benches' run size (smoke/quick/full), documented in README.
  const char* env = std::getenv("FLEDA_SCALE");  // fleda-lint: allow(env-knob)
  return resolve_scale(env == nullptr ? "quick" : env);
}

}  // namespace fleda
