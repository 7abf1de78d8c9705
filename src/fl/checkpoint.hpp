// Model checkpointing: binary (de)serialization of ModelParameters so
// trained global/personalized models can be shipped exactly the way
// the paper's developer would deploy them to clients. Format: magic,
// entry count, then per entry name / buffer flag / tensor payload.
#pragma once

#include <iosfwd>
#include <string>

#include "fl/parameters.hpp"

namespace fleda {

void write_checkpoint(std::ostream& out, const ModelParameters& params);
ModelParameters read_checkpoint(std::istream& in);

// File wrappers; throw std::runtime_error on I/O failure or bad bytes
// (load_checkpoint's errors name the path).
void save_checkpoint(const std::string& path, const ModelParameters& params);
ModelParameters load_checkpoint(const std::string& path);

}  // namespace fleda
