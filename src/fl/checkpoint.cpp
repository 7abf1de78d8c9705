#include "fl/checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>

#include "tensor/serialize.hpp"

namespace fleda {
namespace {

constexpr std::uint32_t kMagic = 0xF1EDAC4Au;

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("checkpoint: truncated");
  return v;
}

}  // namespace

void write_checkpoint(std::ostream& out, const ModelParameters& params) {
  write_u32(out, kMagic);
  write_u32(out, static_cast<std::uint32_t>(params.entries().size()));
  for (const ParameterEntry& e : params.entries()) {
    write_u32(out, static_cast<std::uint32_t>(e.name.size()));
    out.write(e.name.data(), static_cast<std::streamsize>(e.name.size()));
    write_u32(out, e.is_buffer ? 1u : 0u);
    write_tensor(out, e.value);
  }
  if (!out) throw std::runtime_error("checkpoint: write failure");
}

ModelParameters read_checkpoint(std::istream& in) {
  if (read_u32(in) != kMagic) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  const std::uint32_t count = read_u32(in);
  // An entry is at least its name length, buffer flag and a tensor
  // header (magic + rank): 16 bytes. The claim is checked against the
  // bytes left before anything is reserved for it.
  const std::int64_t left = stream_bytes_left(in);
  if (count > (1u << 20) ||
      (left >= 0 && static_cast<std::int64_t>(count) * 16 > left)) {
    throw std::runtime_error("checkpoint: bad count " +
                             std::to_string(count));
  }

  ModelParameters params;
  params.mutable_entries().reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = read_u32(in);
    if (name_len > (1u << 16)) throw std::runtime_error("checkpoint: name");
    ParameterEntry entry;
    entry.name.resize(name_len);
    in.read(entry.name.data(), name_len);
    if (!in) throw std::runtime_error("checkpoint: truncated name");
    entry.is_buffer = read_u32(in) != 0;
    entry.value = read_tensor(in);
    params.mutable_entries().push_back(std::move(entry));
  }
  return params;
}

void save_checkpoint(const std::string& path, const ModelParameters& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_checkpoint: cannot open " + path);
  write_checkpoint(out, params);
}

ModelParameters load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);
  try {
    return read_checkpoint(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("load_checkpoint: " + path + ": " + e.what());
  }
}

}  // namespace fleda
