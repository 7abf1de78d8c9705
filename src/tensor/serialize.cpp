#include "tensor/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace fleda {
namespace {

constexpr char kMagic[4] = {'F', 'L', 'T', '1'};

// Reads `bytes` without trusting the claim: chunks are appended as they
// arrive, so memory tracks the bytes actually present.
std::vector<char> read_bounded(std::istream& in, std::int64_t bytes) {
  constexpr std::int64_t kChunk = 1 << 20;
  std::vector<char> data;
  while (static_cast<std::int64_t>(data.size()) < bytes) {
    const std::int64_t take = std::min<std::int64_t>(
        kChunk, bytes - static_cast<std::int64_t>(data.size()));
    const std::size_t at = data.size();
    data.resize(at + static_cast<std::size_t>(take));
    in.read(data.data() + at, static_cast<std::streamsize>(take));
    if (!in) throw std::runtime_error("read_tensor: truncated payload");
  }
  return data;
}

}  // namespace

std::int64_t stream_bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || !in) return -1;
  return static_cast<std::int64_t>(end - here);
}

Shape shape_from_dims(std::uint32_t rank, const std::int64_t* dims) {
  if (rank > static_cast<std::uint32_t>(Shape::kMaxRank)) {
    throw std::runtime_error("shape_from_dims: bad rank");
  }
  std::int64_t count = 1;
  for (std::uint32_t i = 0; i < rank; ++i) {
    if (dims[i] < 0) throw std::runtime_error("shape_from_dims: bad dim");
    if (dims[i] != 0 &&
        count > std::numeric_limits<std::int64_t>::max() / dims[i]) {
      throw std::runtime_error(
          "shape_from_dims: element count overflows int64");
    }
    count *= dims[i];
  }
  switch (rank) {
    case 0:
      return Shape{};
    case 1:
      return Shape::of(dims[0]);
    case 2:
      return Shape::of(dims[0], dims[1]);
    case 3:
      return Shape::of(dims[0], dims[1], dims[2]);
    default:
      return Shape::of(dims[0], dims[1], dims[2], dims[3]);
  }
}

void write_tensor(std::ostream& out, const Tensor& t) {
  out.write(kMagic, 4);
  std::uint32_t rank = static_cast<std::uint32_t>(t.shape().rank());
  out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  for (int i = 0; i < t.shape().rank(); ++i) {
    std::int64_t d = t.shape().dim(i);
    out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (!out) throw std::runtime_error("write_tensor: stream failure");
}

Tensor read_tensor(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("read_tensor: bad magic");
  }
  std::uint32_t rank = 0;
  in.read(reinterpret_cast<char*>(&rank), sizeof(rank));
  if (!in || rank > static_cast<std::uint32_t>(Shape::kMaxRank)) {
    throw std::runtime_error("read_tensor: bad rank");
  }
  std::int64_t dims[Shape::kMaxRank] = {0, 0, 0, 0};
  for (std::uint32_t i = 0; i < rank; ++i) {
    in.read(reinterpret_cast<char*>(&dims[i]), sizeof(std::int64_t));
    if (!in || dims[i] < 0) throw std::runtime_error("read_tensor: bad dim");
  }
  // The dims are untrusted: check the claim against the bytes actually
  // left before allocating anything.
  const Shape shape = shape_from_dims(rank, dims);
  const std::int64_t count = shape.numel();
  constexpr std::int64_t kFloat = static_cast<std::int64_t>(sizeof(float));
  if (count > std::numeric_limits<std::int64_t>::max() / kFloat) {
    throw std::runtime_error("read_tensor: " + std::to_string(count) +
                             " elements overflow the byte count");
  }
  const std::int64_t left = stream_bytes_left(in);
  if (left >= 0 && count * kFloat > left) {
    throw std::runtime_error("read_tensor: claims " + std::to_string(count) +
                             " elements but only " + std::to_string(left) +
                             " bytes are left");
  }
  if (left < 0) {
    const std::vector<char> payload = read_bounded(in, count * kFloat);
    Tensor t(shape);
    std::memcpy(t.data(), payload.data(), payload.size());
    return t;
  }
  Tensor t(shape);
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(count * kFloat));
  if (!in) throw std::runtime_error("read_tensor: truncated payload");
  return t;
}

}  // namespace fleda
