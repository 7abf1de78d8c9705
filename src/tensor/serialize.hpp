// Binary (de)serialization of tensors, used for cached datasets.
// Format: magic "FLT1", rank (u32), dims (i64 each), then raw
// little-endian float32 payload.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "tensor/tensor.hpp"

namespace fleda {

void write_tensor(std::ostream& out, const Tensor& t);
// The bytes are untrusted: a bad header, an element count that
// overflows, or one larger than the bytes left in the stream throws
// std::runtime_error before anything is allocated. (A stream that
// cannot seek is read in bounded chunks instead.)
Tensor read_tensor(std::istream& in);

// Rebuilds a Shape from deserialized rank/dims, validating rank <=
// Shape::kMaxRank, dims >= 0 and an element count that fits int64;
// throws std::runtime_error otherwise.
// Shared by the FLT1 tensor reader and the comm FLC1 wire format.
Shape shape_from_dims(std::uint32_t rank, const std::int64_t* dims);

// Bytes from the read position to the end of the stream, or -1 when
// the stream cannot seek (a pipe, say). Readers of untrusted headers
// check a claimed count against it before allocating.
std::int64_t stream_bytes_left(std::istream& in);

}  // namespace fleda
