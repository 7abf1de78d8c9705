// Int8QuantCodec: per-tensor affine quantization. Each entry stores the
// tensor minimum and the quantization step as f32, then one u8 code per
// element: x ~ min + step * q with q = round((x - min) / step) in
// [0, 255]. Constant tensors degenerate to step == 0 and decode
// exactly. ~3.97x smaller than fp32 for the model sizes in play.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "comm/codec.hpp"
#include "comm/wire.hpp"

namespace fleda {
namespace {

// Four float lanes (GCC/Clang vector types, one SSE register on x86).
// Arithmetic, comparisons and conversions are IEEE per lane, so every
// lane computes exactly the scalar expression below.
typedef float Floats4 __attribute__((vector_size(16)));
typedef std::int32_t Ints4 __attribute__((vector_size(16)));
typedef std::uint8_t Bytes4 __attribute__((vector_size(4)));

inline Floats4 load4(const float* p) {
  Floats4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline Floats4 splat4(float a) { return Floats4{a, a, a, a}; }

// round((x - lo) / step) clamped to [0, 255], without a libm call: v is
// clamped first (as std::min(255, std::max(0, v)) would), so the int
// conversion is in range; v >= 0 makes that conversion a truncation t,
// and v - t is exact, so t + (v - t >= 0.5) is std::round's
// half-away-from-zero result.
inline std::uint8_t quantize(float x, float lo, float step) {
  const float v = std::min(255.0f, std::max(0.0f, (x - lo) / step));
  const int t = static_cast<int>(v);
  return static_cast<std::uint8_t>(
      t + (v - static_cast<float>(t) >= 0.5f ? 1 : 0));
}

inline Bytes4 quantize4(Floats4 x, float lo, float step) {
  const Floats4 zero = splat4(0.0f), top = splat4(255.0f);
  Floats4 v = (x - splat4(lo)) / splat4(step);
  v = zero < v ? v : zero;
  v = v < top ? v : top;
  const Ints4 t = __builtin_convertvector(v, Ints4);
  const Floats4 rest = v - __builtin_convertvector(t, Floats4);
  // A true lane comparison is -1.
  return __builtin_convertvector(t - (rest >= splat4(0.5f)), Bytes4);
}

struct Range {
  float lo = 0.0f;
  float hi = 0.0f;
  bool nan = false;
};

// The std::min / std::max scan from x[0], bit for bit, four lanes at a
// time. Lanes find the same extreme values in any order; the only
// equal floats with different bits are -0 and +0, and a sequential scan
// keeps the first zero it meets, so a zero extreme is looked up again.
Range value_range(const float* x, std::size_t n) {
  Range r;
  if (n == 0) return r;
  Floats4 lo = splat4(x[0]), hi = lo;
  Ints4 nan = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Floats4 v = load4(x + i);
    lo = v < lo ? v : lo;
    hi = hi < v ? v : hi;
    nan |= v != v;
  }
  r.lo = r.hi = x[0];
  for (int l = 0; l < 4; ++l) {
    r.lo = std::min(r.lo, lo[l]);
    r.hi = std::max(r.hi, hi[l]);
    r.nan = r.nan || nan[l] != 0;
  }
  for (; i < n; ++i) {
    r.lo = std::min(r.lo, x[i]);
    r.hi = std::max(r.hi, x[i]);
    r.nan = r.nan || x[i] != x[i];
  }
  if (r.lo == 0.0f) r.lo = *std::find(x, x + n, 0.0f);
  if (r.hi == 0.0f) r.hi = *std::find(x, x + n, 0.0f);
  return r;
}

}  // namespace

ByteBuffer Int8QuantCodec::encode(const ModelParameters& params,
                                  const ModelParameters* /*reference*/) const {
  ByteBuffer out;
  wire::Writer w{out};
  wire::write_preamble(w, static_cast<std::uint8_t>(kind()),
                       static_cast<std::uint32_t>(params.entries().size()));
  for (const ParameterEntry& e : params.entries()) {
    wire::write_entry_meta(w, e);
    const float* x = e.value.data();
    const std::size_t numel = static_cast<std::size_t>(e.value.numel());
    const Range range = value_range(x, numel);
    const float lo = range.lo, hi = range.hi;
    const float step = (hi - lo) / 255.0f;
    // A single inf/nan (diverged client) or a range overflowing float
    // would otherwise decode the WHOLE tensor to nan, or quietly encode
    // the nan as lo, and poison the aggregate — refuse instead.
    if (range.nan || !std::isfinite(lo) || !std::isfinite(hi) ||
        !std::isfinite(step)) {
      throw std::invalid_argument(
          "Int8QuantCodec: non-finite values or range overflow in '" +
          e.name + "'");
    }
    w.pod<float>(lo);
    w.pod<float>(step);
    std::uint8_t* codes = w.span(numel);  // zero-filled
    if (!(step > 0.0f)) continue;           // constant tensor: all codes 0
    std::size_t i = 0;
    for (; i + 4 <= numel; i += 4) {
      const Bytes4 q = quantize4(load4(x + i), lo, step);
      std::memcpy(codes + i, &q, sizeof(q));
    }
    for (; i < numel; ++i) codes[i] = quantize(x[i], lo, step);
  }
  return out;
}

ModelParameters Int8QuantCodec::decode(
    const ByteBuffer& blob, const ModelParameters* /*reference*/) const {
  wire::Reader r(blob);
  const std::uint32_t count =
      wire::read_preamble(r, static_cast<std::uint8_t>(kind()));
  ModelParameters params;
  params.mutable_entries().reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    wire::EntryMeta meta = wire::read_entry_meta(r);
    const float lo = r.pod<float>();
    const float step = r.pod<float>();
    ParameterEntry e = wire::allocate_entry(r, std::move(meta), 1);
    const std::size_t numel = static_cast<std::size_t>(e.value.numel());
    const std::uint8_t* codes = r.span(numel);
    float* x = e.value.data();
    for (std::size_t j = 0; j < numel; ++j) {
      x[j] = lo + step * static_cast<float>(codes[j]);
    }
    params.mutable_entries().push_back(std::move(e));
  }
  return params;
}

}  // namespace fleda
