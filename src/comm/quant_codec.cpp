// Int8QuantCodec: per-tensor affine quantization. Each entry stores the
// tensor minimum and the quantization step as f32, then one u8 code per
// element: x ~ min + step * q with q = round((x - min) / step) in
// [0, 255]. Constant tensors degenerate to step == 0 and decode
// exactly. ~3.97x smaller than fp32 for the model sizes in play.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "comm/codec.hpp"
#include "comm/wire.hpp"

namespace fleda {

ByteBuffer Int8QuantCodec::encode(const ModelParameters& params,
                                  const ModelParameters* /*reference*/) const {
  ByteBuffer out;
  wire::Writer w{out};
  wire::write_preamble(w, static_cast<std::uint8_t>(kind()),
                       static_cast<std::uint32_t>(params.entries().size()));
  for (const ParameterEntry& e : params.entries()) {
    wire::write_entry_meta(w, e);
    float lo = 0.0f, hi = 0.0f;
    if (e.value.numel() > 0) {
      lo = hi = e.value[0];
      for (std::int64_t i = 1; i < e.value.numel(); ++i) {
        lo = std::min(lo, e.value[i]);
        hi = std::max(hi, e.value[i]);
      }
    }
    const float step = (hi - lo) / 255.0f;
    // A single inf/nan (diverged client) or a range overflowing float
    // would otherwise decode the WHOLE tensor to nan and silently
    // poison the aggregate — refuse instead.
    if (!std::isfinite(lo) || !std::isfinite(hi) || !std::isfinite(step)) {
      throw std::invalid_argument(
          "Int8QuantCodec: non-finite values or range overflow in '" +
          e.name + "'");
    }
    w.pod<float>(lo);
    w.pod<float>(step);
    for (std::int64_t i = 0; i < e.value.numel(); ++i) {
      float q = step > 0.0f ? std::round((e.value[i] - lo) / step) : 0.0f;
      q = std::min(255.0f, std::max(0.0f, q));
      w.pod<std::uint8_t>(static_cast<std::uint8_t>(q));
    }
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
    for (std::int64_t j = 0; j < e.value.numel(); ++j) {
      e.value[j] = lo + step * static_cast<float>(r.pod<std::uint8_t>());
    }
    params.mutable_entries().push_back(std::move(e));
  }
  return params;
}

}  // namespace fleda
