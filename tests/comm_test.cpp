// Tests for the src/comm/ parameter-exchange subsystem: codec round
// trips (exact for fp32, tolerance-bounded for fp16/int8, sparsity
// semantics for top-k deltas), wire-format validation, channel
// byte/latency accounting, and end-to-end equivalence of FedAvg run
// through a lossless channel vs. the direct path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "comm/codec.hpp"
#include "comm/wire.hpp"
#include "fl/fedavg.hpp"
#include "models/registry.hpp"
#include "obs/profiler.hpp"

namespace fleda {
namespace {

ModelParameters snapshot(ModelKind kind, std::uint64_t seed) {
  Rng rng(seed);
  RoutabilityModelPtr model = make_model(kind, 4, rng);
  return ModelParameters::from_model(*model);
}

double max_abs_error(const ModelParameters& a, const ModelParameters& b) {
  EXPECT_TRUE(a.structurally_equal(b));
  double worst = 0.0;
  for (std::size_t n = 0; n < a.entries().size(); ++n) {
    const Tensor& x = a.entries()[n].value;
    const Tensor& y = b.entries()[n].value;
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      worst = std::max(worst, std::fabs(static_cast<double>(x[i]) - y[i]));
    }
  }
  return worst;
}

TEST(HalfFloat, ExactValuesRoundTrip) {
  // 2^-14 is the smallest normal half; all values here are exactly
  // representable in binary16.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, -2.25f, 1024.0f, 6.103515625e-5f}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
  // Overflow saturates to inf; halves survive a second conversion.
  EXPECT_TRUE(std::isinf(half_to_float(float_to_half(1.0e6f))));
  EXPECT_TRUE(std::isnan(half_to_float(float_to_half(NAN))));
}

TEST(HalfFloat, RelativeErrorBounded) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.uniform(-10.0, 10.0));
    const float back = half_to_float(float_to_half(v));
    // binary16 has a 10-bit mantissa: eps = 2^-11 after rounding.
    EXPECT_NEAR(back, v, std::fabs(v) * 4.9e-4 + 1e-7);
  }
}

TEST(Fp32Codec, RoundTripIsBitExact) {
  const ModelParameters params = snapshot(ModelKind::kPROS, 1);
  Fp32Codec codec;
  const ByteBuffer blob = codec.encode(params, nullptr);
  EXPECT_EQ(blob.size(), raw_wire_bytes(params));
  const ModelParameters back = codec.decode(blob, nullptr);
  ASSERT_TRUE(back.structurally_equal(params));
  for (std::size_t n = 0; n < params.entries().size(); ++n) {
    EXPECT_TRUE(back.entries()[n].value.equals(params.entries()[n].value));
    EXPECT_EQ(back.entries()[n].is_buffer, params.entries()[n].is_buffer);
  }
}

TEST(Fp16Codec, RoundTripWithinTolerance) {
  const ModelParameters params = snapshot(ModelKind::kFLNet, 2);
  Fp16Codec codec;
  const ByteBuffer blob = codec.encode(params, nullptr);
  EXPECT_LT(blob.size(), raw_wire_bytes(params));
  const ModelParameters back = codec.decode(blob, nullptr);
  // Initialized weights are O(1); half precision keeps ~3 decimal digits.
  EXPECT_LT(max_abs_error(params, back), 1e-2);
}

TEST(Int8QuantCodec, RoundTripWithinQuantStep) {
  const ModelParameters params = snapshot(ModelKind::kFLNet, 4);
  Int8QuantCodec codec;
  const ByteBuffer blob = codec.encode(params, nullptr);
  const ModelParameters back = codec.decode(blob, nullptr);
  ASSERT_TRUE(back.structurally_equal(params));
  for (std::size_t n = 0; n < params.entries().size(); ++n) {
    const Tensor& x = params.entries()[n].value;
    float lo = x[0], hi = x[0];
    for (std::int64_t i = 1; i < x.numel(); ++i) {
      lo = std::min(lo, x[i]);
      hi = std::max(hi, x[i]);
    }
    const float step = (hi - lo) / 255.0f;
    const Tensor& y = back.entries()[n].value;
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      EXPECT_NEAR(y[i], x[i], step * 0.51f + 1e-6f);
    }
  }
}

TEST(Codec, NonFiniteValuesAreRejectedByLossyCodecs) {
  // A diverged client must fail loudly at encode time, not poison the
  // aggregate: every lossy codec refuses non-finite (or, for fp16,
  // half-overflowing) values.
  ModelParameters params;
  Tensor t(Shape::of(4));
  t[0] = 1.0f;
  t[1] = std::numeric_limits<float>::infinity();
  params.mutable_entries().push_back({"w", false, t});
  EXPECT_THROW(Int8QuantCodec().encode(params, nullptr),
               std::invalid_argument);
  // A NaN past the first element never wins a min/max comparison, so
  // the range alone cannot catch it.
  ModelParameters late_nan;
  Tensor u(Shape::of(9));
  u[5] = std::numeric_limits<float>::quiet_NaN();
  late_nan.mutable_entries().push_back({"w", false, u});
  EXPECT_THROW(Int8QuantCodec().encode(late_nan, nullptr),
               std::invalid_argument);
  EXPECT_THROW(Fp16Codec().encode(params, nullptr), std::invalid_argument);
  EXPECT_THROW(TopKDeltaCodec(0.5).encode(params, nullptr),
               std::invalid_argument);

  ModelParameters overflow;
  overflow.mutable_entries().push_back(
      {"w", false, Tensor::full(Shape::of(2), 1.0e6f)});  // > 65504
  EXPECT_THROW(Fp16Codec().encode(overflow, nullptr), std::invalid_argument);
}

TEST(Int8QuantCodec, ConstantTensorDecodesExactly) {
  ModelParameters params;
  params.mutable_entries().push_back(
      {"w", false, Tensor::full(Shape::of(7, 3), 0.125f)});
  Int8QuantCodec codec;
  const ModelParameters back = codec.decode(codec.encode(params, nullptr),
                                            nullptr);
  EXPECT_TRUE(back.entries()[0].value.equals(params.entries()[0].value));
}

// The encoder's rounding, t + (v - t >= 0.5) on a clamped v, must give
// the bytes of the std::round form it replaced, kept here verbatim.
ByteBuffer reference_int8_encode(const ModelParameters& params) {
  ByteBuffer out;
  wire::Writer w{out};
  wire::write_preamble(w, static_cast<std::uint8_t>(CodecKind::kInt8Quant),
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
    if (!std::isfinite(lo) || !std::isfinite(hi) || !std::isfinite(step)) {
      throw std::invalid_argument("reference: range overflow");
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

ModelParameters one_entry(const std::vector<float>& values) {
  ModelParameters params;
  Tensor t(Shape::of(static_cast<std::int64_t>(values.size())));
  for (std::size_t i = 0; i < values.size(); ++i) {
    t[static_cast<std::int64_t>(i)] = values[i];
  }
  params.mutable_entries().push_back({"w", false, t});
  return params;
}

void expect_reference_bytes(const ModelParameters& params,
                            const std::string& label) {
  const ByteBuffer blob = Int8QuantCodec().encode(params, nullptr);
  EXPECT_EQ(blob, reference_int8_encode(params)) << label;
  // The decoder reads the codes back the way the per-byte loop did.
  const ModelParameters back = Int8QuantCodec().decode(blob, nullptr);
  ASSERT_TRUE(back.structurally_equal(params)) << label;
}

TEST(Int8QuantCodec, EncodesTheSameBytesAsTheStdRoundForm) {
  expect_reference_bytes(snapshot(ModelKind::kFLNet, 6), "flnet snapshot");
  expect_reference_bytes(snapshot(ModelKind::kRouteNet, 7),
                         "routenet snapshot");
  Rng rng(8);
  for (const double span : {1e-3, 1.0, 37.0, 1e30}) {
    std::vector<float> values(1001);
    for (float& v : values) {
      v = static_cast<float>(rng.uniform(-span, span / 3.0));
    }
    expect_reference_bytes(one_entry(values), "random span " +
                                                  std::to_string(span));
  }
}

TEST(Int8QuantCodec, HalfStepsAndTheirNeighboursRoundLikeStdRound) {
  // lo + (k + 0.5) * step sits on a rounding boundary; its float
  // neighbours sit just either side of it.
  for (const float lo : {-1.0f, 0.0f, 3.25f, -1e-3f}) {
    for (const float width : {1.0f, 255.0f, 0.1f, 7e-3f}) {
      const float hi = lo + width;
      const float step = (hi - lo) / 255.0f;
      std::vector<float> values = {lo, hi};
      for (int k = 0; k < 255; ++k) {
        const float half = lo + (static_cast<float>(k) + 0.5f) * step;
        for (const float v : {std::nextafter(half, -INFINITY), half,
                              std::nextafter(half, INFINITY)}) {
          if (v >= lo && v <= hi) values.push_back(v);
        }
      }
      expect_reference_bytes(one_entry(values),
                             "lo " + std::to_string(lo) + " width " +
                                 std::to_string(width));
    }
  }
}

TEST(Int8QuantCodec, EdgeRangesEncodeLikeTheReference) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  expect_reference_bytes(one_entry(std::vector<float>(9, -2.5f)), "constant");
  expect_reference_bytes(one_entry({0.75f}), "one element");
  expect_reference_bytes(one_entry({0.0f, denorm, 2 * denorm, 7 * denorm}),
                         "subnormal range with step 0");
  expect_reference_bytes(
      one_entry({0.0f, 1e-40f, 3e-39f, -5e-39f, 100 * denorm}),
      "subnormal range");
  expect_reference_bytes(one_entry({-1e-38f, 1e-38f, 0.0f, -0.0f}),
                         "subnormal step");
  expect_reference_bytes(one_entry({-FLT_MAX / 2, FLT_MAX / 2, 0.0f}),
                         "widest finite range");
  // A zero extreme keeps the sign of the first zero in index order,
  // whichever lane of the vector scan meets it.
  expect_reference_bytes(
      one_entry({0.5f, 0.0f, 0.75f, 0.1f, -0.0f, 0.3f, 0.2f, 0.9f, 0.4f}),
      "zero minimum, +0 first");
  expect_reference_bytes(
      one_entry({0.5f, -0.0f, 0.75f, 0.1f, 0.0f, 0.3f, 0.2f, 0.9f, 0.4f}),
      "zero minimum, -0 first");
  expect_reference_bytes(
      one_entry({-0.5f, 0.0f, -0.75f, -0.1f, -0.0f, -0.3f, -0.2f, -0.9f}),
      "zero maximum, +0 first");
  expect_reference_bytes(
      one_entry({-0.5f, -0.0f, -0.75f, -0.1f, 0.0f, -0.3f, -0.2f, -0.9f}),
      "zero maximum, -0 first");
  const ModelParameters overflow = one_entry({-FLT_MAX, FLT_MAX, 0.0f});
  EXPECT_THROW(Int8QuantCodec().encode(overflow, nullptr),
               std::invalid_argument);
  EXPECT_THROW(reference_int8_encode(overflow), std::invalid_argument);
}

TEST(Int8QuantCodec, CompressesAtLeast3_5x) {
  const ModelParameters params = snapshot(ModelKind::kFLNet, 5);
  Int8QuantCodec codec;
  const ByteBuffer blob = codec.encode(params, nullptr);
  const double ratio = static_cast<double>(raw_wire_bytes(params)) /
                       static_cast<double>(blob.size());
  EXPECT_GE(ratio, 3.5);
}

TEST(TopKDeltaCodec, EncodedSizeShrinksMonotonicallyWithK) {
  const ModelParameters reference = snapshot(ModelKind::kFLNet, 6);
  ModelParameters update = snapshot(ModelKind::kFLNet, 7);
  std::size_t previous = 0;
  for (double fraction : {0.01, 0.05, 0.2, 0.5, 1.0}) {
    TopKDeltaCodec codec(fraction);
    const std::size_t size = codec.encode(update, &reference).size();
    EXPECT_GT(size, previous) << "fraction " << fraction;
    previous = size;
  }
  EXPECT_THROW(TopKDeltaCodec(0.0), std::invalid_argument);
  EXPECT_THROW(TopKDeltaCodec(1.5), std::invalid_argument);
}

TEST(TopKDeltaCodec, FullFractionReconstructsExactly) {
  const ModelParameters reference = snapshot(ModelKind::kFLNet, 8);
  const ModelParameters update = snapshot(ModelKind::kFLNet, 9);
  TopKDeltaCodec codec(1.0);
  const ModelParameters back =
      codec.decode(codec.encode(update, &reference), &reference);
  // reference + (update - reference): one float rounding per element.
  EXPECT_LT(max_abs_error(update, back), 1e-6);
}

TEST(TopKDeltaCodec, UnkeptEntriesEqualReference) {
  const ModelParameters reference = snapshot(ModelKind::kFLNet, 10);
  const ModelParameters update = snapshot(ModelKind::kFLNet, 11);
  TopKDeltaCodec codec(0.05);
  const ModelParameters back =
      codec.decode(codec.encode(update, &reference), &reference);
  // Every decoded value matches either the update (kept, up to one
  // float rounding) or the reference (dropped, exact).
  for (std::size_t n = 0; n < back.entries().size(); ++n) {
    const Tensor& b = back.entries()[n].value;
    const Tensor& u = update.entries()[n].value;
    const Tensor& r = reference.entries()[n].value;
    for (std::int64_t i = 0; i < b.numel(); ++i) {
      EXPECT_TRUE(b[i] == r[i] || std::fabs(b[i] - u[i]) < 1e-6f);
    }
  }
}

TEST(Codec, MismatchedCodecIsRejected) {
  const ModelParameters params = snapshot(ModelKind::kRouteNet, 12);
  Fp32Codec fp32;
  Int8QuantCodec int8;
  const ByteBuffer blob = fp32.encode(params, nullptr);
  EXPECT_THROW(int8.decode(blob, nullptr), std::runtime_error);
  ByteBuffer truncated(blob.begin(), blob.begin() + blob.size() / 2);
  EXPECT_THROW(fp32.decode(truncated, nullptr), std::runtime_error);
}

// An FLC1 blob with one entry "w" whose header claims `dims` and
// carries no payload at all — what a hostile sender can put on the
// wire for a few dozen bytes.
ByteBuffer claiming_blob(CodecKind kind, const std::vector<std::int64_t>& dims) {
  ByteBuffer out;
  auto put = [&out](const void* src, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(src);
    out.insert(out.end(), p, p + n);
  };
  put("FLC1", 4);
  const auto codec = static_cast<std::uint8_t>(kind);
  put(&codec, 1);
  const std::uint32_t entries = 1, name_len = 1;
  put(&entries, 4);
  put(&name_len, 4);
  put("w", 1);
  const std::uint8_t is_buffer = 0;
  put(&is_buffer, 1);
  const auto rank = static_cast<std::uint32_t>(dims.size());
  put(&rank, 4);
  for (const std::int64_t d : dims) put(&d, 8);
  return out;
}

TEST(Codec, HostileDimsAreRejectedBeforeAnyAllocation) {
  // 2^28 and 2^40 elements claimed by a 27-byte blob, an int64-overflowing
  // element count, and a negative dim: every codec refuses each with a
  // runtime_error before touching memory for the tensor (no
  // std::bad_alloc, no gigabyte zero-fill).
  const std::vector<std::vector<std::int64_t>> claims = {
      {std::int64_t{1} << 28},
      {std::int64_t{1} << 40},
      {std::int64_t{1} << 20, std::int64_t{1} << 20, std::int64_t{1} << 20,
       std::int64_t{1} << 20},
      {-4}};
  for (const CodecKind kind : {CodecKind::kFp32, CodecKind::kFp16,
                               CodecKind::kInt8Quant, CodecKind::kTopKDelta}) {
    const std::unique_ptr<ParameterCodec> codec = make_codec(kind, 0.1);
    for (const std::vector<std::int64_t>& dims : claims) {
      if (kind == CodecKind::kTopKDelta && dims[0] == (std::int64_t{1} << 28)) {
        continue;  // within TopK's index range; see below
      }
      EXPECT_THROW(codec->decode(claiming_blob(kind, dims), nullptr),
                   std::runtime_error)
          << to_string(kind) << " dims[0]=" << dims[0];
    }
  }
  EXPECT_EQ(claiming_blob(CodecKind::kFp32, {std::int64_t{1} << 28}).size(),
            27u);
}

TEST(Codec, TopKChecksTheClaimedShapeAgainstItsReference) {
  // TopK's payload is sparse, so the bytes left cannot bound the dense
  // tensor; the reference does. A claim that disagrees with it is
  // rejected before the decoder allocates anything.
  const ModelParameters reference = snapshot(ModelKind::kFLNet, 40);
  TopKDeltaCodec codec(0.1);
  ByteBuffer blob = codec.encode(reference, &reference);
  EXPECT_NO_THROW(codec.decode(blob, &reference));
  ModelParameters one_entry;
  one_entry.mutable_entries().push_back(reference.entries()[0]);
  EXPECT_THROW(codec.decode(claiming_blob(CodecKind::kTopKDelta,
                                          {std::int64_t{1} << 30}),
                            &one_entry),
               std::invalid_argument);
  // Without a reference a claim past the uint32 index range is refused.
  EXPECT_THROW(codec.decode(claiming_blob(CodecKind::kTopKDelta,
                                          {(std::int64_t{1} << 32) + 1}),
                            nullptr),
               std::runtime_error);
}

TEST(Channel, UplinkCodecErrorsNameTheSender) {
  CommConfig config;
  config.uplink = CodecKind::kInt8Quant;
  Channel channel(config);
  const ModelParameters good = snapshot(ModelKind::kFLNet, 41);
  ModelParameters bad = good;
  bad.mutable_entries()[0].value[0] = std::numeric_limits<float>::infinity();
  const std::vector<ModelParameters> updates = {good, bad};
  try {
    channel.collect(updates, {nullptr, nullptr}, {2, 5});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("client 5"), std::string::npos)
        << e.what();
  }
}

TEST(Codec, FactoryCoversAllKinds) {
  for (CodecKind kind : {CodecKind::kFp32, CodecKind::kFp16,
                         CodecKind::kInt8Quant, CodecKind::kTopKDelta}) {
    std::unique_ptr<ParameterCodec> codec = make_codec(kind, 0.1);
    EXPECT_EQ(codec->kind(), kind);
    EXPECT_FALSE(codec->name().empty());
    EXPECT_FALSE(to_string(kind).empty());
  }
}

TEST(Channel, BroadcastBillsPerRecipientButEncodesOnce) {
  // One snapshot deployed twice, plus three handles copied from it (they
  // share its storage): one encode and one decoded copy, shared by all
  // five recipients, and five billed downloads.
  const ModelParameters global = snapshot(ModelKind::kFLNet, 13);
  const std::vector<ModelParameters> handles(3, global);
  std::vector<const ModelParameters*> deployed(2, &global);
  for (const ModelParameters& h : handles) deployed.push_back(&h);
  const bool was_enabled = Profiler::enabled();
  Profiler::set_enabled(true);
  Profiler::reset();
  Channel channel{CommConfig{}};
  std::vector<std::shared_ptr<const ModelParameters>> received =
      channel.broadcast(deployed);
  const ProfileReport report = Profiler::report();
  Profiler::reset();
  Profiler::set_enabled(was_enabled);
  const PhaseReport* encode = report.find(phase::kCodecEncode);
  ASSERT_NE(encode, nullptr);
  EXPECT_EQ(encode->count, 1u);
  ASSERT_EQ(received.size(), 5u);
  const ChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.downlink_messages, 5u);
  EXPECT_EQ(stats.downlink_bytes, 5 * raw_wire_bytes(global));
  EXPECT_EQ(stats.uplink_messages, 0u);
  for (const auto& r : received) {
    EXPECT_EQ(r.get(), received[0].get());
    EXPECT_EQ(max_abs_error(global, *r), 0.0);  // fp32 downlink: lossless
  }
}

TEST(Channel, TopKDeltaDownlinkTracksPerClientReference) {
  // A delta downlink needs a reference both sides hold. The channel
  // tracks, per client, the snapshot that client last decoded, so the
  // second broadcast encodes deltas against it instead of nullptr
  // (which used to silently zero ~(1-k/n) of the deployed weights —
  // the channel rejected the codec outright before the fix).
  const ModelParameters g1 = snapshot(ModelKind::kFLNet, 61);
  ModelParameters g2 = g1;
  // Nudge a single entry by far more than any weight or round-1
  // residual: the round-2 delta at that index is certain to be kept.
  g2.mutable_entries()[0].value[0] += 10.0f;

  CommConfig config;
  config.downlink = CodecKind::kTopKDelta;
  config.topk_fraction = 0.01;
  Channel channel(config);

  std::vector<const ModelParameters*> wave(2, &g1);
  const auto r1 = channel.broadcast(wave);
  // First contact: delta against zeros keeps only the top 1% of g1.
  EXPECT_GT(max_abs_error(g1, *r1[0]), 0.0);

  wave.assign(2, &g2);
  const auto r2 = channel.broadcast(wave);
  // Round 2 encodes against what each client decoded in round 1; the
  // dominant delta entry is kept, so decode = reference + delta
  // reconstructs the changed entry exactly.
  for (const auto& r : r2) {
    EXPECT_FLOAT_EQ(r->entries()[0].value[0], g2.entries()[0].value[0]);
  }
}

TEST(Channel, TopKDeltaDownlinkReferencesAreIndependentPerClient) {
  // Clients sampled in different rounds hold different references; the
  // server must encode against each client's own last decode. Client 0
  // sees g1 then g2; client 1 first hears from the server at g2 and
  // must still reconstruct (its delta encodes against zeros).
  const ModelParameters g1 = snapshot(ModelKind::kFLNet, 62);
  ModelParameters g2 = g1;
  g2.mutable_entries()[0].value[0] += 10.0f;

  CommConfig config;
  config.downlink = CodecKind::kTopKDelta;
  config.topk_fraction = 0.01;
  Channel channel(config);

  std::vector<const ModelParameters*> only_zero = {&g1};
  const auto r1 = channel.broadcast(only_zero, {0});

  std::vector<const ModelParameters*> both = {&g2, &g2};
  const auto r2 = channel.broadcast(both, {0, 1});
  // Same snapshot, different references -> distinct payloads/decodes.
  EXPECT_NE(r2[0].get(), r2[1].get());
  // Client 0's decode builds on its round-1 state; the dominant delta
  // entry is kept, so the changed entry reconstructs exactly.
  EXPECT_FLOAT_EQ(r2[0]->entries()[0].value[0], g2.entries()[0].value[0]);
  // Client 1's decode is a fresh top-k of g2 (sparse, but consistent:
  // no crosstalk from client 0's reference).
  EXPECT_GT(max_abs_error(g2, *r2[1]), 0.0);
  const ChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.downlink_messages, 3u);
}

TEST(Channel, CohortBroadcastAndCollectBillOnlySampledClients) {
  const ModelParameters global = snapshot(ModelKind::kFLNet, 63);
  Channel channel{CommConfig{}};
  // 5-client federation, cohort = {1, 3}.
  std::vector<const ModelParameters*> deployed(2, &global);
  const auto received = channel.broadcast(deployed, {1, 3});
  ASSERT_EQ(received.size(), 2u);
  std::vector<ModelParameters> updates = {*received[0], *received[1]};
  std::vector<const ModelParameters*> refs = {received[0].get(),
                                              received[1].get()};
  channel.collect(updates, refs, {1, 3});
  const auto& traffic = channel.round_traffic();
  ASSERT_GE(traffic.size(), 4u);
  EXPECT_EQ(traffic[1].downlink_messages, 1u);
  EXPECT_EQ(traffic[1].uplink_messages, 1u);
  EXPECT_EQ(traffic[3].downlink_messages, 1u);
  EXPECT_EQ(traffic[3].uplink_messages, 1u);
  EXPECT_EQ(traffic[0].downlink_messages, 0u);
  EXPECT_EQ(traffic[2].downlink_messages, 0u);
  EXPECT_EQ(channel.stats().downlink_bytes, 2 * raw_wire_bytes(global));
  EXPECT_THROW(channel.broadcast(deployed, {1}), std::invalid_argument);
  EXPECT_THROW(channel.collect(updates, refs, {1}), std::invalid_argument);
}

TEST(Channel, SerialBroadcastWavesAccumulateLatency) {
  // Two broadcast waves per round (e.g. IFCA shipping 2 cluster
  // models) must cost about twice the downlink transfer time of one.
  const ModelParameters a = snapshot(ModelKind::kFLNet, 20);
  const ModelParameters b = snapshot(ModelKind::kFLNet, 21);
  CommConfig config;
  config.per_message_latency_s = 0.0;
  Channel one_wave(config), two_waves(config);
  std::vector<const ModelParameters*> wave(3, &a);

  one_wave.broadcast(wave);
  one_wave.end_round();

  two_waves.broadcast(wave);
  wave.assign(3, &b);
  two_waves.broadcast(wave);
  two_waves.end_round();

  EXPECT_NEAR(two_waves.stats().simulated_latency_s,
              2.0 * one_wave.stats().simulated_latency_s, 1e-9);
}

TEST(Channel, CollectMetersUplinkAndRoundsAccumulate) {
  const ModelParameters reference = snapshot(ModelKind::kFLNet, 14);
  CommConfig config;
  config.uplink = CodecKind::kInt8Quant;
  Channel channel(config);

  std::vector<ModelParameters> updates(2, snapshot(ModelKind::kFLNet, 15));
  std::vector<const ModelParameters*> refs(2, &reference);
  std::vector<ModelParameters> received = channel.collect(updates, refs);
  channel.end_round();

  const ChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.uplink_messages, 2u);
  EXPECT_EQ(stats.raw_uplink_bytes, 2 * raw_wire_bytes(updates[0]));
  EXPECT_GE(stats.uplink_compression(), 3.5);
  ASSERT_EQ(stats.rounds.size(), 1u);
  EXPECT_EQ(stats.rounds[0].uplink_bytes, stats.uplink_bytes);
  EXPECT_GT(stats.rounds[0].simulated_latency_s, 0.0);
  EXPECT_EQ(stats.simulated_latency_s, stats.rounds[0].simulated_latency_s);

  EXPECT_THROW(channel.collect(updates, {&reference}), std::invalid_argument);
}

// --- end-to-end: FedAvg through a lossless channel is bit-identical
// to the direct exchange (see fl_algorithms_test.cpp for the world
// helper idiom).

ClientDataset make_tiny_client(int id, float threshold, std::uint64_t seed) {
  Rng rng(seed);
  ClientDataset ds;
  ds.client_id = id;
  auto make_sample = [&]() {
    Sample s;
    s.features = Tensor(Shape{2, 8, 8});
    s.label = Tensor(Shape{1, 8, 8});
    for (std::int64_t i = 0; i < 64; ++i) {
      const float v = static_cast<float>(rng.uniform());
      s.features[i] = v;
      s.features[64 + i] = static_cast<float>(rng.uniform());
      s.label[i] = v > threshold ? 1.0f : 0.0f;
    }
    return s;
  };
  for (int i = 0; i < 6; ++i) ds.train.push_back(make_sample());
  for (int i = 0; i < 3; ++i) ds.test.push_back(make_sample());
  return ds;
}

struct TinyWorld {
  std::vector<ClientDataset> data;
  std::vector<Client> clients;
  ModelFactory factory;
};

TinyWorld make_world(std::uint64_t seed) {
  TinyWorld w;
  w.data.push_back(make_tiny_client(1, 0.4f, seed + 1));
  w.data.push_back(make_tiny_client(2, 0.6f, seed + 2));
  w.factory = make_model_factory(ModelKind::kFLNet, 2);
  Rng rng(seed);
  for (std::size_t k = 0; k < w.data.size(); ++k) {
    w.clients.emplace_back(w.data[k].client_id, &w.data[k],
                           std::make_shared<ModelPool>(w.factory),
                           rng.fork(k));
  }
  return w;
}

TEST(Channel, EndToEndLosslessFedAvgMatchesDirectPath) {
  FLRunOptions opts;
  opts.rounds = 2;
  opts.client.steps = 3;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 1e-3;
  opts.client.mu = 0.0;
  opts.seed = 99;

  // Channel path (default CommConfig: fp32 up and down).
  TinyWorld w1 = make_world(77);
  ChannelStats stats;
  opts.comm_stats = &stats;
  FedAvg algo;
  std::vector<ModelParameters> channel_finals =
      algo.run(w1.clients, w1.factory, opts);

  // Direct path, re-implemented against the raw Client API and the
  // default rule.
  TinyWorld w2 = make_world(77);
  Rng rng(opts.seed);
  RoutabilityModelPtr init = w2.factory(rng);
  ModelParameters global = ModelParameters::from_model(*init);
  const std::vector<double> weights = client_weights(w2.clients);
  for (int r = 0; r < opts.rounds; ++r) {
    std::vector<ModelParameters> updates;
    for (Client& c : w2.clients) {
      updates.push_back(c.local_update(global, opts.client));
    }
    global = WeightedAverage().aggregate(
        global, {{&updates[0], weights[0], 0}, {&updates[1], weights[1], 0}});
  }

  ASSERT_EQ(channel_finals.size(), 2u);
  ASSERT_TRUE(channel_finals[0].structurally_equal(global));
  for (std::size_t n = 0; n < global.entries().size(); ++n) {
    EXPECT_TRUE(
        channel_finals[0].entries()[n].value.equals(global.entries()[n].value))
        << global.entries()[n].name;
  }

  // And the exchange was fully metered: per round, K downloads + K
  // uploads of the fp32-sized snapshot.
  EXPECT_EQ(stats.rounds.size(), 2u);
  EXPECT_EQ(stats.downlink_messages, 4u);
  EXPECT_EQ(stats.uplink_messages, 4u);
  EXPECT_EQ(stats.uplink_bytes, stats.raw_uplink_bytes);
  EXPECT_GT(stats.simulated_latency_s, 0.0);
}

TEST(Channel, EndToEndInt8ShrinksUploadsAndStillLearns) {
  FLRunOptions opts;
  opts.rounds = 2;
  opts.client.steps = 3;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 1e-3;
  opts.client.mu = 0.0;
  opts.seed = 99;
  opts.comm.uplink = CodecKind::kInt8Quant;

  TinyWorld w = make_world(81);
  ChannelStats stats;
  opts.comm_stats = &stats;
  FedAvg algo;
  std::vector<ModelParameters> finals = algo.run(w.clients, w.factory, opts);

  EXPECT_GE(stats.uplink_compression(), 3.5);
  // The quantized run still produces a usable model (scores in range,
  // structure intact).
  ASSERT_EQ(finals.size(), 2u);
  const double auc = w.clients[0].evaluate_test_auc(finals[0]);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
}

// --- error feedback (client-side residual accumulators) --------------

TEST(ErrorFeedback, ResidualEventuallyTransmitsSmallCoordinates) {
  // TopK keeps 1 of 4 coordinates per send. Without error feedback the
  // small coordinates are dropped every round, forever; with it the
  // residual accumulates until they win a slot.
  ModelParameters update;
  Tensor t(Shape::of(4));
  t[0] = 4.0f;
  t[1] = 3.0f;
  t[2] = 2.0f;
  t[3] = 1.0f;
  update.mutable_entries().push_back({"w", false, t});

  auto accumulate_decoded = [&](bool feedback) {
    CommConfig config;
    config.uplink = CodecKind::kTopKDelta;
    config.topk_fraction = 0.25;
    config.error_feedback = feedback;
    Channel channel(config);
    Tensor sum(Shape::of(4));
    for (int r = 0; r < 8; ++r) {
      const ModelParameters decoded = channel.send_up(0, update, nullptr);
      for (std::int64_t i = 0; i < 4; ++i) {
        sum[i] += decoded.entries()[0].value[i];
      }
      channel.end_round();
    }
    return sum;
  };

  const Tensor with = accumulate_decoded(true);
  const Tensor without = accumulate_decoded(false);
  // Without feedback, only one of the large coordinates ever moves.
  int moved = 0;
  for (std::int64_t i = 0; i < 4; ++i) {
    if (without[i] != 0.0f) ++moved;
  }
  EXPECT_EQ(moved, 1);
  // With feedback every coordinate gets through, and more total mass
  // is delivered (only the final residual is still in flight).
  float with_total = 0.0f, without_total = 0.0f;
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_GT(with[i], 0.0f) << "coordinate " << i;
    with_total += with[i];
    without_total += without[i];
  }
  EXPECT_GT(with_total, without_total);
}

TEST(ErrorFeedback, ClosesGapToLosslessUnderHighCompression) {
  // FedAvg under an aggressive TopK uplink, with and without error
  // feedback, against the lossless fp32 reference. Error feedback must
  // recover most of the parameter-space gap.
  auto run_with = [&](CodecKind uplink, bool feedback, double* avg_auc) {
    FLRunOptions opts;
    opts.rounds = 12;
    opts.client.steps = 3;
    opts.client.batch_size = 2;
    opts.client.learning_rate = 1e-3;
    opts.client.mu = 0.0;
    opts.seed = 99;
    opts.comm.uplink = uplink;
    opts.comm.topk_fraction = 0.1;
    opts.comm.error_feedback = feedback;
    TinyWorld w = make_world(91);
    FedAvg algo;
    std::vector<ModelParameters> finals = algo.run(w.clients, w.factory, opts);
    *avg_auc = 0.5 * (w.clients[0].evaluate_test_auc(finals[0]) +
                      w.clients[1].evaluate_test_auc(finals[1]));
    return finals[0];
  };

  double auc_fp32 = 0.0, auc_lossy = 0.0, auc_corrected = 0.0;
  const ModelParameters fp32 = run_with(CodecKind::kFp32, false, &auc_fp32);
  const ModelParameters lossy =
      run_with(CodecKind::kTopKDelta, false, &auc_lossy);
  const ModelParameters corrected =
      run_with(CodecKind::kTopKDelta, true, &auc_corrected);

  // "Closes most of the gap": at least half the parameter-space error
  // and at least half the AUC deficit vs. the lossless run disappear.
  const double dist_lossy = lossy.squared_distance(fp32);
  const double dist_corrected = corrected.squared_distance(fp32);
  EXPECT_GT(dist_lossy, 0.0);
  EXPECT_LT(dist_corrected, 0.5 * dist_lossy);

  const double auc_gap_lossy = auc_fp32 - auc_lossy;
  const double auc_gap_corrected = auc_fp32 - auc_corrected;
  EXPECT_GT(auc_gap_lossy, 0.05);  // compression visibly hurt accuracy
  EXPECT_LT(auc_gap_corrected, 0.5 * auc_gap_lossy);
}

}  // namespace
}  // namespace fleda
