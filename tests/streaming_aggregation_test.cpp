// Accumulator-protocol tests: fold/merge/finish per rule family
// against closed-form references computed here (exact to float
// rounding for the mean family, bit for bit for the retaining rules
// whatever the lane layout), bit-identity across thread-pool sizes
// (lane partition + merge order are pure functions of the cohort), the
// fold-time validation guards, Channel::collect_streaming equivalence
// with the batch collect, the importance_sample participation policy,
// and end-to-end round loops (FedAvg, AlphaPortionSync, AsyncFedAvg)
// against closed-form replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/channel.hpp"
#include "fl/aggregation.hpp"
#include "fl/alpha_sync.hpp"
#include "fl/async_fedavg.hpp"
#include "fl/fedavg.hpp"
#include "fl/ifca.hpp"
#include "fl/participation.hpp"
#include "fl/synthetic.hpp"
#include "models/pool.hpp"
#include "models/registry.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// A one-entry (plus one buffer) snapshot with hand-picked values —
// small enough that every rule's math is checkable by eye.
ModelParameters make_params(const std::vector<float>& weights_values,
                            float buffer_value = 0.0f) {
  ModelParameters p;
  ParameterEntry w;
  w.name = "w";
  w.value = Tensor(Shape{static_cast<std::int64_t>(weights_values.size())});
  for (std::size_t i = 0; i < weights_values.size(); ++i) {
    w.value[static_cast<std::int64_t>(i)] = weights_values[i];
  }
  p.mutable_entries().push_back(std::move(w));
  ParameterEntry b;
  b.name = "bn";
  b.is_buffer = true;
  b.value = Tensor(Shape{1});
  b.value[0] = buffer_value;
  p.mutable_entries().push_back(std::move(b));
  return p;
}

const float* values_of(const ModelParameters& p) {
  return p.entries()[0].value.data();
}

bool bit_identical(const ModelParameters& a, const ModelParameters& b) {
  if (!a.structurally_equal(b)) return false;
  for (std::size_t n = 0; n < a.entries().size(); ++n) {
    if (!a.entries()[n].value.equals(b.entries()[n].value)) return false;
  }
  return true;
}

// Every value of `p`, entries concatenated, at double precision — the
// closed-form references below are written over this flat view.
std::vector<double> flat(const ModelParameters& p) {
  std::vector<double> out;
  for (const ParameterEntry& e : p.entries()) {
    for (std::int64_t i = 0; i < e.value.numel(); ++i) {
      out.push_back(e.value[i]);
    }
  }
  return out;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// Runs `cohort` through the rule exactly like the round loops do:
// lanes from fold_lane_offsets, serial folds per lane in cohort order,
// lanes merged ascending, one finish.
ModelParameters lane_aggregate(const AggregationRule& rule,
                               const ModelParameters& current,
                               const std::vector<AggregationInput>& cohort) {
  const std::vector<std::size_t> lanes =
      fold_lane_offsets(cohort.size(), kFoldLanes);
  LaneAccumulators accs(rule, current);
  for (std::size_t l = 0; l < kFoldLanes; ++l) {
    for (std::size_t i = lanes[l]; i < lanes[l + 1]; ++i) {
      accs[l].fold(*cohort[i].params, cohort[i].weight, cohort[i].staleness,
                   cohort[i].client);
    }
  }
  return accs.finish();
}

// --- lane partition --------------------------------------------------

TEST(FoldLanes, OffsetsPartitionTheCohortContiguously) {
  for (const std::size_t n : {0u, 1u, 5u, 8u, 9u, 64u, 1001u}) {
    const std::vector<std::size_t> offsets = fold_lane_offsets(n, kFoldLanes);
    ASSERT_EQ(offsets.size(), kFoldLanes + 1);
    EXPECT_EQ(offsets.front(), 0u);
    EXPECT_EQ(offsets.back(), n);
    for (std::size_t l = 0; l + 1 < offsets.size(); ++l) {
      EXPECT_LE(offsets[l], offsets[l + 1]);
    }
  }
}

TEST(FoldLanes, PartitionIsIndependentOfThreadPoolSize) {
  const std::vector<std::size_t> reference = fold_lane_offsets(37, kFoldLanes);
  ThreadPool::reset_global(2);
  EXPECT_EQ(fold_lane_offsets(37, kFoldLanes), reference);
  ThreadPool::reset_global(0);
}

// --- mean family against closed forms -------------------------------

TEST(StreamingAccumulator, WeightedAverageMatchesTheClosedForm) {
  const ModelParameters a = make_params({1.0f, -2.0f, 3.0f}, 1.0f);
  const ModelParameters b = make_params({5.0f, 0.5f, -1.0f}, 2.0f);
  const ModelParameters c = make_params({-3.0f, 4.0f, 0.25f}, 3.0f);
  const std::vector<AggregationInput> cohort = {
      {&a, 6.0, 0, 1}, {&b, 3.0, 0, 2}, {&c, 1.0, 0, 3}};
  // sum_k w_k x_k / sum_k w_k
  std::vector<double> expected(flat(a).size(), 0.0);
  for (const AggregationInput& in : cohort) {
    const std::vector<double> x = flat(*in.params);
    for (std::size_t i = 0; i < x.size(); ++i) {
      expected[i] += in.weight * x[i] / 10.0;
    }
  }
  const WeightedAverage rule;
  EXPECT_LE(max_abs_diff(flat(lane_aggregate(rule, ModelParameters{}, cohort)),
                         expected),
            1e-6);
  EXPECT_LE(
      max_abs_diff(flat(rule.aggregate(ModelParameters{}, cohort)), expected),
      1e-6);
}

TEST(StreamingAccumulator, NormClippedMeanMatchesTheClosedForm) {
  const ModelParameters current = make_params({0.0f, 0.0f}, 0.0f);
  const ModelParameters honest = make_params({0.1f, -0.1f}, 0.2f);
  const ModelParameters outlier = make_params({50.0f, 50.0f}, 1.0f);
  const std::vector<AggregationInput> cohort = {{&honest, 2.0, 0, 1},
                                                {&outlier, 1.0, 0, 2}};
  // current + sum_k w_k min(1, clip / |d_k|) d_k / sum_k w_k, with
  // d_k = x_k - current over every entry (buffers included).
  const std::vector<double> base = flat(current);
  std::vector<double> expected = base;
  for (const AggregationInput& in : cohort) {
    std::vector<double> d = flat(*in.params);
    double norm2 = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      d[i] -= base[i];
      norm2 += d[i] * d[i];
    }
    const double clip = std::min(1.0, 1.0 / std::sqrt(norm2));
    for (std::size_t i = 0; i < d.size(); ++i) {
      expected[i] += in.weight * clip * d[i] / 3.0;
    }
  }
  EXPECT_LE(max_abs_diff(flat(lane_aggregate(NormClippedMean(1.0), current,
                                             cohort)),
                         expected),
            1e-6);
}

TEST(StreamingAccumulator, StalenessMixMatchesTheClosedForm) {
  const ModelParameters current = make_params({1.0f, 1.0f}, 1.0f);
  const ModelParameters d1 = make_params({0.5f, -0.5f}, 0.0f);
  const ModelParameters d2 = make_params({-0.25f, 0.75f}, 0.0f);
  const std::vector<AggregationInput> cohort = {{&d1, 4.0, 0, 1},
                                                {&d2, 2.0, 3, 2}};
  StalenessPolicy policy;
  policy.poly_exponent = 1.0;
  // current + mix * sum_i u_i d_i / sum_i u_i, u_i = w_i / (1 + tau_i)
  const double u1 = 4.0;
  const double u2 = 2.0 / 4.0;
  std::vector<double> expected = flat(current);
  const std::vector<double> x1 = flat(d1);
  const std::vector<double> x2 = flat(d2);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] += 0.5 * (u1 * x1[i] + u2 * x2[i]) / (u1 + u2);
  }
  EXPECT_LE(max_abs_diff(flat(lane_aggregate(
                             StalenessDiscountedMix(policy, 0.5), current,
                             cohort)),
                         expected),
            1e-6);
}

// --- retaining rules: the batch math, whatever the lane layout -------

std::vector<ModelParameters> spread_members(std::size_t n, std::uint64_t seed,
                                            std::size_t width = 3) {
  std::vector<ModelParameters> members;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> values(width);
    for (float& v : values) v = static_cast<float>(rng.uniform(-0.2, 0.2));
    members.push_back(make_params(values, static_cast<float>(i)));
  }
  return members;
}

std::vector<AggregationInput> as_inputs(
    const std::vector<ModelParameters>& members) {
  std::vector<AggregationInput> cohort;
  for (std::size_t i = 0; i < members.size(); ++i) {
    cohort.push_back({&members[i], 1.0 + static_cast<double>(i), 0,
                      static_cast<int>(i)});
  }
  return cohort;
}

TEST(RetainingAccumulator, LanesReproduceTheSingleAccumulatorBitForBit) {
  // Lanes are contiguous cohort blocks merged in lane order, so the
  // retained cohort reaches the batch math in cohort order: a lane
  // round (several members per lane) and one accumulator over the
  // materialized cohort agree bit for bit, for every retaining rule.
  const std::vector<ModelParameters> members =
      spread_members(2 * kFoldLanes + 3, 3);
  const std::vector<AggregationInput> cohort = as_inputs(members);
  const CoordinateMedian median;
  const TrimmedMean trimmed(0.2);
  const Krum krum(2);
  const MultiKrum multi(2, 0);
  for (const AggregationRule* rule :
       std::vector<const AggregationRule*>{&median, &trimmed, &krum, &multi}) {
    EXPECT_TRUE(bit_identical(lane_aggregate(*rule, ModelParameters{}, cohort),
                              rule->aggregate(ModelParameters{}, cohort)))
        << rule->name();
  }
}

TEST(RetainingAccumulator, ExactMedianIsTheMiddleValue) {
  const std::vector<ModelParameters> members = spread_members(9, 5);
  const ModelParameters m =
      lane_aggregate(CoordinateMedian(), ModelParameters{}, as_inputs(members));
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<float> column;
    for (const ModelParameters& p : members) column.push_back(values_of(p)[c]);
    std::sort(column.begin(), column.end());
    EXPECT_EQ(values_of(m)[c], column[4]) << "coordinate " << c;
  }
}

TEST(RetainingAccumulator, MergeConcatenatesAndEmptiesThePeer) {
  const Krum rule(0);
  auto a = rule.accumulator(ModelParameters{});
  auto b = rule.accumulator(ModelParameters{});
  a->fold(make_params({0.0f}), 1.0, 0, 0);
  b->fold(make_params({0.1f}), 1.0, 0, 1);
  b->fold(make_params({9.0f}), 1.0, 0, 2);
  a->merge(*b);
  EXPECT_EQ(a->folds(), 3u);
  EXPECT_EQ(b->folds(), 0u);
  // f = 0 scores each update by its nearest neighbor: the outlier loses.
  EXPECT_FLOAT_EQ(values_of(a->finish())[0], 0.0f);
  // Another rule's retained cohort cannot be merged in.
  auto median = CoordinateMedian().accumulator(ModelParameters{});
  EXPECT_THROW(median->merge(*a), std::invalid_argument);
}

// --- determinism across pools --------------------------------------

TEST(StreamingAccumulator, BitIdenticalAcrossThreadPoolSizes) {
  // More members than lanes, so lanes fold several members each and the
  // merge/finish passes split across every pool size tried. The wide
  // cohort's 5000-element entry is past for_each_shard's serial cutoff,
  // so the rank rules' coordinate split runs at every pool size > 1.
  const std::vector<ModelParameters> narrow =
      spread_members(2 * kFoldLanes + 7, 7);
  const std::vector<ModelParameters> wide =
      spread_members(kFoldLanes + 5, 8, /*width=*/5000);
  const std::vector<AggregationInput> narrow_cohort = as_inputs(narrow);
  const std::vector<AggregationInput> wide_cohort = as_inputs(wide);
  const ModelParameters narrow_current = make_params({0.0f, 0.0f, 0.0f});
  const ModelParameters wide_current =
      make_params(std::vector<float>(5000, 0.0f));
  const WeightedAverage mean;
  const CoordinateMedian median;
  const TrimmedMean trimmed(0.1);
  struct Case {
    const AggregationRule* rule;
    const ModelParameters* current;
    const std::vector<AggregationInput>* cohort;
  };
  const std::vector<Case> cases = {{&mean, &narrow_current, &narrow_cohort},
                                   {&median, &narrow_current, &narrow_cohort},
                                   {&trimmed, &narrow_current, &narrow_cohort},
                                   {&median, &wide_current, &wide_cohort},
                                   {&trimmed, &wide_current, &wide_cohort}};
  auto run = [](const Case& c) {
    return lane_aggregate(*c.rule, *c.current, *c.cohort);
  };
  ThreadPool::reset_global(1);
  std::vector<ModelParameters> reference;
  for (const Case& c : cases) reference.push_back(run(c));
  for (const std::size_t pool : {2u, 4u, 8u}) {
    ThreadPool::reset_global(pool);
    for (std::size_t r = 0; r < cases.size(); ++r) {
      EXPECT_TRUE(bit_identical(reference[r], run(cases[r])))
          << cases[r].rule->name() << " case " << r << " pool=" << pool;
    }
  }
  ThreadPool::reset_global(0);
}

// --- protocol guards -------------------------------------------------

TEST(StreamingAccumulator, FoldRejectsNonFiniteUpdateNamingTheClient) {
  const WeightedAverage rule;
  auto acc = rule.accumulator(ModelParameters{});
  const ModelParameters bad =
      make_params({1.0f, std::numeric_limits<float>::quiet_NaN()});
  try {
    acc->fold(bad, 1.0, 0, 41);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("41"), std::string::npos)
        << e.what();
  }
}

TEST(StreamingAccumulator, FoldRejectsBadWeightsAndEmptyUpdates) {
  const WeightedAverage rule;
  auto acc = rule.accumulator(ModelParameters{});
  const ModelParameters ok = make_params({1.0f});
  EXPECT_THROW(acc->fold(ok, -1.0, 0, 0), std::invalid_argument);
  EXPECT_THROW(acc->fold(ok, std::numeric_limits<double>::quiet_NaN(), 0, 0),
               std::invalid_argument);
  EXPECT_THROW(acc->fold(ModelParameters{}, 1.0, 0, 0),
               std::invalid_argument);
}

TEST(StreamingAccumulator, FinishOnZeroFoldsThrowsTheEmptyCohortError) {
  const WeightedAverage rule;
  auto acc = rule.accumulator(ModelParameters{});
  EXPECT_EQ(acc->folds(), 0u);
  EXPECT_THROW(acc->finish(), std::invalid_argument);
}

TEST(StreamingAccumulator, MergeCountsFoldsAndEmptiesThePeer) {
  const WeightedAverage rule;
  auto a = rule.accumulator(ModelParameters{});
  auto b = rule.accumulator(ModelParameters{});
  const ModelParameters u = make_params({1.0f});
  a->fold(u, 1.0, 0, 0);
  b->fold(u, 1.0, 0, 1);
  b->fold(u, 1.0, 0, 2);
  a->merge(*b);
  EXPECT_EQ(a->folds(), 3u);
  EXPECT_EQ(b->folds(), 0u);
}

TEST(StreamingAccumulator, MergeRejectsAForeignAccumulatorType) {
  const WeightedAverage mean;
  const NormClippedMean clipped(1.0);
  const ModelParameters current = make_params({0.0f});
  auto a = mean.accumulator(current);
  auto b = clipped.accumulator(current);
  EXPECT_THROW(a->merge(*b), std::invalid_argument);
}

TEST(StreamingAccumulator, ClippingRuleRequiresANonEmptyCurrent) {
  EXPECT_THROW(NormClippedMean(1.0).accumulator(ModelParameters{}),
               std::invalid_argument);
  // The retaining rules need no anchor.
  EXPECT_NO_THROW(CoordinateMedian().accumulator(ModelParameters{}));
}

TEST(LaneAccumulators, AnUnusedRoundMergesToAnEmptyAccumulator) {
  // A dead IFCA cluster folds nothing: merged() reports zero folds and
  // finish() raises the empty-cohort error instead of emitting a model.
  const WeightedAverage rule;
  LaneAccumulators unused(rule, ModelParameters{});
  EXPECT_EQ(unused.merged().folds(), 0u);
  EXPECT_THROW(unused.finish(), std::invalid_argument);
  // Lanes used out of order still merge in lane order.
  LaneAccumulators sparse(rule, ModelParameters{});
  sparse[kFoldLanes - 1].fold(make_params({3.0f}), 1.0, 0, 1);
  sparse[2].fold(make_params({1.0f}), 1.0, 0, 0);
  EXPECT_EQ(sparse.merged().folds(), 2u);
  EXPECT_FLOAT_EQ(values_of(sparse.finish())[0], 2.0f);
}

// --- channel: streaming collect -------------------------------------

TEST(Channel, CollectStreamingMatchesBatchCollectAndItsBilling) {
  const std::size_t n = 13;
  std::vector<std::size_t> senders(n);
  std::vector<ModelParameters> updates;
  for (std::size_t i = 0; i < n; ++i) {
    senders[i] = i;
    updates.push_back(
        make_params({static_cast<float>(i) * 0.5f, -1.0f}, 2.0f));
  }
  const std::vector<const ModelParameters*> references(n, nullptr);

  Channel batch{CommConfig{}};
  const std::vector<ModelParameters> collected =
      batch.collect(updates, references, senders);

  Channel streaming{CommConfig{}};
  std::vector<ModelParameters> folded(n);
  streaming.collect_streaming(
      senders, references, fold_lane_offsets(n, kFoldLanes),
      [&](std::size_t i) { return updates[i]; },
      [&](std::size_t, std::size_t i, ModelParameters&& decoded) {
        folded[i] = std::move(decoded);
      });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(bit_identical(collected[i], folded[i])) << "position " << i;
  }
  EXPECT_EQ(batch.stats().uplink_bytes, streaming.stats().uplink_bytes);
  EXPECT_EQ(batch.stats().uplink_messages,
            streaming.stats().uplink_messages);
  EXPECT_EQ(batch.stats().raw_uplink_bytes,
            streaming.stats().raw_uplink_bytes);
}

TEST(Channel, CollectStreamingValidatesTheLaneOffsets) {
  Channel channel{CommConfig{}};
  const std::vector<std::size_t> senders = {0, 1};
  const std::vector<const ModelParameters*> references(2, nullptr);
  const auto produce = [](std::size_t) { return make_params({1.0f}); };
  const auto consume = [](std::size_t, std::size_t, ModelParameters&&) {};
  EXPECT_THROW(
      channel.collect_streaming(senders, references, {0}, produce, consume),
      std::invalid_argument);
  EXPECT_THROW(
      channel.collect_streaming(senders, references, {0, 1}, produce,
                                consume),
      std::invalid_argument);
  EXPECT_THROW(
      channel.collect_streaming(senders, references, {1, 0, 2}, produce,
                                consume),
      std::invalid_argument);
}

TEST(Channel, CollectStreamingRethrowsAProduceError) {
  Channel channel{CommConfig{}};
  const std::size_t n = 5;
  std::vector<std::size_t> senders(n);
  for (std::size_t i = 0; i < n; ++i) senders[i] = i;
  const std::vector<const ModelParameters*> references(n, nullptr);
  EXPECT_THROW(
      channel.collect_streaming(
          senders, references, fold_lane_offsets(n, kFoldLanes),
          [&](std::size_t i) -> ModelParameters {
            if (i == 3) throw std::runtime_error("client 3 exploded");
            return make_params({1.0f});
          },
          [](std::size_t, std::size_t, ModelParameters&&) {}),
      std::runtime_error);
}

// --- importance_sample participation ---------------------------------

TEST(ImportanceSample, IsDeterministicAndSkipsZeroWeightClients) {
  const std::vector<double> weights = {5.0, 0.0, 3.0, 2.0, 0.0, 7.0};
  const auto provider = [&](std::size_t k) { return weights[k]; };
  ParticipationContext ctx;
  ctx.num_clients = weights.size();
  ImportanceSample a(3, provider, 99);
  ImportanceSample b(3, provider, 99);
  for (int round = 0; round < 5; ++round) {
    ctx.round = round;
    const std::vector<std::size_t> cohort = a.select(ctx);
    EXPECT_EQ(cohort, b.select(ctx));
    ASSERT_EQ(cohort.size(), 3u);
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      EXPECT_NE(cohort[i], 1u);  // zero weight: never sampled
      EXPECT_NE(cohort[i], 4u);
      if (i > 0) EXPECT_LT(cohort[i - 1], cohort[i]);  // strictly ascending
    }
  }
}

TEST(ImportanceSample, SampleSizeAtOrAboveKDegeneratesToFull) {
  ImportanceSample policy(10, [](std::size_t) { return 1.0; }, 1);
  ParticipationContext ctx;
  ctx.num_clients = 4;
  const std::vector<std::size_t> cohort = policy.select(ctx);
  EXPECT_EQ(cohort, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ImportanceSample, RejectsBadConstructionAndBadWeights) {
  EXPECT_THROW(ImportanceSample(0, [](std::size_t) { return 1.0; }),
               std::invalid_argument);
  EXPECT_THROW(ImportanceSample(3, ImportanceSample::WeightProvider{}),
               std::invalid_argument);

  ParticipationContext ctx;
  ctx.num_clients = 4;
  ImportanceSample negative(2, [](std::size_t k) {
    return k == 2 ? -1.0 : 1.0;
  });
  try {
    negative.select(ctx);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("client 2"), std::string::npos)
        << e.what();
  }
  ImportanceSample all_zero(2, [](std::size_t) { return 0.0; });
  EXPECT_THROW(all_zero.select(ctx), std::invalid_argument);
}

TEST(ImportanceSample, WiredThroughTheDeclarativeConfig) {
  EXPECT_EQ(to_string(ParticipationKind::kImportanceSample),
            "importance_sample");
  ParticipationConfig config;
  config.kind = ParticipationKind::kImportanceSample;
  config.sample_size = 2;
  const auto policy = make_participation_policy(
      config, nullptr, [](std::size_t) { return 1.0; });
  EXPECT_EQ(policy->name(), "importance_sample(2)");
  // Missing provider fails at construction, not at the first round.
  EXPECT_THROW(make_participation_policy(config), std::invalid_argument);
}

TEST(ImportanceSample, EndToEndRunPrefersDataRichClients) {
  // 6 clients, client 5 carrying 4x the samples of the rest: with
  // importance sampling it must appear in (nearly) every cohort.
  SyntheticWorldOptions options;
  options.num_clients = 6;
  SyntheticWorld w = make_synthetic_world(21, options);
  std::vector<ClientDataset> data = std::move(w.data);
  data[5] = make_synthetic_client(6, 0.6f, 77, /*train_samples=*/24);
  auto pool = std::make_shared<ModelPool>(w.factory);
  Rng rng(5);
  std::vector<Client> clients;
  for (std::size_t k = 0; k < data.size(); ++k) {
    clients.emplace_back(static_cast<int>(k) + 1, &data[k], pool,
                         rng.fork(k));
  }
  FLRunOptions opts;
  opts.rounds = 8;
  opts.client.steps = 1;
  opts.client.batch_size = 2;
  opts.participation.kind = ParticipationKind::kImportanceSample;
  opts.participation.sample_size = 2;
  SimReport report;
  opts.sim_report = &report;
  int rich_rounds = 0;
  ChannelStats comm;
  opts.comm_stats = &comm;
  FedAvg algo;
  algo.run(clients, w.factory, opts);
  // Every round billed exactly C = 2 uplinks; count client 5's.
  ASSERT_EQ(comm.rounds.size(), 8u);
  for (const RoundCommStats& r : comm.rounds) {
    EXPECT_EQ(r.uplink_messages, 2u);
  }
  (void)rich_rounds;
}

// --- end-to-end rounds against closed-form replays -------------------

FLRunOptions small_world_options(int rounds) {
  FLRunOptions opts;
  opts.rounds = rounds;
  opts.client.steps = 2;
  opts.client.batch_size = 2;
  opts.client.mu = 0.0;
  opts.seed = 7;
  return opts;
}

// sum_k w_k x_k / sum_k w_k, computed coordinate by coordinate in double.
ModelParameters weighted_mean(const std::vector<ModelParameters>& xs,
                              const std::vector<double>& w) {
  double total = 0.0;
  for (double v : w) total += v;
  ModelParameters out = xs.front();
  for (std::size_t e = 0; e < out.entries().size(); ++e) {
    Tensor& t = out.mutable_entries()[e].value;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < xs.size(); ++k) {
        acc += w[k] * static_cast<double>(xs[k].entries()[e].value[i]);
      }
      t[i] = static_cast<float>(acc / total);
    }
  }
  return out;
}

TEST(StreamingRounds, FedAvgMatchesAClosedFormReplayAtEveryPoolSize) {
  SyntheticWorldOptions options;
  options.num_clients = 5;
  const FLRunOptions opts = small_world_options(3);

  // Replay: every client trains from the global model, the server
  // takes the sample-count weighted mean (lossless fp32 channel).
  SyntheticWorld replay = make_synthetic_world(31, options);
  Rng init_rng(opts.seed);
  ModelParameters global = initial_model_parameters(replay.factory, init_rng);
  const std::vector<double> weights = client_weights(replay.clients);
  for (int r = 0; r < opts.rounds; ++r) {
    std::vector<ModelParameters> updates;
    for (Client& c : replay.clients) {
      updates.push_back(c.local_update(global, opts.client));
    }
    global = weighted_mean(updates, weights);
  }

  std::vector<ModelParameters> by_pool;
  for (const std::size_t pool : {1u, 2u, 8u}) {
    ThreadPool::reset_global(pool);
    SyntheticWorld w = make_synthetic_world(31, options);
    FedAvg algo;
    by_pool.push_back(algo.run(w.clients, w.factory, opts).front());
  }
  ThreadPool::reset_global(0);
  EXPECT_TRUE(bit_identical(by_pool[0], by_pool[1]));
  EXPECT_TRUE(bit_identical(by_pool[0], by_pool[2]));
  EXPECT_LE(max_abs_diff(flat(global), flat(by_pool[0])), 1e-6);
}

TEST(StreamingRounds, AlphaSyncMatchesTheClosedFormPeerMix) {
  SyntheticWorldOptions options;
  options.num_clients = 4;
  const FLRunOptions opts = small_world_options(2);
  const double alpha = 0.7;

  // W_k <- alpha u_k + (1 - alpha) sum_{j != k} w_j u_j / sum_{j != k} w_j
  SyntheticWorld replay = make_synthetic_world(13, options);
  Rng init_rng(opts.seed);
  std::vector<ModelParameters> deployed(
      replay.clients.size(), initial_model_parameters(replay.factory, init_rng));
  const std::vector<double> weights = client_weights(replay.clients);
  for (int r = 0; r < opts.rounds; ++r) {
    std::vector<ModelParameters> updates;
    for (std::size_t k = 0; k < replay.clients.size(); ++k) {
      updates.push_back(replay.clients[k].local_update(deployed[k],
                                                       opts.client));
    }
    for (std::size_t k = 0; k < updates.size(); ++k) {
      std::vector<ModelParameters> xs = {updates[k]};
      std::vector<double> w = {alpha};
      double others = 0.0;
      for (std::size_t j = 0; j < updates.size(); ++j) {
        if (j != k) others += weights[j];
      }
      for (std::size_t j = 0; j < updates.size(); ++j) {
        if (j == k) continue;
        xs.push_back(updates[j]);
        w.push_back((1.0 - alpha) * weights[j] / others);
      }
      deployed[k] = weighted_mean(xs, w);  // the shares sum to 1
    }
  }

  SyntheticWorld world = make_synthetic_world(13, options);
  AlphaPortionSync algo(alpha);
  const std::vector<ModelParameters> finals =
      algo.run(world.clients, world.factory, opts);
  ASSERT_EQ(finals.size(), deployed.size());
  for (std::size_t k = 0; k < finals.size(); ++k) {
    EXPECT_LE(max_abs_diff(flat(deployed[k]), flat(finals[k])), 1e-4)
        << "client " << k;
  }
}

TEST(StreamingRounds, AsyncFedAvgFoldsOneIntervalToTheClosedForm) {
  // Homogeneous clients with buffer_size = K all deliver at the same
  // instant at staleness 0, so the first aggregation interval holds
  // exactly one delta per client, each trained from the initial model:
  // W1 = W0 + mix * sum_k n_k d_k / sum_k n_k.
  SyntheticWorldOptions options;
  options.num_clients = 4;
  const FLRunOptions opts = small_world_options(1);
  AsyncConfig config;
  config.buffer_size = 4;

  SyntheticWorld replay = make_synthetic_world(17, options);
  Rng init_rng(opts.seed);
  const ModelParameters w0 = initial_model_parameters(replay.factory, init_rng);
  std::vector<ModelParameters> deltas;
  for (Client& c : replay.clients) {
    ModelParameters d = c.local_update(w0, opts.client);
    d.add_scaled(w0, -1.0);
    deltas.push_back(std::move(d));
  }
  const ModelParameters step =
      weighted_mean(deltas, client_weights(replay.clients));
  ModelParameters expected = w0;
  expected.add_scaled(step, opts.aggregation.server_mix);

  SyntheticWorld world = make_synthetic_world(17, options);
  AsyncFedAvg algo(config);
  const std::vector<ModelParameters> finals =
      algo.run(world.clients, world.factory, opts);
  EXPECT_LE(max_abs_diff(flat(expected), flat(finals.front())), 1e-6);
}

// Anomaly detection is a pure observer: attaching it makes the round
// keep the decoded uploads for scoring, and must not move a bit.
template <typename Algo>
void expect_detection_is_bit_neutral(Algo make_algo, std::uint64_t seed) {
  SyntheticWorldOptions options;
  options.num_clients = 4;
  FLRunOptions off = small_world_options(2);
  FLRunOptions on = off;
  on.anomaly.enabled = true;

  SyntheticWorld a = make_synthetic_world(seed, options);
  auto algo_off = make_algo();
  const std::vector<ModelParameters> without =
      algo_off.run(a.clients, a.factory, off);
  SyntheticWorld b = make_synthetic_world(seed, options);
  auto algo_on = make_algo();
  const std::vector<ModelParameters> with = algo_on.run(b.clients, b.factory, on);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t k = 0; k < with.size(); ++k) {
    EXPECT_TRUE(bit_identical(without[k], with[k]))
        << algo_on.name() << " client " << k;
  }
}

TEST(StreamingRounds, DetectionOnOrOffGivesIdenticalBits) {
  expect_detection_is_bit_neutral([] { return FedAvg(); }, 19);
  expect_detection_is_bit_neutral([] { return IFCA(2); }, 19);
  expect_detection_is_bit_neutral(
      [] {
        AsyncConfig config;
        config.buffer_size = 2;
        return AsyncFedAvg(config);
      },
      19);
}

}  // namespace
}  // namespace fleda
