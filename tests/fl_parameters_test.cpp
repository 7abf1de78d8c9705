// Tests for ModelParameters (the FL communication unit) and its
// aggregation: snapshot/apply round trips, weighted-average math,
// proximal distance, the LG merge, and buffer handling (BatchNorm
// running statistics participate in aggregation).
#include <gtest/gtest.h>

#include "fl/aggregation.hpp"
#include "fl/parameters.hpp"
#include "models/registry.hpp"
#include "tensor/ops.hpp"

namespace fleda {
namespace {

RoutabilityModelPtr fresh(ModelKind kind, std::uint64_t seed) {
  Rng rng(seed);
  return make_model(kind, 4, rng);
}

TEST(ModelParameters, SnapshotApplyRoundTrip) {
  RoutabilityModelPtr a = fresh(ModelKind::kFLNet, 1);
  RoutabilityModelPtr b = fresh(ModelKind::kFLNet, 2);
  ModelParameters snap = ModelParameters::from_model(*a);
  snap.apply_to(*b);
  for (std::size_t i = 0; i < a->parameters().size(); ++i) {
    EXPECT_TRUE(a->parameters()[i]->value.equals(b->parameters()[i]->value));
  }
}

TEST(ModelParameters, SnapshotIsDeepCopy) {
  RoutabilityModelPtr a = fresh(ModelKind::kFLNet, 3);
  ModelParameters snap = ModelParameters::from_model(*a);
  a->parameters()[0]->value.fill(0.0f);
  // Snapshot unaffected.
  EXPECT_GT(squared_norm(snap.entries()[0].value), 0.0);
}

TEST(ModelParameters, ApplyToMismatchedModelThrows) {
  RoutabilityModelPtr flnet = fresh(ModelKind::kFLNet, 4);
  RoutabilityModelPtr routenet = fresh(ModelKind::kRouteNet, 5);
  ModelParameters snap = ModelParameters::from_model(*flnet);
  EXPECT_THROW(snap.apply_to(*routenet), std::invalid_argument);
}

TEST(ModelParameters, BuffersIncludedForPROS) {
  RoutabilityModelPtr pros = fresh(ModelKind::kPROS, 6);
  ModelParameters snap = ModelParameters::from_model(*pros);
  int buffers = 0;
  for (const ParameterEntry& e : snap.entries()) {
    if (e.is_buffer) ++buffers;
  }
  // Every BatchNorm contributes running_mean + running_var.
  EXPECT_EQ(buffers, static_cast<int>(pros->buffers().size()));
  EXPECT_GT(buffers, 0);
}

TEST(ModelParameters, WeightedAverageExact) {
  RoutabilityModelPtr m = fresh(ModelKind::kFLNet, 7);
  // va = base * 1, vb = base * 4; weights 3:1 -> average = base * 1.75.
  ModelParameters base = ModelParameters::from_model(*m);
  ModelParameters va = base, vb = base;
  va.scale(1.0);
  vb.scale(4.0);
  ModelParameters avg = ModelParameters::weighted_average({&va, &vb}, {3, 1});
  // avg should equal base * (3*1 + 1*4)/4 = base * 1.75.
  ModelParameters expected = base;
  expected.scale(1.75);
  for (std::size_t i = 0; i < avg.entries().size(); ++i) {
    EXPECT_TRUE(allclose(avg.entries()[i].value,
                         expected.entries()[i].value, 1e-5f, 1e-6f));
  }
}

TEST(ModelParameters, WeightedAverageValidates) {
  RoutabilityModelPtr m = fresh(ModelKind::kFLNet, 8);
  ModelParameters a = ModelParameters::from_model(*m);
  EXPECT_THROW(ModelParameters::weighted_average({}, {}),
               std::invalid_argument);
  EXPECT_THROW(ModelParameters::weighted_average({&a}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(ModelParameters::weighted_average({&a}, {-1.0}),
               std::invalid_argument);
  EXPECT_THROW(ModelParameters::weighted_average({&a}, {0.0}),
               std::invalid_argument);
}

TEST(ModelParameters, AverageOfIdenticalIsIdentity) {
  RoutabilityModelPtr m = fresh(ModelKind::kPROS, 9);
  ModelParameters a = ModelParameters::from_model(*m);
  ModelParameters avg =
      ModelParameters::weighted_average({&a, &a, &a}, {1, 5, 3});
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    EXPECT_TRUE(allclose(avg.entries()[i].value, a.entries()[i].value,
                         1e-6f, 1e-7f));
  }
}

TEST(ModelParameters, SquaredDistanceExcludesBuffers) {
  RoutabilityModelPtr m = fresh(ModelKind::kPROS, 10);
  ModelParameters a = ModelParameters::from_model(*m);
  ModelParameters b = a;
  EXPECT_DOUBLE_EQ(a.squared_distance(b), 0.0);
  // Mutate only buffers: distance must remain zero.
  bool mutated = false;
  for (NamedBuffer buf : m->buffers()) {
    buf.tensor->fill(123.0f);
    mutated = true;
  }
  ASSERT_TRUE(mutated);
  ModelParameters changed = ModelParameters::from_model(*m);
  EXPECT_DOUBLE_EQ(a.squared_distance(changed), 0.0);
  // Mutate a trainable parameter: distance positive.
  m->parameters()[0]->value.fill(9.0f);
  ModelParameters changed2 = ModelParameters::from_model(*m);
  EXPECT_GT(a.squared_distance(changed2), 0.0);
}

TEST(ModelParameters, MergedWithSplitsByPredicate) {
  RoutabilityModelPtr m = fresh(ModelKind::kFLNet, 11);
  ModelParameters base = ModelParameters::from_model(*m);
  ModelParameters other = base;
  other.scale(2.0);
  ModelParameters merged = base.merged_with(other, is_output_layer_param);
  for (std::size_t i = 0; i < merged.entries().size(); ++i) {
    const ParameterEntry& e = merged.entries()[i];
    const Tensor& expected = is_output_layer_param(e.name)
                                 ? other.entries()[i].value
                                 : base.entries()[i].value;
    EXPECT_TRUE(e.value.equals(expected)) << e.name;
  }
}

TEST(ModelParameters, OutputLayerPredicateMatchesAllModels) {
  for (ModelKind kind :
       {ModelKind::kFLNet, ModelKind::kRouteNet, ModelKind::kPROS}) {
    RoutabilityModelPtr m = fresh(kind, 12);
    ModelParameters snap = ModelParameters::from_model(*m);
    int local = 0, global = 0;
    for (const ParameterEntry& e : snap.entries()) {
      (is_output_layer_param(e.name) ? local : global)++;
    }
    EXPECT_EQ(local, 2) << to_string(kind);  // output weight + bias
    EXPECT_GT(global, 0) << to_string(kind);
  }
}

TEST(WeightedAverage, AveragesOnlyTheInputsItIsGiven) {
  RoutabilityModelPtr m = fresh(ModelKind::kFLNet, 13);
  ModelParameters base = ModelParameters::from_model(*m);
  ModelParameters x1 = base, x2 = base, x3 = base;
  x1.scale(1.0);
  x2.scale(2.0);
  x3.scale(100.0);  // not an input: must not leak in
  ModelParameters agg = WeightedAverage().aggregate(
      ModelParameters{}, {{&x1, 1.0, 0}, {&x2, 1.0, 0}});
  ModelParameters expected = base;
  expected.scale(1.5);
  for (std::size_t i = 0; i < agg.entries().size(); ++i) {
    EXPECT_TRUE(allclose(agg.entries()[i].value, expected.entries()[i].value,
                         1e-5f, 1e-6f));
  }
  EXPECT_THROW(WeightedAverage().aggregate(ModelParameters{}, {}),
               std::invalid_argument);
}

TEST(ModelParameters, NumelMatchesModel) {
  RoutabilityModelPtr m = fresh(ModelKind::kRouteNet, 14);
  ModelParameters snap = ModelParameters::from_model(*m);
  EXPECT_EQ(snap.numel(), m->num_parameters());  // RouteNet: no buffers
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(ModelParameters().empty());
}

}  // namespace
}  // namespace fleda
