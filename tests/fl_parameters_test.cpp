// Tests for ModelParameters (the FL communication unit) and its
// aggregation: snapshot/apply round trips, weighted-average math,
// proximal distance, the LG merge, buffer handling (BatchNorm
// running statistics participate in aggregation), and the shared
// storage contract: copies share entries, and a mutated copy detaches
// without touching its siblings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "comm/channel.hpp"
#include "fl/aggregation.hpp"
#include "fl/fedavg.hpp"
#include "fl/parameters.hpp"
#include "fl/privacy.hpp"
#include "fl/synthetic.hpp"
#include "models/registry.hpp"
#include "sim/profile.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

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

TEST(ModelParameters, AverageOfIdenticalIsIdentity) {
  RoutabilityModelPtr m = fresh(ModelKind::kPROS, 9);
  ModelParameters a = ModelParameters::from_model(*m);
  ModelParameters avg = WeightedAverage().aggregate(
      ModelParameters{}, {{&a, 1.0, 0}, {&a, 5.0, 0}, {&a, 3.0, 0}});
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

// --- shared storage (copy-on-write) -----------------------------------

// A deep copy of every value, independent of any snapshot's storage.
std::vector<std::vector<float>> values_of(const ModelParameters& p) {
  std::vector<std::vector<float>> out;
  for (const ParameterEntry& e : p.entries()) {
    out.emplace_back(e.value.data(), e.value.data() + e.value.numel());
  }
  return out;
}

bool bit_identical(const ModelParameters& p,
                   const std::vector<std::vector<float>>& values) {
  if (p.entries().size() != values.size()) return false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const Tensor& t = p.entries()[i].value;
    if (static_cast<std::size_t>(t.numel()) != values[i].size() ||
        std::memcmp(t.data(), values[i].data(),
                    values[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// One FLNet snapshot, three copies of it and its values frozen before
// any mutation. Each test mutates one more copy (or feeds `original`
// to a mutator) and checks that the siblings did not move.
class SharedSnapshot : public ::testing::Test {
 protected:
  SharedSnapshot()
      : original(ModelParameters::from_model(*fresh(ModelKind::kFLNet, 30))),
        siblings(3, original),
        frozen(values_of(original)) {}

  void expect_siblings_untouched() const {
    EXPECT_TRUE(bit_identical(original, frozen));
    for (const ModelParameters& s : siblings) {
      EXPECT_TRUE(bit_identical(s, frozen));
    }
  }

  // `p` no longer shares storage with the siblings, and its values
  // differ from theirs.
  void expect_detached_and_changed(const ModelParameters& p) const {
    EXPECT_NE(&p.entries(), &original.entries());
    EXPECT_FALSE(bit_identical(p, frozen));
  }

  const ModelParameters original;
  const std::vector<ModelParameters> siblings;
  const std::vector<std::vector<float>> frozen;
};

TEST_F(SharedSnapshot, TenThousandCopiesShareOneEntryVector) {
  const std::vector<ModelParameters> copies(10000, original);
  for (const ModelParameters& c : copies) {
    ASSERT_EQ(&c.entries(), &original.entries());
  }
  ModelParameters assigned;
  assigned = original;
  EXPECT_EQ(&assigned.entries(), &original.entries());
  const ModelParameters moved = std::move(assigned);
  EXPECT_EQ(&moved.entries(), &original.entries());
}

TEST(SharedSnapshotFedAvg, ResultsShareOneStorage) {
  SyntheticWorldOptions world_opts;
  world_opts.num_clients = 4;
  SyntheticWorld w = make_synthetic_world(31, world_opts);
  FLRunOptions opts;
  opts.rounds = 1;
  opts.client.steps = 1;
  opts.client.batch_size = 2;
  opts.seed = 32;
  const std::vector<ModelParameters> finals =
      FedAvg().run(w.clients, w.factory, opts);
  ASSERT_EQ(finals.size(), w.clients.size());
  for (const ModelParameters& f : finals) {
    EXPECT_EQ(&f.entries(), &finals.front().entries());
  }
}

TEST_F(SharedSnapshot, AddScaledDetaches) {
  ModelParameters copy = original;
  copy.add_scaled(original, 1.0);
  expect_detached_and_changed(copy);
  expect_siblings_untouched();
  // Adding a shared snapshot to itself reads the detached entries.
  ModelParameters self = original;
  self.add_scaled(self, 1.0);
  ModelParameters doubled = original;
  doubled.scale(2.0);
  EXPECT_TRUE(bit_identical(self, values_of(doubled)));
  expect_siblings_untouched();
}

TEST_F(SharedSnapshot, ScaleDetaches) {
  ModelParameters copy = original;
  copy.scale(3.0);
  expect_detached_and_changed(copy);
  expect_siblings_untouched();
}

TEST_F(SharedSnapshot, MutableEntriesDetaches) {
  ModelParameters copy = original;
  copy.mutable_entries()[0].value[0] += 1.0f;
  expect_detached_and_changed(copy);
  expect_siblings_untouched();
  // A sole owner writes in place.
  const std::vector<ParameterEntry>* own = &copy.entries();
  copy.mutable_entries()[0].value[0] += 1.0f;
  EXPECT_EQ(&copy.entries(), own);
}

TEST_F(SharedSnapshot, MergedWithDetaches) {
  ModelParameters other = original;
  other.scale(2.0);
  ModelParameters merged = original.merged_with(other, is_output_layer_param);
  expect_detached_and_changed(merged);
  expect_siblings_untouched();
  // Taking nothing from `other` shares, until the result is mutated.
  ModelParameters same = original.merged_with(
      other, [](const std::string&) { return false; });
  EXPECT_EQ(&same.entries(), &original.entries());
  same.scale(0.5);
  expect_detached_and_changed(same);
  expect_siblings_untouched();
}

TEST_F(SharedSnapshot, WeightedAverageDetaches) {
  const ModelParameters copy = original;
  ModelParameters avg = WeightedAverage().aggregate(
      ModelParameters{}, {{&original, 1.0, 0}, {&copy, 3.0, 0}});
  EXPECT_NE(&avg.entries(), &original.entries());
  avg.scale(2.0);
  expect_siblings_untouched();
}

TEST_F(SharedSnapshot, GaussianNoiseDetaches) {
  ModelParameters copy = original;
  Rng rng(33);
  add_gaussian_noise(copy, 0.1, rng);
  expect_detached_and_changed(copy);
  expect_siblings_untouched();
}

TEST_F(SharedSnapshot, GaussianNoiseAttackDetaches) {
  AttackSpec spec;
  spec.kind = AttackKind::kGaussianNoise;
  spec.noise_stddev = 0.1;
  const ModelParameters attacked =
      apply_attack(spec, original, original, 0, 1);
  expect_detached_and_changed(attacked);
  expect_siblings_untouched();
}

TEST_F(SharedSnapshot, CollusionAttackDetachesItsReference) {
  // The colluders' direction starts as a copy of the reference and is
  // overwritten in place: the reference must not see it.
  ModelParameters update = original;
  update.scale(1.5);
  AttackSpec spec;
  spec.kind = AttackKind::kCollusion;
  const ModelParameters attacked =
      apply_attack(spec, update, original, 0, 1);
  expect_detached_and_changed(attacked);
  expect_siblings_untouched();
}

TEST_F(SharedSnapshot, ErrorFeedbackCompensationDetaches) {
  CommConfig config;
  config.uplink = CodecKind::kInt8Quant;
  config.error_feedback = true;
  Channel channel(config);
  const ModelParameters update = original;
  // The first send keeps a residual built from a copy of the update;
  // the second sends a compensated copy of it.
  channel.send_up(0, update, nullptr);
  const ModelParameters second = channel.send_up(0, update, nullptr);
  EXPECT_EQ(&update.entries(), &original.entries());
  EXPECT_NE(&second.entries(), &original.entries());
  expect_siblings_untouched();
}

TEST_F(SharedSnapshot, PoolThreadsReadSharedAndMutateOwnCopies) {
  // Every task reads `original` while others copy it, detach their
  // copy and drop it; the counts and the detach check are what the
  // thread sanitizer watches here.
  ModelParameters doubled = original;
  doubled.scale(2.0);
  const std::vector<std::vector<float>> want_doubled = values_of(doubled);
  const double norm = original.squared_l2_norm();
  std::atomic<int> failures{0};
  ThreadPool pool(4);
  pool.parallel_for(256, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ModelParameters mine = siblings[i % siblings.size()];
      if (mine.squared_l2_norm() != norm) ++failures;
      mine.scale(2.0);
      if (!bit_identical(mine, want_doubled) ||
          &mine.entries() == &original.entries()) {
        ++failures;
      }
      const ModelParameters reader = original;
      if (!bit_identical(reader, frozen)) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
  expect_siblings_untouched();
}

TEST_F(SharedSnapshot, SoleOwnerWritesInPlaceAfterAnotherThreadDropsItsCopy) {
  // A pool thread reads its copy and drops it; the owner then mutates
  // in place, being the sole owner again. The flag is relaxed, so only
  // the reference count orders the reader's reads before those writes:
  // this is the hand-off the thread sanitizer checks.
  std::atomic<int> failures{0};
  std::atomic<int> dropped{0};
  ThreadPool readers(1);
  for (int i = 0; i < 16; ++i) {
    ModelParameters owned = original;
    owned.scale(1.0);
    const std::vector<ParameterEntry>* storage = &owned.entries();
    readers.submit([copy = owned, &dropped, &failures]() mutable {
      if (!(copy.squared_l2_norm() > 0.0)) ++failures;
      copy = ModelParameters{};
      dropped.fetch_add(1, std::memory_order_relaxed);
    });
    while (dropped.load(std::memory_order_relaxed) != i + 1) {
      std::this_thread::yield();
    }
    owned.scale(2.0);
    EXPECT_EQ(&owned.entries(), storage);
  }
  EXPECT_EQ(failures.load(), 0);
  expect_siblings_untouched();
}

}  // namespace
}  // namespace fleda
