// Tests for the scratch-model pool (models/pool.hpp): warm reuse and
// residency caps, lease RAII/move semantics, client construction that
// builds no model, the RoutabilityModel instance counters, and the
// client-side Adam moment persistence that replaces client-owned
// optimizers when reset_optimizer == false.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "fl/client.hpp"
#include "fl/parameters.hpp"
#include "fl/synthetic.hpp"
#include "models/pool.hpp"
#include "models/registry.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

ModelFactory tiny_factory() { return make_model_factory(ModelKind::kFLNet, 2); }

bool bit_identical(const ModelParameters& a, const ModelParameters& b) {
  if (!a.structurally_equal(b)) return false;
  for (std::size_t n = 0; n < a.entries().size(); ++n) {
    if (!a.entries()[n].value.equals(b.entries()[n].value)) return false;
  }
  return true;
}

TEST(ModelPool, WarmReuseAcrossSequentialLeases) {
  ModelPool pool(tiny_factory());
  EXPECT_EQ(pool.resident(), 0u);
  EXPECT_EQ(pool.created(), 0u);

  RoutabilityModel* first = nullptr;
  {
    ModelLease lease = pool.acquire();
    ASSERT_TRUE(static_cast<bool>(lease));
    first = &lease.model();
  }
  EXPECT_EQ(pool.resident(), 1u);
  EXPECT_EQ(pool.created(), 1u);

  {
    // Sequential reacquisition hands back the same warm instance; no
    // second construction.
    ModelLease lease = pool.acquire();
    EXPECT_EQ(&lease.model(), first);
  }
  EXPECT_EQ(pool.created(), 1u);

  {
    // Concurrent leases get distinct instances.
    ModelLease a = pool.acquire();
    ModelLease b = pool.acquire();
    EXPECT_NE(&a.model(), &b.model());
    EXPECT_EQ(pool.created(), 2u);
  }
  EXPECT_LE(pool.resident(), pool.capacity());

  pool.trim();
  EXPECT_EQ(pool.resident(), 0u);
}

TEST(ModelPool, ExplicitResidencyCapDropsExcessScratch) {
  ModelPool pool(tiny_factory(), /*max_resident=*/1);
  EXPECT_EQ(pool.capacity(), 1u);
  {
    ModelLease a = pool.acquire();
    ModelLease b = pool.acquire();
    ModelLease c = pool.acquire();
  }
  // Three concurrent leases existed, but only one instance is retained.
  EXPECT_EQ(pool.created(), 3u);
  EXPECT_EQ(pool.resident(), 1u);
}

TEST(ModelPool, DynamicCapacityTracksThreadPool) {
  ModelPool pool(tiny_factory());
  ThreadPool::reset_global(3);
  EXPECT_EQ(pool.capacity(), 4u);  // workers + participating caller
  ThreadPool::reset_global(0);
}

TEST(ModelPool, LeaseMoveTransfersOwnership) {
  ModelPool pool(tiny_factory());
  ModelLease a = pool.acquire();
  RoutabilityModel* instance = &a.model();
  ModelLease b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(&b.model(), instance);
  EXPECT_THROW(a.model(), std::logic_error);
  EXPECT_EQ(pool.resident(), 0u);  // still leased
  ModelLease c;
  c = std::move(b);
  EXPECT_EQ(&c.model(), instance);
}

TEST(ModelPool, AdamIsBoundOnceAndReconfigured) {
  ModelPool pool(tiny_factory());
  ModelLease lease = pool.acquire();
  AdamOptions opts;
  opts.lr = 1e-3;
  Adam& adam = lease.adam(opts);
  EXPECT_DOUBLE_EQ(adam.options().lr, 1e-3);
  opts.lr = 5e-4;
  Adam& again = lease.adam(opts);
  EXPECT_EQ(&again, &adam);  // same scratch optimizer, new options
  EXPECT_DOUBLE_EQ(adam.options().lr, 5e-4);
}

TEST(ModelPool, RejectsEmptyFactory) {
  EXPECT_THROW(ModelPool(ModelFactory{}), std::invalid_argument);
}

TEST(RoutabilityModelCounters, LiveAndPeakTrackConstructionAndDestruction) {
  const std::int64_t live0 = RoutabilityModel::live_instances();
  Rng rng(1);
  {
    RoutabilityModelPtr a = make_model(ModelKind::kFLNet, 2, rng);
    EXPECT_EQ(RoutabilityModel::live_instances(), live0 + 1);
    RoutabilityModel::reset_peak_instances();
    EXPECT_EQ(RoutabilityModel::peak_instances(), live0 + 1);
    {
      RoutabilityModelPtr b = make_model(ModelKind::kFLNet, 2, rng);
      EXPECT_EQ(RoutabilityModel::live_instances(), live0 + 2);
      EXPECT_EQ(RoutabilityModel::peak_instances(), live0 + 2);
    }
    // Peak is a high-water mark: destruction lowers live, not peak.
    EXPECT_EQ(RoutabilityModel::live_instances(), live0 + 1);
    EXPECT_EQ(RoutabilityModel::peak_instances(), live0 + 2);
  }
  EXPECT_EQ(RoutabilityModel::live_instances(), live0);
}

TEST(ModelPool, SharedPoolHoldsOThreadsInstancesForManyClients) {
  SyntheticWorldOptions options;
  options.num_clients = 40;
  RoutabilityModel::reset_peak_instances();
  const std::int64_t base = RoutabilityModel::live_instances();
  SyntheticWorld w = make_synthetic_world(7, options);
  Rng init_rng(5);
  const ModelParameters start =
      initial_model_parameters(w.factory, init_rng);
  ClientTrainConfig cfg;
  cfg.steps = 1;
  cfg.batch_size = 2;
  for (Client& c : w.clients) {
    ModelParameters ignored = c.local_update(start, cfg);
  }
  const std::int64_t budget =
      static_cast<std::int64_t>(ThreadPool::global().size()) + 1;
  EXPECT_LE(RoutabilityModel::peak_instances() - base, budget);
  EXPECT_LE(static_cast<std::int64_t>(w.pool->resident()), budget);
}

// A client is its dataset plus its rng stream: building one constructs
// no model, and the stream starts at the client's first training draw.
TEST(ClientConstruction, BuildsNoModelAndTrainsDeterministicallyPerSeed) {
  const ClientDataset data = make_synthetic_client(1, 0.4f, 11);
  ModelFactory factory = tiny_factory();
  auto pool = std::make_shared<ModelPool>(factory);
  const std::int64_t live0 = RoutabilityModel::live_instances();
  RoutabilityModel::reset_peak_instances();
  const std::int64_t peak0 = RoutabilityModel::peak_instances();
  {
    Rng rng(4242);
    std::vector<Client> clients;
    clients.reserve(1000);
    for (std::uint64_t k = 0; k < 1000; ++k) {
      clients.emplace_back(static_cast<int>(k) + 1, &data, pool, rng.fork(k));
    }
    EXPECT_EQ(RoutabilityModel::live_instances(), live0);
    EXPECT_EQ(RoutabilityModel::peak_instances(), peak0);
    EXPECT_EQ(pool->created(), 0u);
  }

  Rng init_rng(9);
  const ModelParameters start = initial_model_parameters(factory, init_rng);
  ClientTrainConfig cfg;
  cfg.steps = 2;
  cfg.batch_size = 2;
  cfg.mu = 0.0;
  // Rng::fork advances the parent stream, so equal client streams come
  // from equally seeded generators, not from repeated forks of one.
  Client client(1, &data, pool, Rng(123));
  Client twin(1, &data, pool, Rng(123));
  Client other(1, &data, pool, Rng(124));
  const ModelParameters trained = client.local_update(start, cfg);
  EXPECT_TRUE(bit_identical(trained, twin.local_update(start, cfg)));
  EXPECT_FALSE(bit_identical(trained, other.local_update(start, cfg)));
}

// reset_optimizer == false: the client carries its Adam moments between
// rounds as data, independent of which scratch instance it borrows.
TEST(ClientOptimizerState, PersistedMomentsAreSharedPoolInvariant) {
  const std::uint64_t seed = 7;
  SyntheticWorldOptions options;
  options.num_clients = 2;

  auto run_two_rounds = [&](bool shared, bool reset) {
    ClientTrainConfig cfg;
    cfg.steps = 3;
    cfg.batch_size = 2;
    cfg.learning_rate = 1e-3;
    cfg.mu = 0.0;
    cfg.reset_optimizer = reset;
    std::vector<ModelParameters> out;
    if (shared) {
      SyntheticWorld w = make_synthetic_world(seed, options);
      Rng r(5);
      ModelParameters start = initial_model_parameters(w.factory, r);
      for (Client& c : w.clients) {
        ModelParameters mid = c.local_update(start, cfg);
        out.push_back(c.local_update(mid, cfg));
      }
    } else {
      // The owned layout: per-client exclusive pools over the same
      // data and rng streams.
      std::vector<ClientDataset> data;
      for (std::size_t k = 0; k < options.num_clients; ++k) {
        data.push_back(make_synthetic_client(
            static_cast<int>(k + 1),
            options.threshold_base +
                options.threshold_step * static_cast<float>(k),
            seed + k + 1, options.train_samples, options.test_samples));
      }
      ModelFactory factory = tiny_factory();
      Rng rng(seed);
      std::vector<Client> clients;
      for (std::size_t k = 0; k < data.size(); ++k) {
        clients.emplace_back(data[k].client_id, &data[k],
                             std::make_shared<ModelPool>(factory),
                             rng.fork(k));
      }
      Rng r(5);
      ModelParameters start = initial_model_parameters(factory, r);
      for (Client& c : clients) {
        ModelParameters mid = c.local_update(start, cfg);
        out.push_back(c.local_update(mid, cfg));
      }
    }
    return out;
  };

  const auto shared_kept = run_two_rounds(/*shared=*/true, /*reset=*/false);
  const auto owned_kept = run_two_rounds(/*shared=*/false, /*reset=*/false);
  ASSERT_EQ(shared_kept.size(), owned_kept.size());
  for (std::size_t k = 0; k < shared_kept.size(); ++k) {
    EXPECT_TRUE(bit_identical(shared_kept[k], owned_kept[k])) << "client " << k;
  }

  // Carrying the moments must actually change the second round.
  const auto shared_reset = run_two_rounds(/*shared=*/true, /*reset=*/true);
  EXPECT_FALSE(bit_identical(shared_kept[0], shared_reset[0]));
}

}  // namespace
}  // namespace fleda
