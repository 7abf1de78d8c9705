// Tests for the src/sim/ simulation engine and the algorithms running
// on it: event-queue ordering and clock monotonicity, client profiles
// (availability windows, stock scenarios), per-client link durations,
// sync rounds as schedules (straggler stretches the barrier),
// AsyncFedAvg (staleness discounts, buffered aggregation, dropout
// semantics, straggler speedup), server-side aggregation guards, and
// bit-exact determinism of trace + final parameters across thread-pool
// sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "fl/async_fedavg.hpp"
#include "fl/fedavg.hpp"
#include "fl/synthetic.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/federation.hpp"
#include "sim/profile.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// --- event queue core ------------------------------------------------

TEST(EventQueue, RunsInTimeOrderWithInsertionTiebreak) {
  SimClock clock;
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(2.0, [&] { order.push_back(2); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(1.0, [&] { order.push_back(10); });  // same time: FIFO
  queue.schedule(0.5, [&] { order.push_back(0); });
  queue.run_all(clock);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 10);
  EXPECT_EQ(order[3], 2);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  EXPECT_EQ(queue.processed(), 4u);
}

TEST(EventQueue, EventsMayScheduleFurtherEvents) {
  SimClock clock;
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, [&] {
    ++fired;
    queue.schedule(3.0, [&] { ++fired; });
  });
  queue.run_all(clock);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(EventQueue, RejectsBadTimesAndBackwardClock) {
  SimClock clock;
  EventQueue queue;
  EXPECT_THROW(queue.schedule(-1.0, {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule(std::numeric_limits<double>::infinity(), {}),
               std::invalid_argument);
  clock.advance_to(5.0);
  EXPECT_THROW(clock.advance_to(4.0), std::logic_error);
  queue.schedule(1.0, {});  // already in the clock's past
  EXPECT_THROW(queue.run_next(clock), std::logic_error);
}

TEST(EventQueue, RunAllBoundsRunawayLoops) {
  SimClock clock;
  EventQueue queue;
  std::function<void()> respawn = [&] { queue.schedule(clock.now(), respawn); };
  queue.schedule(0.0, respawn);
  EXPECT_THROW(queue.run_all(clock, /*max_events=*/1000), std::runtime_error);
}

// --- profiles --------------------------------------------------------

TEST(ClientProfile, AvailabilityWindows) {
  ClientProfile p;
  p.offline.push_back({2.0, 4.0});
  p.offline.push_back({3.5, 6.0});  // overlapping chain
  EXPECT_TRUE(p.is_online(1.0));
  EXPECT_FALSE(p.is_online(2.0));
  EXPECT_FALSE(p.is_online(5.0));
  EXPECT_TRUE(p.is_online(6.0));  // half-open
  EXPECT_DOUBLE_EQ(p.next_online(1.0), 1.0);
  EXPECT_DOUBLE_EQ(p.next_online(2.5), 6.0);  // chained through both
  EXPECT_DOUBLE_EQ(p.next_online(5.9), 6.0);
}

TEST(SimConfig, StockScenarios) {
  SimConfig straggler = SimConfig::with_straggler(4, 2, 10.0);
  ASSERT_EQ(straggler.profiles.size(), 4u);
  EXPECT_DOUBLE_EQ(straggler.profiles[2].compute_multiplier, 10.0);
  EXPECT_DOUBLE_EQ(straggler.profiles[0].compute_multiplier, 1.0);
  EXPECT_THROW(SimConfig::with_straggler(4, 9, 10.0), std::invalid_argument);

  SimConfig het = SimConfig::heterogeneous(16, 3, 8.0);
  for (const ClientProfile& p : het.profiles) {
    EXPECT_GE(p.compute_multiplier, 1.0);
    EXPECT_LE(p.compute_multiplier, 8.0);
    EXPECT_GT(p.link.uplink_bytes_per_sec, 0.0);
  }
  // Seeded: same seed, same profiles.
  SimConfig het2 = SimConfig::heterogeneous(16, 3, 8.0);
  EXPECT_DOUBLE_EQ(het.profiles[5].compute_multiplier,
                   het2.profiles[5].compute_multiplier);

  SimConfig drop = SimConfig::uniform(2);
  add_periodic_dropout(drop, 1, 1.0, 10.0, 2.0, 3);
  EXPECT_EQ(drop.profiles[1].offline.size(), 3u);
  EXPECT_FALSE(drop.profiles[1].is_online(11.5));
  EXPECT_TRUE(drop.profiles[1].is_online(13.5));
  EXPECT_THROW(add_periodic_dropout(drop, 7, 0.0, 1.0, 0.5, 1),
               std::invalid_argument);
}

// --- engine durations ------------------------------------------------

TEST(SimEngine, PerClientLinkFallbackAndOverride) {
  CommConfig comm;  // 12.5e6 up / 62.5e6 down / 0.05 s per message
  SimConfig config = SimConfig::uniform(2);
  config.step_time_s = 0.1;
  config.profiles[1].link.downlink_bytes_per_sec = 1e6;
  config.profiles[1].link.per_message_latency_s = 0.0;
  config.profiles[1].compute_multiplier = 4.0;
  SimEngine engine(config, comm, 2);

  EXPECT_NEAR(engine.download_duration(0, 1, 62.5e6), 0.05 + 1.0, 1e-12);
  EXPECT_NEAR(engine.download_duration(1, 1, 1e6), 1.0, 1e-12);  // override
  EXPECT_NEAR(engine.upload_duration(1, 2, 12.5e6), 1.0, 1e-12);  // inherit
  EXPECT_NEAR(engine.compute_duration(0, 5), 0.5, 1e-12);
  EXPECT_NEAR(engine.compute_duration(1, 5), 2.0, 1e-12);
}

// --- tiny federated world (shared fl/synthetic fixture) --------------

using TinyWorld = SyntheticWorld;

TinyWorld make_world(std::uint64_t seed, std::size_t num_clients = 3) {
  SyntheticWorldOptions options;
  options.num_clients = num_clients;
  return make_synthetic_world(seed, options);
}

FLRunOptions tiny_options(int rounds = 2) {
  FLRunOptions opts;
  opts.rounds = rounds;
  opts.client.steps = 3;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 1e-3;
  opts.client.mu = 0.0;
  opts.seed = 99;
  return opts;
}

// --- sync rounds as schedules ---------------------------------------

TEST(SyncSchedule, ReportsEventsAndTime) {
  TinyWorld w = make_world(21);
  FLRunOptions opts = tiny_options(2);
  opts.trace = true;
  SimReport report;
  opts.sim_report = &report;
  FedAvg algo;
  algo.run(w.clients, w.factory, opts);
  // Per round: 3 per-client events + one barrier release.
  EXPECT_EQ(report.events_processed, 2u * (3u * 3u + 1u));
  EXPECT_EQ(report.trace.size(), report.events_processed);
  EXPECT_GT(report.total_time_s, 0.0);
  EXPECT_EQ(report.trace.back().kind, SimEventKind::kRoundEnd);
}

TEST(SyncSchedule, StragglerStretchesBarrier) {
  auto run_with = [&](const SimConfig& sim) {
    TinyWorld w = make_world(22);
    FLRunOptions opts = tiny_options(2);
    opts.sim = sim;
    opts.sim.step_time_s = 1.0;  // compute-dominated
    SimReport report;
    opts.sim_report = &report;
    FedAvg algo;
    algo.run(w.clients, w.factory, opts);
    return report.total_time_s;
  };
  const double uniform = run_with(SimConfig::uniform(3));
  const double straggler = run_with(SimConfig::with_straggler(3, 0, 10.0));
  // The barrier waits for the 10x straggler every round.
  EXPECT_GT(straggler, 5.0 * uniform);
  EXPECT_LT(straggler, 11.0 * uniform);
}

TEST(SyncSchedule, OfflineClientDelaysRound) {
  TinyWorld w = make_world(23);
  FLRunOptions opts = tiny_options(1);
  opts.sim = SimConfig::uniform(3);
  opts.sim.profiles[1].offline.push_back({0.0, 50.0});
  SimReport report;
  opts.sim_report = &report;
  FedAvg algo;
  algo.run(w.clients, w.factory, opts);
  EXPECT_GT(report.total_time_s, 50.0);  // waited for the rejoin
}

TEST(SyncSchedule, PermanentlyOfflineClientThrowsDescriptively) {
  // The barrier would never release; the engine must say so instead of
  // failing deep inside EventQueue with a non-finite timestamp.
  TinyWorld w = make_world(24);
  FLRunOptions opts = tiny_options(1);
  opts.sim = SimConfig::uniform(3);
  opts.sim.profiles[2].offline.push_back(
      {0.0, std::numeric_limits<double>::infinity()});
  FedAvg algo;
  EXPECT_THROW(algo.run(w.clients, w.factory, opts), std::invalid_argument);
}

// --- AsyncFedAvg -----------------------------------------------------

TEST(AsyncFedAvg, StalenessWeights) {
  StalenessPolicy policy;
  policy.discount = StalenessDiscount::kPolynomial;
  policy.poly_exponent = 0.5;
  EXPECT_DOUBLE_EQ(policy.weight(0), 1.0);
  EXPECT_NEAR(policy.weight(3), 0.5, 1e-12);
  policy.discount = StalenessDiscount::kConstant;
  policy.constant_factor = 0.25;
  EXPECT_DOUBLE_EQ(policy.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(policy.weight(7), 0.25);
  EXPECT_THROW(AsyncFedAvg(AsyncConfig{0}), std::invalid_argument);
}

TEST(AsyncFedAvg, RejectsABadServerMixUnderEveryRule) {
  // The mixing rate and discount live on FLRunOptions::aggregation; the
  // averaging rules mix with them too, so they are checked for both.
  for (const char* rule : {"", "coordinate_median"}) {
    SCOPED_TRACE(rule);
    TinyWorld w = make_world(30);
    FLRunOptions opts = tiny_options(1);
    opts.aggregation.rule = rule;
    opts.aggregation.server_mix = 0.0;
    EXPECT_THROW(AsyncFedAvg().run(w.clients, w.factory, opts),
                 std::invalid_argument);
  }
}

TEST(AsyncFedAvg, AggregatesAndMetersRounds) {
  TinyWorld w = make_world(31);
  FLRunOptions opts = tiny_options(4);
  opts.trace = true;
  ChannelStats comm;
  SimReport report;
  opts.comm_stats = &comm;
  opts.sim_report = &report;
  AsyncConfig config;
  config.buffer_size = 2;
  AsyncFedAvg algo(config);
  std::vector<ModelParameters> finals = algo.run(w.clients, w.factory, opts);
  ASSERT_EQ(finals.size(), 3u);
  EXPECT_TRUE(finals[0].structurally_equal(finals[1]));
  // One channel round per aggregation.
  EXPECT_EQ(comm.rounds.size(), 4u);
  int aggregates = 0;
  for (const SimTraceEntry& e : report.trace) {
    if (e.kind == SimEventKind::kAggregate) ++aggregates;
  }
  EXPECT_EQ(aggregates, 4);
  EXPECT_GT(comm.uplink_messages, 0u);
  EXPECT_GT(report.total_time_s, 0.0);
}

TEST(AsyncFedAvg, BeatsSyncWallClockUnderStraggler) {
  const int rounds = 3;
  // Sync pays the 10x straggler every round...
  TinyWorld ws = make_world(32);
  FLRunOptions sync_opts = tiny_options(rounds);
  sync_opts.sim = SimConfig::with_straggler(3, 0, 10.0);
  sync_opts.sim.step_time_s = 1.0;
  SimReport sync_report;
  sync_opts.sim_report = &sync_report;
  FedAvg sync_algo;
  sync_algo.run(ws.clients, ws.factory, sync_opts);

  // ...async keeps aggregating from the two fast clients.
  TinyWorld wa = make_world(32);
  FLRunOptions async_opts = tiny_options(rounds);
  async_opts.sim = SimConfig::with_straggler(3, 0, 10.0);
  async_opts.sim.step_time_s = 1.0;
  SimReport async_report;
  async_opts.sim_report = &async_report;
  AsyncConfig config;
  config.buffer_size = 2;
  AsyncFedAvg async_algo(config);
  async_algo.run(wa.clients, wa.factory, async_opts);

  EXPECT_LT(async_report.total_time_s, 0.5 * sync_report.total_time_s);
}

TEST(AsyncFedAvg, DropoutLosesInFlightUpdateAndRecovers) {
  // First pass: find when client 0 first delivers.
  TinyWorld probe = make_world(33);
  FLRunOptions opts = tiny_options(3);
  opts.trace = true;
  SimReport report;
  opts.sim_report = &report;
  AsyncConfig config;
  config.buffer_size = 2;
  {
    AsyncFedAvg algo(config);
    algo.run(probe.clients, probe.factory, opts);
  }
  double first_delivery = -1.0;
  for (const SimTraceEntry& e : report.trace) {
    if (e.kind == SimEventKind::kUplinkDone && e.client == 0) {
      first_delivery = e.time;
      break;
    }
  }
  ASSERT_GT(first_delivery, 0.0);

  // Second pass: knock client 0 offline across that delivery moment —
  // the update must be dropped and retried after the window.
  TinyWorld w = make_world(33);
  opts.sim = SimConfig::uniform(3);
  opts.sim.profiles[0].offline.push_back(
      {first_delivery - 1e-9, first_delivery + 5.0});
  SimReport dropped_report;
  opts.sim_report = &dropped_report;
  AsyncFedAvg algo(config);
  std::vector<ModelParameters> finals = algo.run(w.clients, w.factory, opts);
  ASSERT_EQ(finals.size(), 3u);
  bool saw_drop = false;
  for (const SimTraceEntry& e : dropped_report.trace) {
    if (e.kind == SimEventKind::kDropped && e.client == 0) saw_drop = true;
  }
  EXPECT_TRUE(saw_drop);
}

TEST(AsyncFedAvg, ThrowsWhenEveryClientIsPermanentlyOffline) {
  TinyWorld w = make_world(34);
  FLRunOptions opts = tiny_options(2);
  opts.sim = SimConfig::uniform(3);
  const double forever = std::numeric_limits<double>::infinity();
  for (ClientProfile& p : opts.sim.profiles) p.offline.push_back({0.0,
                                                                  forever});
  AsyncFedAvg algo;
  EXPECT_THROW(algo.run(w.clients, w.factory, opts), std::runtime_error);
}

// --- aggregation guards (satellite) ----------------------------------

TEST(AggregationGuards, DescriptiveErrorsInsteadOfNaNs) {
  Rng rng(4);
  RoutabilityModelPtr model = make_model(ModelKind::kFLNet, 2, rng);
  const ModelParameters params = ModelParameters::from_model(*model);
  const WeightedAverage rule;
  auto two = [&](double w0, double w1) {
    return std::vector<AggregationInput>{{&params, w0, 0, 0},
                                         {&params, w1, 0, 1}};
  };

  // Empty cohort.
  EXPECT_THROW(rule.aggregate(params, {}), std::invalid_argument);
  // Zero total weight would divide by zero -> NaN parameters.
  EXPECT_THROW(rule.aggregate(params, two(0.0, 0.0)), std::invalid_argument);
  // Non-finite weights must not slip through the sign check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(rule.aggregate(params, two(nan, 1.0)), std::invalid_argument);
  EXPECT_THROW(rule.aggregate(
                   params, two(std::numeric_limits<double>::infinity(), 1.0)),
               std::invalid_argument);
}

// --- determinism across thread-pool sizes (satellite) ----------------

struct RunArtifacts {
  std::vector<SimTraceEntry> trace;
  std::vector<ModelParameters> finals;
  double total_time_s = 0.0;
};

bool bit_identical(const ModelParameters& a, const ModelParameters& b) {
  if (!a.structurally_equal(b)) return false;
  for (std::size_t n = 0; n < a.entries().size(); ++n) {
    if (!a.entries()[n].value.equals(b.entries()[n].value)) return false;
  }
  return true;
}

template <typename AlgoFactory>
RunArtifacts run_traced(AlgoFactory make_algo, std::size_t pool_size,
                        const SimConfig& sim) {
  ThreadPool::reset_global(pool_size);
  TinyWorld w = make_world(55);
  FLRunOptions opts = tiny_options(3);
  opts.trace = true;
  opts.sim = sim;
  SimReport report;
  opts.sim_report = &report;
  auto algo = make_algo();
  RunArtifacts artifacts;
  artifacts.finals = algo->run(w.clients, w.factory, opts);
  artifacts.trace = std::move(report.trace);
  artifacts.total_time_s = report.total_time_s;
  return artifacts;
}

void expect_identical(const RunArtifacts& a, const RunArtifacts& b) {
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_TRUE(a.trace[i] == b.trace[i])
        << "trace diverges at event " << i << ": t=" << a.trace[i].time
        << " vs t=" << b.trace[i].time;
  }
  ASSERT_EQ(a.finals.size(), b.finals.size());
  for (std::size_t k = 0; k < a.finals.size(); ++k) {
    EXPECT_TRUE(bit_identical(a.finals[k], b.finals[k])) << "client " << k;
  }
}

TEST(Determinism, SyncTraceAndParametersInvariantToPoolSize) {
  const SimConfig sim = SimConfig::heterogeneous(3, 11);
  auto factory = [] { return std::make_unique<FedAvg>(); };
  RunArtifacts one = run_traced(factory, 1, sim);
  RunArtifacts four = run_traced(factory, 4, sim);
  expect_identical(one, four);
  ThreadPool::reset_global(0);
}

// --- participation policies on the engine (tentpole) -----------------

TEST(SyncSchedule, AvailabilityAwareSkipsOfflineClientInsteadOfWaiting) {
  // Same scenario as OfflineClientDelaysRound, but with the
  // availability-aware policy the barrier no longer stalls until the
  // offline client's window ends — the round closes on the two
  // reachable clients.
  TinyWorld w = make_world(25);
  FLRunOptions opts = tiny_options(1);
  opts.sim = SimConfig::uniform(3);
  opts.sim.profiles[1].offline.push_back({0.0, 50.0});
  opts.participation.kind = ParticipationKind::kAvailabilityAware;
  SimReport report;
  opts.sim_report = &report;
  FedAvg algo;
  std::vector<ModelParameters> finals = algo.run(w.clients, w.factory, opts);
  ASSERT_EQ(finals.size(), 3u);
  EXPECT_GT(report.total_time_s, 0.0);
  EXPECT_LT(report.total_time_s, 50.0);
}

TEST(SyncSchedule, SampledRoundBillsAndSchedulesOnlyTheCohort) {
  auto run_with = [&](int sample_size, ChannelStats* comm) {
    TinyWorld w = make_world(26, /*num_clients=*/6);
    FLRunOptions opts = tiny_options(2);
    if (sample_size > 0) {
      opts.participation.kind = ParticipationKind::kUniformSample;
      opts.participation.sample_size = sample_size;
    }
    opts.comm_stats = comm;
    SimReport report;
    opts.sim_report = &report;
    FedAvg algo;
    algo.run(w.clients, w.factory, opts);
    return report;
  };

  ChannelStats sampled;
  const SimReport sampled_report = run_with(2, &sampled);
  ASSERT_EQ(sampled.rounds.size(), 2u);
  for (const RoundCommStats& r : sampled.rounds) {
    EXPECT_EQ(r.downlink_messages, 2u);  // C, not K
    EXPECT_EQ(r.uplink_messages, 2u);
  }
  // Per round: 3 events per cohort member + the barrier release.
  EXPECT_EQ(sampled_report.events_processed, 2u * (2u * 3u + 1u));

  ChannelStats full;
  run_with(0, &full);
  // fp32 both ways: every exchange has the same wire size, so bytes
  // scale exactly with the cohort size (K = 6 vs C = 2).
  EXPECT_EQ(full.downlink_bytes, 3 * sampled.downlink_bytes);
  EXPECT_EQ(full.uplink_bytes, 3 * sampled.uplink_bytes);
}

TEST(Determinism, SampledCohortTraceAndParametersInvariantToPoolSize) {
  auto run_with_pool = [](std::size_t pool) {
    ThreadPool::reset_global(pool);
    TinyWorld w = make_world(77, /*num_clients=*/4);
    FLRunOptions opts = tiny_options(3);
    opts.trace = true;
    opts.sim = SimConfig::heterogeneous(4, 9);
    opts.participation.kind = ParticipationKind::kUniformSample;
    opts.participation.sample_size = 2;
    SimReport report;
    opts.sim_report = &report;
    FedAvg algo;
    RunArtifacts artifacts;
    artifacts.finals = algo.run(w.clients, w.factory, opts);
    artifacts.trace = std::move(report.trace);
    artifacts.total_time_s = report.total_time_s;
    return artifacts;
  };
  RunArtifacts one = run_with_pool(1);
  RunArtifacts four = run_with_pool(4);
  expect_identical(one, four);
  ThreadPool::reset_global(0);
}

TEST(Determinism, AsyncTraceAndParametersInvariantToPoolSize) {
  SimConfig sim = SimConfig::with_straggler(3, 0, 4.0);
  add_periodic_dropout(sim, 1, 0.5, 5.0, 1.0, 4);
  auto factory = [] {
    AsyncConfig config;
    config.buffer_size = 2;
    return std::make_unique<AsyncFedAvg>(config);
  };
  RunArtifacts one = run_traced(factory, 1, sim);
  RunArtifacts three = run_traced(factory, 3, sim);
  expect_identical(one, three);
  ThreadPool::reset_global(0);
}

// --- O(threads) model memory at K = 1000 (tentpole) ------------------

TEST(ModelPoolScale, ThousandClientsHoldOThreadsModelInstances) {
  // 1000 clients sharing 9 tiny datasets and ONE scratch-model pool:
  // over construction, training, and evaluation the peak live
  // RoutabilityModel count must stay within threads + 1.
  std::vector<ClientDataset> shared_data;
  for (int d = 0; d < 9; ++d) {
    shared_data.push_back(make_synthetic_client(
        d + 1, 0.35f + 0.04f * static_cast<float>(d), 2000 + d));
  }
  ModelFactory factory = make_model_factory(ModelKind::kFLNet, 2);
  auto pool = std::make_shared<ModelPool>(factory);

  RoutabilityModel::reset_peak_instances();
  const std::int64_t base = RoutabilityModel::live_instances();

  Rng rng(4242);
  std::vector<Client> clients;
  clients.reserve(1000);
  for (std::size_t k = 0; k < 1000; ++k) {
    clients.emplace_back(static_cast<int>(k) + 1, &shared_data[k % 9],
                         pool, rng.fork(k));
  }

  FLRunOptions opts = tiny_options(2);
  opts.client.steps = 1;
  opts.participation.kind = ParticipationKind::kUniformSample;
  opts.participation.sample_size = 10;
  opts.participation.seed = 31337;
  FedAvg algo;
  std::vector<ModelParameters> finals = algo.run(clients, factory, opts);
  ASSERT_EQ(finals.size(), 1000u);
  const double auc = clients[0].evaluate_test_auc(finals[0]);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);

  const std::int64_t budget =
      static_cast<std::int64_t>(ThreadPool::global().size()) + 1;
  EXPECT_LE(RoutabilityModel::peak_instances() - base, budget);
  EXPECT_LE(static_cast<std::int64_t>(pool->resident()), budget);
}

// --- AsyncFedAvg max_in_flight dispatch gate (satellite) --------------

// Counts the maximum number of simultaneously in-flight clients in a
// trace (kDispatch opens a client's chain; its kUplinkDone / kDropped
// closes it). Closes without a matching open — e.g. the kDropped a
// permanently-offline client gets at dispatch time — are ignored so
// they cannot mask cap violations by driving the count negative.
int max_concurrent_in_flight(const std::vector<SimTraceEntry>& trace) {
  std::set<int> open;
  std::size_t peak = 0;
  for (const SimTraceEntry& e : trace) {
    if (e.client < 0) continue;
    if (e.kind == SimEventKind::kDispatch) {
      open.insert(e.client);
      peak = std::max(peak, open.size());
    } else if (e.kind == SimEventKind::kUplinkDone ||
               e.kind == SimEventKind::kDropped) {
      open.erase(e.client);
    }
  }
  return static_cast<int>(peak);
}

TEST(AsyncFedAvg, MaxInFlightCapIsRespectedAndRotatesTheFleet) {
  TinyWorld w = make_world(44, /*num_clients=*/6);
  FLRunOptions opts = tiny_options(4);
  opts.trace = true;
  SimReport report;
  opts.sim_report = &report;
  AsyncConfig config;
  config.buffer_size = 2;
  config.max_in_flight = 2;
  AsyncFedAvg algo(config);
  std::vector<ModelParameters> finals = algo.run(w.clients, w.factory, opts);
  ASSERT_EQ(finals.size(), 6u);

  EXPECT_LE(max_concurrent_in_flight(report.trace), 2);
  // The freed slots rotate FIFO through the fleet: more distinct
  // clients than the cap get dispatched over the run.
  std::set<int> dispatched;
  for (const SimTraceEntry& e : report.trace) {
    if (e.kind == SimEventKind::kDispatch) dispatched.insert(e.client);
  }
  EXPECT_GT(dispatched.size(), 2u);
}

TEST(AsyncFedAvg, MaxInFlightIsDeterministic) {
  auto run_once = [] {
    TinyWorld w = make_world(45, /*num_clients=*/5);
    FLRunOptions opts = tiny_options(3);
    opts.trace = true;
    opts.sim = SimConfig::heterogeneous(5, 13);
    SimReport report;
    opts.sim_report = &report;
    AsyncConfig config;
    config.buffer_size = 2;
    config.max_in_flight = 2;
    AsyncFedAvg algo(config);
    RunArtifacts artifacts;
    artifacts.finals = algo.run(w.clients, w.factory, opts);
    artifacts.trace = std::move(report.trace);
    artifacts.total_time_s = report.total_time_s;
    return artifacts;
  };
  expect_identical(run_once(), run_once());
}

TEST(AsyncFedAvg, UngatedRunMatchesCapAtFleetSize) {
  // cap = 0 (unlimited) and cap = K admit the same schedule: the gate
  // only changes behavior when it actually binds.
  auto run_with_cap = [](int cap) {
    TinyWorld w = make_world(46, /*num_clients=*/4);
    FLRunOptions opts = tiny_options(3);
    opts.trace = true;
    SimReport report;
    opts.sim_report = &report;
    AsyncConfig config;
    config.buffer_size = 2;
    config.max_in_flight = cap;
    AsyncFedAvg algo(config);
    RunArtifacts artifacts;
    artifacts.finals = algo.run(w.clients, w.factory, opts);
    artifacts.trace = std::move(report.trace);
    artifacts.total_time_s = report.total_time_s;
    return artifacts;
  };
  expect_identical(run_with_cap(0), run_with_cap(4));
}

TEST(AsyncFedAvg, RejectsNegativeMaxInFlight) {
  AsyncConfig config;
  config.max_in_flight = -1;
  EXPECT_THROW(AsyncFedAvg{config}, std::invalid_argument);
}

}  // namespace
}  // namespace fleda
