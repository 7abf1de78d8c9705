// Microbenchmark for the src/sim/ event engine.
//
// Part 1 measures raw event-loop throughput: a million timestamped
// no-op events pushed through EventQueue/SimClock, reported as
// events/sec of host time.
//
// Part 2 is the straggler demonstration from the ISSUE acceptance
// criteria: 9 synthetic clients, one of them computing 10x slower.
// Synchronous FedAvg pays the straggler every round; AsyncFedAvg
// (FedBuff-style buffer, polynomial staleness discount) keeps
// aggregating from the fast eight. The bench reports the simulated
// wall-clock each method needs to reach the sync run's final average
// AUC minus 0.01, and exits non-zero unless async gets there in at
// most half the sync run's simulated time.
//
// Part 3 is the thousand-client demonstration from the participation
// redesign: K = 1000 ClientProfiles sharing the 9 synthetic datasets,
// FedAvg with UniformSample{C = 20}. The gates check (a) the per-round
// cost is O(C), not O(K) — exactly 2C messages and 2C model-snapshots
// of bytes per round; (b) the sampled run replays bit-identically; and
// (c) memory is O(threads), not O(K) — client construction builds no
// model, and the scratch-model pool must keep the peak live
// RoutabilityModel count at threads + 1 or below for the whole
// thousand-client run.
//
// Part 4 is the Byzantine robustness demonstration: the same K = 1000
// federation with 10% sign-flip attackers in the fleet. Plain
// weighted_average lets the flipped deltas drag the global model away
// from (or explode past) the attack-free trajectory, while
// coordinate_median and trimmed_mean must finish within 0.02 AUC of
// the attack-free baseline. A poisoned run that trips the aggregation
// layer's NaN guard counts as diverged — loudly, which is the point of
// the guard.
//
// Part 6 is the adversarial arms race on the same fleet: multi_krum
// must track the clean trajectory under sign-flip, the server-side
// AnomalyDetector must reach 0.8 precision/recall against the oracle
// attacker set, reputation-weighted participation must win back at
// least half of the AUC plain weighted_average loses to uniform
// sampling, and the adaptive (tolerance-estimating) attacker must
// cost norm_clipped_mean at least 0.05 AUC more than the oblivious
// scaled attacker it out-smarts.
//
// Part 5 is the observability overhead gate: the same K = 1000
// federation run 51 times with the scoped profiler off and 51 times on,
// interleaved (off, on, off, on, ...) so host drift over the runs lands
// on both sides; each side reports its median. The instrumented side must
// sustain at least 95% of the uninstrumented events/sec, and every run
// must produce bit-identical finals — profiling is time-only, never
// part of the simulation state.
//
// Part 7 is the K = 100k streaming-federation demonstration: a fleet
// of O(1)-constructed clients (no client builds a model) running
// FedAvg rounds. The gate runs a C = 128 round then a C = 2048 round
// in the same process and requires the peak-RSS delta between them to
// stay flat — the server never materializes the cohort, so 16x the
// cohort must not cost 16x the update memory.
//
// Output is one JSON object per line, easy to diff/collect in CI, and
// the headline numbers are also written to BENCH_sim.json so future
// PRs can gate on perf regressions (the machine-readable trajectory).
// BENCH_sim.json also embeds the merged per-phase profile of the whole
// run (train/codec/aggregate/dispatch/pool breakdowns).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "comm/codec.hpp"
#include "fl/anomaly.hpp"
#include "fl/async_fedavg.hpp"
#include "fl/fedavg.hpp"
#include "fl/participation.hpp"
#include "fl/synthetic.hpp"
#include "models/pool.hpp"
#include "models/registry.hpp"
#include "obs/profiler.hpp"
#include "sim/event_queue.hpp"
#include "sim/profile.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fleda {
namespace {

// Peak resident set (VmHWM) in MB, or -1 where /proc is unavailable.
double peak_rss_mb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
#else
  return -1.0;
#endif
}

// FNV-1a over every tensor byte of the finals — a cheap cross-version
// fingerprint (the pooled implementation must reproduce the pre-pool
// traces bit-for-bit, and this makes that checkable from CI artifacts).
std::uint64_t finals_checksum(const std::vector<ModelParameters>& finals) {
  std::uint64_t h = 1469598103934665603ull;
  for (const ModelParameters& p : finals) {
    for (const ParameterEntry& e : p.entries()) {
      const unsigned char* bytes =
          reinterpret_cast<const unsigned char*>(e.value.data());
      const std::int64_t n = e.value.numel() *
                             static_cast<std::int64_t>(sizeof(float));
      for (std::int64_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

// --- part 1: event-loop throughput -----------------------------------

// `profiled` only labels the JSON line; the caller flips the profiler.
// No-op callbacks are the profiler's worst case (the sim/dispatch span
// is the entire event body), so the pair of lines bounds its cost.
double bench_event_loop(std::uint64_t num_events, bool profiled) {
  SimClock clock;
  EventQueue queue;
  Rng rng(7);
  std::uint64_t fired = 0;
  Timer timer;
  // Two waves of scheduling (half up front, half from inside events)
  // exercises both the bulk-push and the reentrant path.
  const std::uint64_t half = num_events / 2;
  for (std::uint64_t i = 0; i < half; ++i) {
    const double t = rng.uniform(0.0, 1e3);
    queue.schedule(t, [&fired, t, &queue, &clock] {
      ++fired;
      queue.schedule(t + 1e3, [&fired] { ++fired; });
      (void)clock;
    });
  }
  queue.run_all(clock, /*max_events=*/4 * num_events);
  const double seconds = timer.seconds();
  const double events_per_sec =
      static_cast<double>(queue.processed()) / seconds;
  std::printf(
      "{\"bench\":\"event_loop\",\"profiler\":%s,\"events\":%llu,"
      "\"events_per_sec\":%.0f}\n",
      profiled ? "true" : "false",
      static_cast<unsigned long long>(queue.processed()), events_per_sec);
  (void)fired;
  return events_per_sec;
}

// --- part 2: sync vs async under a 10x straggler ---------------------

constexpr std::size_t kClients = 9;

SyntheticWorld make_world(std::uint64_t seed) {
  SyntheticWorldOptions options;
  options.num_clients = kClients;
  options.threshold_base = 0.35f;
  options.threshold_step = 0.04f;
  return make_synthetic_world(seed, options);
}

double average_auc(std::vector<Client>& clients,
                   const std::vector<ModelParameters>& models) {
  double acc = 0.0;
  for (std::size_t k = 0; k < clients.size(); ++k) {
    acc += clients[k].evaluate_test_auc(models[k]);
  }
  return acc / static_cast<double>(clients.size());
}

struct Series {
  std::vector<double> time_s;  // cumulative simulated time per round
  std::vector<double> auc;     // average AUC after that round
  double total_time_s = 0.0;
};

// First simulated instant the series reaches `target` AUC; -1 if never.
double time_to_target(const Series& series, double target) {
  for (std::size_t i = 0; i < series.auc.size(); ++i) {
    if (series.auc[i] >= target) return series.time_s[i];
  }
  return -1.0;
}

FLRunOptions base_options(int rounds) {
  FLRunOptions opts;
  opts.rounds = rounds;
  opts.client.steps = 4;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 1e-3;
  opts.client.mu = 0.0;
  opts.seed = 99;
  // One 10x straggler among 9 clients; compute dominates the round.
  opts.sim = SimConfig::with_straggler(kClients, 0, 10.0);
  opts.sim.step_time_s = 0.5;
  return opts;
}

Series run_series(FederatedAlgorithm& algo, int rounds) {
  SyntheticWorld w = make_world(4242);
  FLRunOptions opts = base_options(rounds);
  ChannelStats comm;
  SimReport report;
  opts.comm_stats = &comm;
  opts.sim_report = &report;
  Series series;
  opts.on_round = [&](int, const std::vector<ModelParameters>& models) {
    series.auc.push_back(average_auc(w.clients, models));
  };
  algo.run(w.clients, w.factory, opts);
  double elapsed = 0.0;
  for (std::size_t i = 0; i < series.auc.size(); ++i) {
    if (i < comm.rounds.size()) elapsed += comm.rounds[i].simulated_latency_s;
    series.time_s.push_back(elapsed);
  }
  series.total_time_s = report.total_time_s;
  return series;
}

int bench_straggler() {
  const int sync_rounds = 10;
  FedAvg sync_algo;
  const Series sync = run_series(sync_algo, sync_rounds);
  const double final_auc = sync.auc.back();
  const double target = final_auc - 0.01;

  AsyncConfig config;
  config.buffer_size = 4;
  AsyncFedAvg async_algo(config);
  // Aggregation budget: enough buffered rounds to pass the target well
  // before the sync run's horizon.
  const Series async = run_series(async_algo, 5 * sync_rounds);

  const double t_sync = time_to_target(sync, target);
  const double t_async = time_to_target(async, target);
  const bool pass = t_async >= 0.0 && t_async <= 0.5 * sync.total_time_s;

  std::printf(
      "{\"bench\":\"straggler\",\"method\":\"sync\",\"final_auc\":%.4f,"
      "\"sim_time_s\":%.1f,\"time_to_target_s\":%.1f}\n",
      final_auc, sync.total_time_s, t_sync);
  std::printf(
      "{\"bench\":\"straggler\",\"method\":\"async\",\"final_auc\":%.4f,"
      "\"sim_time_s\":%.1f,\"time_to_target_s\":%.1f,"
      "\"target_auc\":%.4f,\"speedup_vs_sync_total\":%.2f,\"pass\":%s}\n",
      async.auc.back(), async.total_time_s, t_async, target,
      t_async > 0.0 ? sync.total_time_s / t_async : 0.0,
      pass ? "true" : "false");
  return pass ? 0 : 1;
}

// --- part 3: K = 1000 clients, C = 20 sampled per round --------------

struct ThousandOptions {
  std::size_t num_clients = 1000;
  int cohort = 20;
  int rounds = 3;
  int steps = 2;
  // Aggregation rule by registry name; empty = weighted_average.
  std::string rule;
  double trim_fraction = 0.2;
  int krum_f = 1;           // "krum" / "multi_krum"
  int krum_m = 0;           // "multi_krum"; 0 = auto (n - f - 2)
  double clip_norm = 0.0;   // > 0 overrides the "norm_clipped_mean" knob
  // Cohort selection (uniform by default; kReputationWeighted needs
  // `anomaly` so run() can build the detect->react loop).
  ParticipationKind participation = ParticipationKind::kUniformSample;
  // Server-side anomaly detection; `detector` optionally passes a
  // caller-owned instance so tallies survive the run, `reputation` a
  // caller-owned book (e.g. with a harsher penalty than the default).
  bool anomaly = false;
  AnomalyDetector* detector = nullptr;
  ReputationBook* reputation = nullptr;
  // Byzantine fraction of the fleet (attackers spread evenly).
  std::size_t attackers = 0;
  AttackSpec attack;
};

struct ThousandRun {
  std::vector<ModelParameters> finals;
  ChannelStats comm;
  SimReport report;
  // Average test AUC of the final global model over the 9 distinct
  // datasets (clients 0..8 cover each exactly once).
  double final_auc = 0.0;
  // A poisoned run may trip the aggregation layer's non-finite guard;
  // that is the loud failure mode the bench demonstrates.
  bool failed = false;
  std::string error;
};

// 9 shared synthetic datasets; client k trains on dataset k % 9 (the
// paper's data heterogeneity, scaled to thousands of participants).
const std::vector<ClientDataset>& nine_shared_datasets() {
  static const std::vector<ClientDataset> data = [] {
    std::vector<ClientDataset> d;
    for (int i = 0; i < 9; ++i) {
      d.push_back(make_synthetic_client(
          i + 1, 0.35f + 0.04f * static_cast<float>(i), 1000 + i));
    }
    return d;
  }();
  return data;
}

ThousandRun run_thousand(const ThousandOptions& t) {
  const std::vector<ClientDataset>& shared_data = nine_shared_datasets();

  ModelFactory factory = make_model_factory(ModelKind::kFLNet, 2);
  // One shared scratch pool for all thousand clients: the run holds
  // O(threads) live model instances, not O(K).
  auto pool = std::make_shared<ModelPool>(factory);
  Rng rng(4242);
  std::vector<Client> clients;
  clients.reserve(t.num_clients);
  for (std::size_t k = 0; k < t.num_clients; ++k) {
    clients.emplace_back(static_cast<int>(k) + 1, &shared_data[k % 9],
                         pool, rng.fork(k));
  }

  FLRunOptions opts;
  opts.rounds = t.rounds;
  opts.client.steps = t.steps;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 1e-3;
  opts.client.mu = 0.0;
  opts.seed = 99;
  opts.participation.kind = t.participation;
  opts.participation.sample_size = t.cohort;
  opts.participation.seed = 31337;
  opts.aggregation.rule = t.rule;
  opts.aggregation.trim_fraction = t.trim_fraction;
  opts.aggregation.krum_f = t.krum_f;
  opts.aggregation.krum_m = t.krum_m;
  if (t.clip_norm > 0.0) opts.aggregation.clip_norm = t.clip_norm;
  opts.anomaly.enabled = t.anomaly;
  opts.detector = t.detector;
  opts.reputation = t.reputation;
  opts.sim = SimConfig::heterogeneous(t.num_clients, /*seed=*/5);
  if (t.attackers > 0) add_attackers(opts.sim, t.attackers, t.attack);

  ThousandRun run;
  opts.comm_stats = &run.comm;
  opts.sim_report = &run.report;
  FedAvg algo;
  try {
    run.finals = algo.run(clients, factory, opts);
  } catch (const std::exception& e) {
    run.failed = true;
    run.error = e.what();
    return run;
  }
  double auc = 0.0;
  for (std::size_t k = 0; k < 9; ++k) {
    auc += clients[k].evaluate_test_auc(run.finals[k]);
  }
  run.final_auc = auc / 9.0;
  if (!std::isfinite(run.final_auc)) {
    // A blown-up global model can score NaN; report it as a failure
    // with auc 0 so the JSON stays parseable and the gate sees
    // "diverged".
    run.failed = true;
    run.error = "non-finite final AUC (global model diverged)";
    run.final_auc = 0.0;
  }
  return run;
}

bool bit_identical_params(const ModelParameters& a, const ModelParameters& b) {
  if (!a.structurally_equal(b)) return false;
  for (std::size_t n = 0; n < a.entries().size(); ++n) {
    if (!a.entries()[n].value.equals(b.entries()[n].value)) return false;
  }
  return true;
}

// Headline numbers collected across the parts for BENCH_sim.json.
struct SimBenchSummary {
  // Raw-loop throughput with the profiler off — the engine itself,
  // comparable against pre-profiler trajectory artifacts — and with it
  // on (every event body wrapped in a sim/dispatch span).
  double events_per_sec = 0.0;
  double events_per_sec_profiled = 0.0;
  double thousand_host_s = 0.0;
  double thousand_round_host_ms = 0.0;
  double thousand_sim_time_s = 0.0;
  std::uint64_t thousand_bytes_per_round = 0;
  std::int64_t peak_model_instances = 0;
  std::int64_t model_instance_budget = 0;
  std::uint64_t finals_fingerprint = 0;
  double rss_mb = -1.0;
  // Part 4: Byzantine robustness trajectory.
  std::size_t byz_clients = 0;
  int byz_cohort = 0;
  const char* byz_attack = "none";
  std::size_t byz_attackers = 0;
  double byz_tolerance = 0.0;
  double byz_clean_auc = 0.0;
  double byz_weighted_average_auc = 0.0;
  bool byz_weighted_average_diverged = false;
  double byz_coordinate_median_auc = 0.0;
  double byz_trimmed_mean_auc = 0.0;
  bool byz_pass = false;
  // Part 6: adversarial arms race (defenses vs smarter attackers).
  double ar_multi_krum_auc = 0.0;
  bool ar_multi_krum_tracks = false;
  double ar_detector_precision = 0.0;
  double ar_detector_recall = 0.0;
  double ar_reputation_auc = 0.0;
  double ar_reputation_recovered = 0.0;  // fraction of the wa gap won back
  double ar_clip_norm = 0.0;             // calibrated norm_clipped_mean knob
  double ar_oblivious_clip_auc = 0.0;    // kScaled vs norm_clipped_mean
  double ar_adaptive_clip_auc = 0.0;     // kAdaptiveScaled vs the same rule
  double ar_adaptive_gap = 0.0;          // oblivious - adaptive AUC
  bool ar_pass = false;
  // Part 5: profiler overhead on the K = 1000 federation.
  double prof_disabled_eps = 0.0;   // sim events/sec, profiler off
  double prof_enabled_eps = 0.0;    // sim events/sec, profiler on
  double prof_overhead_pct = 0.0;   // (off/on - 1) * 100
  bool prof_fingerprints_match = false;
  bool prof_pass = false;
  int distinct_phases = 0;          // phases with count > 0 in the report
  // Part 7: K = 100k streaming federation (flat-memory gate).
  double hk_construct_s = 0.0;      // fleet construction
  double hk_events_per_sec = 0.0;   // large-cohort round throughput
  double hk_small_hwm_mb = -1.0;    // VmHWM after the C = 128 round
  double hk_large_hwm_mb = -1.0;    // VmHWM after the C = 2048 round
  double hk_delta_mb = 0.0;         // large - small (flat-RSS gate)
  bool hk_pass = false;
};

int bench_thousand_clients(SimBenchSummary* summary) {
  constexpr std::size_t kK = 1000;
  constexpr int kCohort = 20;
  constexpr int kRounds = 3;
  ThousandOptions topts;
  topts.num_clients = kK;
  topts.cohort = kCohort;
  topts.rounds = kRounds;

  // O(threads) memory gate: the pooled run (client construction
  // included) may never hold more live models than pool workers + the
  // caller.
  RoutabilityModel::reset_peak_instances();
  const std::int64_t budget =
      static_cast<std::int64_t>(ThreadPool::global().size()) + 1;

  Timer timer;
  const ThousandRun first = run_thousand(topts);
  const double host_s = timer.seconds();
  const std::int64_t peak_models = RoutabilityModel::peak_instances();
  const bool o_threads_memory = peak_models <= budget;

  const ThousandRun replay = run_thousand(topts);
  if (first.failed || replay.failed) {
    std::printf(
        "{\"bench\":\"thousand_clients\",\"pass\":false,\"error\":\"%s\"}\n",
        (first.failed ? first.error : replay.error).c_str());
    return 1;
  }

  // O(C) gate: every round bills exactly C deployments down and C
  // updates up, each a full fp32 model snapshot.
  const std::uint64_t model_bytes = raw_wire_bytes(first.finals.front());
  bool o_c_billing = first.comm.rounds.size() ==
                     static_cast<std::size_t>(kRounds);
  std::uint64_t bytes_per_round = 0;
  for (const RoundCommStats& r : first.comm.rounds) {
    o_c_billing = o_c_billing && r.downlink_messages == kCohort &&
                  r.uplink_messages == kCohort &&
                  r.downlink_bytes == kCohort * model_bytes &&
                  r.uplink_bytes == kCohort * model_bytes;
    bytes_per_round = r.downlink_bytes + r.uplink_bytes;
  }

  // Determinism gate: a replay with the same seeds is bit-identical.
  bool deterministic = first.finals.size() == replay.finals.size() &&
                       first.report.total_time_s == replay.report.total_time_s;
  deterministic = deterministic &&
                  bit_identical_params(first.finals.front(),
                                       replay.finals.front());

  const bool pass = o_c_billing && deterministic && o_threads_memory;
  const std::uint64_t fingerprint = finals_checksum({first.finals.front()});
  std::printf(
      "{\"bench\":\"thousand_clients\",\"clients\":%zu,\"cohort\":%d,"
      "\"rounds\":%d,\"bytes_per_round\":%llu,\"model_bytes\":%llu,"
      "\"sim_time_s\":%.1f,\"host_time_s\":%.1f,"
      "\"peak_model_instances\":%lld,\"model_instance_budget\":%lld,"
      "\"o_c_billing\":%s,\"o_threads_memory\":%s,"
      "\"deterministic\":%s,\"finals_fingerprint\":\"%016llx\",\"pass\":%s}\n",
      kK, kCohort, kRounds,
      static_cast<unsigned long long>(bytes_per_round),
      static_cast<unsigned long long>(model_bytes),
      first.report.total_time_s, host_s,
      static_cast<long long>(peak_models), static_cast<long long>(budget),
      o_c_billing ? "true" : "false", o_threads_memory ? "true" : "false",
      deterministic ? "true" : "false",
      static_cast<unsigned long long>(fingerprint), pass ? "true" : "false");

  if (summary != nullptr) {
    summary->thousand_host_s = host_s;
    summary->thousand_round_host_ms = host_s * 1e3 / kRounds;
    summary->thousand_sim_time_s = first.report.total_time_s;
    summary->thousand_bytes_per_round = bytes_per_round;
    summary->peak_model_instances = peak_models;
    summary->model_instance_budget = budget;
    summary->finals_fingerprint = fingerprint;
  }
  return pass ? 0 : 1;
}

// --- part 4: Byzantine clients vs robust aggregation -----------------

int bench_byzantine(SimBenchSummary* summary) {
  // K = 1000 fleet, C = 20 sampled per round, f = 10% sign-flip
  // attackers magnifying their reversed delta 10x — each sampled
  // attacker pulls the average a full honest-cohort step backwards.
  ThousandOptions base;
  base.rounds = 32;
  base.steps = 4;
  base.attack.kind = AttackKind::kSignFlip;
  base.attack.scale = 10.0;
  constexpr std::size_t kAttackers = 100;
  constexpr double kTolerance = 0.02;

  ThousandOptions clean = base;  // attack-free weighted_average baseline
  ThousandOptions poisoned_wa = base;
  poisoned_wa.attackers = kAttackers;
  ThousandOptions poisoned_median = poisoned_wa;
  poisoned_median.rule = "coordinate_median";
  ThousandOptions poisoned_trimmed = poisoned_wa;
  poisoned_trimmed.rule = "trimmed_mean";  // trims 4 of each tail at C=20

  const ThousandRun r_clean = run_thousand(clean);
  const ThousandRun r_wa = run_thousand(poisoned_wa);
  const ThousandRun r_median = run_thousand(poisoned_median);
  const ThousandRun r_trimmed = run_thousand(poisoned_trimmed);

  // The robust rules must track the attack-free trajectory; plain
  // weighted_average must not (either it drifts past the tolerance or
  // it blows up into the aggregation layer's non-finite guard — the
  // loud failure this PR's bugfix installs).
  const bool clean_ok = !r_clean.failed;
  const bool wa_diverged =
      r_wa.failed || std::abs(r_wa.final_auc - r_clean.final_auc) > kTolerance;
  const bool median_tracks =
      !r_median.failed &&
      std::abs(r_median.final_auc - r_clean.final_auc) <= kTolerance;
  const bool trimmed_tracks =
      !r_trimmed.failed &&
      std::abs(r_trimmed.final_auc - r_clean.final_auc) <= kTolerance;
  const bool pass = clean_ok && wa_diverged && median_tracks && trimmed_tracks;

  std::printf(
      "{\"bench\":\"byzantine\",\"clients\":%zu,\"cohort\":%d,\"rounds\":%d,"
      "\"attackers\":%zu,\"attack\":\"%s\",\"attack_scale\":%.1f,"
      "\"clean_auc\":%.4f,\"weighted_average_auc\":%.4f,"
      "\"weighted_average_diverged\":%s,\"coordinate_median_auc\":%.4f,"
      "\"trimmed_mean_auc\":%.4f,\"tolerance\":%.3f,\"pass\":%s}\n",
      base.num_clients, base.cohort, base.rounds, kAttackers,
      to_string(base.attack.kind), base.attack.scale, r_clean.final_auc,
      r_wa.final_auc, wa_diverged ? "true" : "false", r_median.final_auc,
      r_trimmed.final_auc, kTolerance, pass ? "true" : "false");
  if (r_wa.failed) {
    std::printf(
        "{\"bench\":\"byzantine\",\"note\":\"weighted_average run aborted by "
        "the aggregation guard\",\"error\":\"%s\"}\n",
        r_wa.error.c_str());
  }

  if (summary != nullptr) {
    summary->byz_clients = base.num_clients;
    summary->byz_cohort = base.cohort;
    summary->byz_attack = to_string(base.attack.kind);
    summary->byz_attackers = kAttackers;
    summary->byz_tolerance = kTolerance;
    summary->byz_clean_auc = r_clean.final_auc;
    summary->byz_weighted_average_auc = r_wa.final_auc;
    summary->byz_weighted_average_diverged = wa_diverged;
    summary->byz_coordinate_median_auc = r_median.final_auc;
    summary->byz_trimmed_mean_auc = r_trimmed.final_auc;
    summary->byz_pass = pass;
  }
  return pass ? 0 : 1;
}

// --- part 6: adversarial arms race -----------------------------------

// Defenses vs smarter attackers on the part-4 fleet (K = 1000, C = 20,
// 10% attackers, 32 rounds). Reuses part 4's clean weighted_average
// AUC from the summary as the multi_krum target, then adds:
//   multi_krum   — distance-based selection must track the clean
//                  trajectory under the 10x sign-flip (within 0.02);
//   detection    — the AnomalyDetector must reach >= 0.8 precision AND
//                  >= 0.8 recall on the stock sign-flip scenario
//                  (per-scoring-event, against the oracle attacker set);
//   reputation   — reputation_weighted sampling under plain
//                  weighted_average must win back at least half of the
//                  AUC gap the uniform-sampled poisoned run loses;
//   adaptive     — kAdaptiveScaled (reversed delta sized to the
//                  estimated tolerance) must cost norm_clipped_mean at
//                  least 0.05 AUC more than the oblivious kScaled
//                  attacker, whose oversized update the clip neuters.
// The clip knob is calibrated from a short clean probe: clip_norm =
// 5x the detector's EMA of cohort median delta norms — deliberately
// looser than AnomalyConfig::norm_factor's 3x flagging threshold, the
// way production clips are set so honest heterogeneity tails are never
// trimmed. That slack is exactly what the adaptive attacker farms.
int bench_arms_race(SimBenchSummary* summary) {
  ThousandOptions base;
  base.rounds = 32;
  base.steps = 4;
  base.attack.kind = AttackKind::kSignFlip;
  base.attack.scale = 10.0;
  base.attackers = 100;
  constexpr double kTolerance = 0.02;

  const double clean_auc = summary->byz_clean_auc;

  // multi_krum{f=4, m=10}: selection over n - f - 2 = 14 nearest
  // neighbors at C = 20, averaging the 10 lowest-scored — attackers
  // would need an 11-of-20 cohort majority to reach the model.
  ThousandOptions krum = base;
  krum.rule = "multi_krum";
  krum.krum_f = 4;
  krum.krum_m = 10;
  const ThousandRun r_krum = run_thousand(krum);
  const bool krum_tracks =
      !r_krum.failed && std::abs(r_krum.final_auc - clean_auc) <= kTolerance;

  // Detection precision/recall on the stock sign-flip run. The rule is
  // trimmed_mean so the run survives to score all 32 cohorts; the
  // detector is a pure observer, so the rule choice cannot change what
  // it sees. Ground truth comes from rebuilding the same deterministic
  // attacker layout the run used.
  AnomalyDetector detector{[] {
    AnomalyConfig config;
    config.enabled = true;
    return config;
  }()};
  ThousandOptions det = base;
  det.rule = "trimmed_mean";
  det.anomaly = true;
  det.detector = &detector;
  const ThousandRun r_det = run_thousand(det);
  SimConfig truth = SimConfig::heterogeneous(base.num_clients, /*seed=*/5);
  add_attackers(truth, base.attackers, base.attack);
  double tp = 0.0, fp = 0.0, fn = 0.0;
  for (std::size_t k = 0; k < base.num_clients; ++k) {
    const bool is_attacker = truth.profile(k).attack.kind != AttackKind::kNone;
    const double flags = static_cast<double>(detector.flagged(k));
    const double scored = static_cast<double>(detector.scored(k));
    if (is_attacker) {
      tp += flags;
      fn += scored - flags;
    } else {
      fp += flags;
    }
  }
  const double precision = tp / std::max(tp + fp, 1.0);
  const double recall = tp / std::max(tp + fn, 1.0);
  const bool detect_ok =
      !r_det.failed && precision >= 0.8 && recall >= 0.8;

  // Reputation-weighted sampling under the same weighted_average the
  // uniform run lost with: detector flags feed the book, flagged
  // clients fall toward the weight floor, and late rounds are nearly
  // attacker-free. The loop is coverage-limited — an attacker poisons
  // at least once before its first verdict — so the trio (clean /
  // uniform / reputation, sharing every other knob) runs at C = 50,
  // where the detector meets the whole 100-attacker pool well inside
  // the horizon, and the book's first flag drops a client straight to
  // the weight floor: one verdict benches an attacker for the run.
  ThousandOptions rep_base = base;
  rep_base.cohort = 50;
  ThousandOptions rep_clean = rep_base;
  rep_clean.attackers = 0;
  ThousandOptions rep_uniform = rep_base;
  ReputationBook book{[] {
    ReputationConfig config;
    config.flag_penalty = config.floor;  // one flag -> the floor
    return config;
  }()};
  ThousandOptions rep = rep_base;
  rep.participation = ParticipationKind::kReputationWeighted;
  rep.anomaly = true;
  rep.reputation = &book;
  const ThousandRun r_rep_clean = run_thousand(rep_clean);
  const ThousandRun r_rep_uniform = run_thousand(rep_uniform);
  const ThousandRun r_rep = run_thousand(rep);
  const double rep_clean_auc = r_rep_clean.final_auc;
  const double rep_uniform_auc = r_rep_uniform.final_auc;
  const double wa_gap = rep_clean_auc - rep_uniform_auc;
  const double recovered =
      wa_gap > 0.0 ? (r_rep.final_auc - rep_uniform_auc) / wa_gap : 0.0;
  const bool rep_ok =
      !r_rep_clean.failed && !r_rep.failed && wa_gap > 0.0 && recovered >= 0.5;

  // Adaptive vs oblivious against norm_clipped_mean. Calibrate the
  // clip from a short clean probe, then run the oblivious 10x-scaled
  // attacker (its inflated update is clipped back to an honest-sized
  // step in the honest direction) and the adaptive one (reversed delta
  // sized to its tolerance estimate — inside the clip, fully counted).
  // The pair runs a mid-training horizon: the adaptive attack is a
  // convergence-rate tax (it cancels part of every cohort step), so the
  // AUC separation is widest before both trajectories plateau.
  AnomalyDetector probe{[] {
    AnomalyConfig config;
    config.enabled = true;
    return config;
  }()};
  ThousandOptions probe_opts;
  probe_opts.rounds = 4;
  probe_opts.steps = base.steps;
  probe_opts.anomaly = true;
  probe_opts.detector = &probe;
  const ThousandRun r_probe = run_thousand(probe_opts);
  const double clip = 5.0 * probe.baseline_norm();

  ThousandOptions oblivious = base;
  oblivious.rounds = 8;
  oblivious.rule = "norm_clipped_mean";
  oblivious.clip_norm = clip;
  oblivious.attack.kind = AttackKind::kScaled;
  oblivious.attack.scale = 10.0;
  ThousandOptions adaptive = oblivious;
  adaptive.attack.kind = AttackKind::kAdaptiveScaled;
  // The tolerance estimate is an EMA of the global step, which the
  // attack itself shrinks as it bites; 8x that self-dampened estimate
  // keeps the reversed delta pinned at the clip allowance instead of
  // fading with its own success (the rule clips any overshoot back to
  // the allowance, so the attacker loses nothing by aiming high).
  adaptive.attack.scale = 8.0;
  const ThousandRun r_oblivious = run_thousand(oblivious);
  const ThousandRun r_adaptive = run_thousand(adaptive);
  const double adaptive_gap = r_oblivious.final_auc - r_adaptive.final_auc;
  const bool adaptive_ok = !r_probe.failed && clip > 0.0 &&
                           !r_oblivious.failed && !r_adaptive.failed &&
                           adaptive_gap >= 0.05;

  const bool pass = krum_tracks && detect_ok && rep_ok && adaptive_ok;
  std::printf(
      "{\"bench\":\"arms_race\",\"clients\":%zu,\"cohort\":%d,\"rounds\":%d,"
      "\"attackers\":%zu,\"multi_krum_auc\":%.4f,\"multi_krum_tracks\":%s,"
      "\"detector_precision\":%.4f,\"detector_recall\":%.4f,"
      "\"reputation_cohort\":%d,\"reputation_clean_auc\":%.4f,"
      "\"reputation_uniform_auc\":%.4f,\"reputation_auc\":%.4f,"
      "\"reputation_recovered\":%.3f,"
      "\"clip_norm\":%.4f,\"clip_rounds\":%d,\"oblivious_clip_auc\":%.4f,"
      "\"adaptive_clip_auc\":%.4f,\"adaptive_gap\":%.4f,\"pass\":%s}\n",
      base.num_clients, base.cohort, base.rounds, base.attackers,
      r_krum.final_auc, krum_tracks ? "true" : "false", precision, recall,
      rep_base.cohort, rep_clean_auc, rep_uniform_auc, r_rep.final_auc,
      recovered, clip, oblivious.rounds, r_oblivious.final_auc,
      r_adaptive.final_auc, adaptive_gap, pass ? "true" : "false");

  if (summary != nullptr) {
    summary->ar_multi_krum_auc = r_krum.final_auc;
    summary->ar_multi_krum_tracks = krum_tracks;
    summary->ar_detector_precision = precision;
    summary->ar_detector_recall = recall;
    summary->ar_reputation_auc = r_rep.final_auc;
    summary->ar_reputation_recovered = recovered;
    summary->ar_clip_norm = clip;
    summary->ar_oblivious_clip_auc = r_oblivious.final_auc;
    summary->ar_adaptive_clip_auc = r_adaptive.final_auc;
    summary->ar_adaptive_gap = adaptive_gap;
    summary->ar_pass = pass;
  }
  return pass ? 0 : 1;
}

// --- part 5: profiler overhead on the K = 1000 federation ------------

// One timed run of the standard thousand-client federation in the
// given profiler mode: simulated events per host second (0 if the run
// failed, which fails the gate loudly downstream) and the fingerprint
// of its finals.
struct TimedThousand {
  double events_per_sec = 0.0;
  std::uint64_t fingerprint = 0;
};

TimedThousand time_thousand(bool profiler_enabled) {
  Profiler::set_enabled(profiler_enabled);
  Timer timer;
  const ThousandRun run = run_thousand(ThousandOptions{});
  const double seconds = timer.seconds();
  if (run.failed) return {};
  return {static_cast<double>(run.report.events_processed) / seconds,
          finals_checksum({run.finals.front()})};
}

// A run takes ~70 ms and single runs scatter by ~10% on a shared
// 4-vCPU VM; with 15 runs per side the medians still crossed 5% in 1
// of 5 bench runs, so the gate takes 51 per side (~7 s in all).
constexpr std::size_t kOverheadPairs = 51;

double median(std::array<double, kOverheadPairs> values) {
  std::sort(values.begin(), values.end());
  return values[kOverheadPairs / 2];
}

int bench_profiler_overhead(SimBenchSummary* summary) {
  // Interleaved pairs, medians per side: neither a hiccup nor a slow
  // stretch of the host can read as profiler overhead.
  std::array<double, kOverheadPairs> disabled{};
  std::array<double, kOverheadPairs> enabled{};
  std::uint64_t fp_disabled = 0;
  bool fingerprints_match = true;
  for (std::size_t i = 0; i < disabled.size(); ++i) {
    const TimedThousand off = time_thousand(false);
    const TimedThousand on = time_thousand(true);
    disabled[i] = off.events_per_sec;
    enabled[i] = on.events_per_sec;
    if (i == 0) fp_disabled = off.fingerprint;
    fingerprints_match = fingerprints_match &&
                         off.fingerprint == fp_disabled &&
                         on.fingerprint == fp_disabled;
  }
  fingerprints_match = fingerprints_match && fp_disabled != 0;
  // Leaves the profiler on for the rest of the process (the embedded
  // per-phase report wants the instrumented mode).
  const double eps_disabled = median(disabled);
  const double eps_enabled = median(enabled);

  const double overhead_pct =
      eps_enabled > 0.0 ? (eps_disabled / eps_enabled - 1.0) * 100.0 : 1e9;
  const bool within_budget = eps_enabled >= 0.95 * eps_disabled;
  const bool pass = fingerprints_match && within_budget;

  std::printf(
      "{\"bench\":\"profiler_overhead\",\"disabled_events_per_sec\":%.0f,"
      "\"enabled_events_per_sec\":%.0f,\"overhead_pct\":%.2f,"
      "\"fingerprints_match\":%s,\"within_5pct\":%s,\"pass\":%s}\n",
      eps_disabled, eps_enabled, overhead_pct,
      fingerprints_match ? "true" : "false", within_budget ? "true" : "false",
      pass ? "true" : "false");

  if (summary != nullptr) {
    summary->prof_disabled_eps = eps_disabled;
    summary->prof_enabled_eps = eps_enabled;
    summary->prof_overhead_pct = overhead_pct;
    summary->prof_fingerprints_match = fingerprints_match;
    summary->prof_pass = pass;
  }
  return pass ? 0 : 1;
}

// --- part 7: K = 100k streaming federation ---------------------------

// The million-client architecture, demonstrated at K = 100k on the
// bench budget: O(1) client construction (no client builds a model,
// so building the fleet is O(K) cheap struct work, not O(K) model
// constructions) and the round body, which folds each decoded upload
// into per-lane weighted_average accumulators instead of materializing
// the cohort. The flat-memory gate runs a C = 128 round first, then a
// 16x larger C = 2048 round in the same process: VmHWM is monotone, so
// the second round's peak-RSS delta is exactly what the bigger cohort
// cost the server — it must stay within a fixed margin instead of
// growing with C x model size.
int bench_hundred_k(SimBenchSummary* summary) {
  constexpr std::size_t kK = 100'000;
  constexpr int kSmallCohort = 128;
  constexpr int kLargeCohort = 2048;
  constexpr double kFlatMarginMb = 32.0;

  const std::vector<ClientDataset>& shared_data = nine_shared_datasets();
  ModelFactory factory = make_model_factory(ModelKind::kFLNet, 2);
  auto pool = std::make_shared<ModelPool>(factory);
  Rng rng(4242);
  Timer construct_timer;
  std::vector<Client> clients;
  clients.reserve(kK);
  for (std::size_t k = 0; k < kK; ++k) {
    clients.emplace_back(static_cast<int>(k) + 1, &shared_data[k % 9], pool,
                         rng.fork(k));
  }
  const double construct_s = construct_timer.seconds();

  FLRunOptions opts;
  opts.rounds = 1;
  opts.client.steps = 1;
  opts.client.batch_size = 2;
  opts.client.learning_rate = 1e-3;
  opts.client.mu = 0.0;
  opts.seed = 99;
  opts.participation.kind = ParticipationKind::kUniformSample;
  opts.participation.seed = 31337;
  opts.sim = SimConfig::heterogeneous(kK, /*seed=*/5);

  FedAvg algo;
  bool failed = false;
  std::string error;
  SimReport report;
  auto run_once = [&](int cohort) {
    opts.participation.sample_size = cohort;
    opts.sim_report = &report;
    Timer timer;
    try {
      algo.run(clients, factory, opts);
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    return timer.seconds();
  };
  run_once(kSmallCohort);
  const double hwm_small = peak_rss_mb();
  const double large_host_s = run_once(kLargeCohort);
  const double hwm_large = peak_rss_mb();

  const double delta_mb =
      (hwm_small >= 0.0 && hwm_large >= 0.0) ? hwm_large - hwm_small : 0.0;
  // No /proc (hwm < 0): the memory gate is unobservable, don't fail it.
  const bool flat_rss = hwm_small < 0.0 || delta_mb <= kFlatMarginMb;
  const double events_per_sec =
      large_host_s > 0.0
          ? static_cast<double>(report.events_processed) / large_host_s
          : 0.0;
  const bool pass = !failed && flat_rss && events_per_sec > 0.0;

  std::printf(
      "{\"bench\":\"hundred_k\",\"clients\":%zu,\"small_cohort\":%d,"
      "\"large_cohort\":%d,\"construct_s\":%.3f,\"events_per_sec\":%.0f,"
      "\"small_peak_rss_mb\":%.1f,\"large_peak_rss_mb\":%.1f,"
      "\"delta_mb\":%.1f,\"flat_margin_mb\":%.1f,\"flat_rss\":%s,"
      "\"pass\":%s}\n",
      kK, kSmallCohort, kLargeCohort, construct_s, events_per_sec, hwm_small,
      hwm_large, delta_mb, kFlatMarginMb, flat_rss ? "true" : "false",
      pass ? "true" : "false");
  if (failed) {
    std::printf("{\"bench\":\"hundred_k\",\"error\":\"%s\"}\n",
                error.c_str());
  }

  if (summary != nullptr) {
    summary->hk_construct_s = construct_s;
    summary->hk_events_per_sec = events_per_sec;
    summary->hk_small_hwm_mb = hwm_small;
    summary->hk_large_hwm_mb = hwm_large;
    summary->hk_delta_mb = delta_mb;
    summary->hk_pass = pass;
  }
  return pass ? 0 : 1;
}

// The machine-readable perf trajectory: one JSON object per run, so a
// future PR can diff events/sec, round time, and the memory budget
// against this one's CI artifact.
void write_bench_json(const SimBenchSummary& summary,
                      const ProfileReport& profile) {
  std::FILE* f = std::fopen("BENCH_sim.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_sim: cannot write BENCH_sim.json\n");
    return;
  }
  std::fprintf(
      f,
      "{\"bench\":\"micro_sim\",\"events_per_sec\":%.0f,"
      "\"events_per_sec_profiled\":%.0f,"
      "\"thousand_clients\":{\"clients\":1000,\"cohort\":20,\"rounds\":3,"
      "\"host_time_s\":%.3f,\"round_host_ms\":%.1f,\"sim_time_s\":%.3f,"
      "\"bytes_per_round\":%llu,\"peak_model_instances\":%lld,"
      "\"model_instance_budget\":%lld,"
      "\"finals_fingerprint\":\"%016llx\"},"
      "\"byzantine\":{\"clients\":%zu,\"cohort\":%d,\"attackers\":%zu,"
      "\"attack\":\"%s\",\"tolerance\":%.3f,\"clean_auc\":%.4f,"
      "\"weighted_average_auc\":%.4f,\"weighted_average_diverged\":%s,"
      "\"coordinate_median_auc\":%.4f,\"trimmed_mean_auc\":%.4f,"
      "\"pass\":%s},"
      "\"arms_race\":{\"multi_krum_auc\":%.4f,\"multi_krum_tracks\":%s,"
      "\"detector_precision\":%.4f,\"detector_recall\":%.4f,"
      "\"reputation_auc\":%.4f,\"reputation_recovered\":%.3f,"
      "\"clip_norm\":%.4f,\"oblivious_clip_auc\":%.4f,"
      "\"adaptive_clip_auc\":%.4f,\"adaptive_gap\":%.4f,\"pass\":%s},"
      "\"profiler_overhead\":{\"disabled_events_per_sec\":%.0f,"
      "\"enabled_events_per_sec\":%.0f,\"overhead_pct\":%.2f,"
      "\"fingerprints_match\":%s,\"pass\":%s},"
      "\"hundred_k\":{\"clients\":100000,\"small_cohort\":128,"
      "\"large_cohort\":2048,\"construct_s\":%.3f,\"events_per_sec\":%.0f,"
      "\"small_peak_rss_mb\":%.1f,\"large_peak_rss_mb\":%.1f,"
      "\"delta_mb\":%.1f,\"pass\":%s},"
      "\"distinct_phases\":%d,\"profile\":%s,"
      "\"threads\":%zu,\"peak_rss_mb\":%.1f}\n",
      summary.events_per_sec, summary.events_per_sec_profiled,
      summary.thousand_host_s,
      summary.thousand_round_host_ms, summary.thousand_sim_time_s,
      static_cast<unsigned long long>(summary.thousand_bytes_per_round),
      static_cast<long long>(summary.peak_model_instances),
      static_cast<long long>(summary.model_instance_budget),
      static_cast<unsigned long long>(summary.finals_fingerprint),
      summary.byz_clients, summary.byz_cohort, summary.byz_attackers,
      summary.byz_attack, summary.byz_tolerance, summary.byz_clean_auc,
      summary.byz_weighted_average_auc,
      summary.byz_weighted_average_diverged ? "true" : "false",
      summary.byz_coordinate_median_auc, summary.byz_trimmed_mean_auc,
      summary.byz_pass ? "true" : "false",
      summary.ar_multi_krum_auc,
      summary.ar_multi_krum_tracks ? "true" : "false",
      summary.ar_detector_precision, summary.ar_detector_recall,
      summary.ar_reputation_auc, summary.ar_reputation_recovered,
      summary.ar_clip_norm, summary.ar_oblivious_clip_auc,
      summary.ar_adaptive_clip_auc, summary.ar_adaptive_gap,
      summary.ar_pass ? "true" : "false",
      summary.prof_disabled_eps, summary.prof_enabled_eps,
      summary.prof_overhead_pct,
      summary.prof_fingerprints_match ? "true" : "false",
      summary.prof_pass ? "true" : "false",
      summary.hk_construct_s, summary.hk_events_per_sec,
      summary.hk_small_hwm_mb, summary.hk_large_hwm_mb, summary.hk_delta_mb,
      summary.hk_pass ? "true" : "false",
      summary.distinct_phases, profile.to_json().c_str(),
      ThreadPool::global().size(), summary.rss_mb);
  std::fclose(f);
}

int main_impl() {
  SimBenchSummary summary;
  // FLEDA_SIM_PART=thousand runs only the K = 1000 federation part —
  // the TSan CI smoke wants the full concurrent train/aggregate path
  // without paying for the (slow under TSan) throughput and robustness
  // sweeps. Filtered runs skip BENCH_sim.json: the trajectory artifact
  // only makes sense for the complete bench.
  const char* part = std::getenv("FLEDA_SIM_PART");
  if (part != nullptr && std::string(part) == "thousand") {
    Profiler::set_enabled(true);
    Profiler::reset();
    return bench_thousand_clients(&summary);
  }
  // FLEDA_SIM_PART=arms_race runs only the adversarial parts (4 and 6;
  // part 6 needs part 4's clean/poisoned baselines) — the fast loop for
  // tuning attack and defense knobs.
  if (part != nullptr && std::string(part) == "arms_race") {
    Profiler::set_enabled(true);
    Profiler::reset();
    const int byz_rc = bench_byzantine(&summary);
    const int arms_rc = bench_arms_race(&summary);
    return byz_rc != 0 ? byz_rc : arms_rc;
  }
  // FLEDA_SIM_PART=hundred_k runs only the K = 100k streaming
  // federation (fleet construction + flat peak-RSS gate) — the CI step
  // that guards the million-client architecture.
  if (part != nullptr && std::string(part) == "hundred_k") {
    Profiler::set_enabled(true);
    Profiler::reset();
    return bench_hundred_k(&summary);
  }
  // Raw loop both ways. The headline events_per_sec stays the
  // uninstrumented number (comparable with pre-profiler trajectory
  // artifacts); the profiled line shows the worst case (span around a
  // no-op body).
  Profiler::set_enabled(false);
  summary.events_per_sec = bench_event_loop(1'000'000, false);
  Profiler::set_enabled(true);
  Profiler::reset();
  summary.events_per_sec_profiled = bench_event_loop(1'000'000, true);
  const int straggler_rc = bench_straggler();
  const int thousand_rc = bench_thousand_clients(&summary);
  const int overhead_rc = bench_profiler_overhead(&summary);
  const int byzantine_rc = bench_byzantine(&summary);
  const int arms_race_rc = bench_arms_race(&summary);
  const int hundred_k_rc = bench_hundred_k(&summary);
  summary.rss_mb = peak_rss_mb();

  // The merged per-phase profile of everything since the reset above.
  // The federation parts must have lit up the whole instrumented
  // surface (train fwd/bwd/opt, codec both ways, aggregate, dispatch,
  // pool) — a missing phase means an instrumentation regression.
  const ProfileReport profile = Profiler::report();
  for (const PhaseReport& p : profile.phases) {
    if (p.count > 0) ++summary.distinct_phases;
  }
  const bool profile_ok = summary.distinct_phases >= 6;
  std::printf("{\"bench\":\"profile\",\"distinct_phases\":%d,\"pass\":%s}\n",
              summary.distinct_phases, profile_ok ? "true" : "false");

  write_bench_json(summary, profile);
  if (straggler_rc != 0) return straggler_rc;
  if (thousand_rc != 0) return thousand_rc;
  if (overhead_rc != 0) return overhead_rc;
  if (byzantine_rc != 0) return byzantine_rc;
  if (arms_race_rc != 0) return arms_race_rc;
  if (hundred_k_rc != 0) return hundred_k_rc;
  return profile_ok ? 0 : 1;
}

}  // namespace
}  // namespace fleda

int main() { return fleda::main_impl(); }
