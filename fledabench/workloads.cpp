#include "workloads.hpp"

#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "comm/codec.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "fl/baselines.hpp"
#include "fl/fedavg.hpp"
#include "fl/registry.hpp"
#include "fl/synthetic.hpp"
#include "models/model.hpp"
#include "obs/profiler.hpp"
#include "tensor/plan.hpp"
#include "util/config.hpp"

namespace fledabench {
namespace {

using fleda::ModelParameters;
using fleda::StopWatch;

// Tables 3-5, in the paper's order.
const std::vector<std::string> kPaperRows = {
    "local",           "central",
    "fedprox",         "fedprox_lg",
    "ifca",            "fedprox_finetune",
    "assigned_clustering", "alpha_sync"};
// paper_routenet's measured pass: all eight rows take ~45 s, so it keeps
// the rows its metrics read and drops central, ifca and
// assigned_clustering (~24 s). Its traced unit still runs every row.
const std::vector<std::string> kRouteNetRows = {
    "local", "fedprox", "fedprox_lg", "fedprox_finetune", "alpha_sync"};

// Every per-client AUC of a row finite and inside [0, 1].
std::string auc_violation(const fleda::MethodResult& row,
                          std::size_t clients) {
  if (row.client_auc.size() != clients) {
    return row.method + ": " + std::to_string(row.client_auc.size()) +
           " client AUCs, expected " + std::to_string(clients);
  }
  for (double auc : row.client_auc) {
    if (!std::isfinite(auc) || auc < 0.0 || auc > 1.0) {
      return row.method + ": AUC " + json_number(auc) + " outside [0, 1]";
    }
  }
  return "";
}

// Profiler on, plan-cache and model-instance counters restarted: the
// state a traced unit starts from.
struct TraceScope {
  fleda::PlanCacheStats plan_before = fleda::KernelPlanCache::global().stats();
  TraceScope() {
    fleda::Profiler::reset();
    fleda::RoutabilityModel::reset_peak_instances();
    fleda::Profiler::set_enabled(true);
  }
  ~TraceScope() { fleda::Profiler::set_enabled(false); }

  // Share of plan lookups since construction that hit the cache.
  double plan_hit_rate() const {
    const fleda::PlanCacheStats now = fleda::KernelPlanCache::global().stats();
    const double hits = static_cast<double>(now.hits - plan_before.hits);
    const double misses = static_cast<double>(now.misses - plan_before.misses);
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }
};

// obs.trace_overhead_pct: `unit` run untraced and traced, alternating
// twice; the traced median over the untraced median.
double trace_overhead_pct(const std::function<void()>& unit) {
  std::vector<double> off;
  std::vector<double> on;
  for (int i = 0; i < 2; ++i) {
    for (const bool traced : {false, true}) {
      fleda::Profiler::set_enabled(traced);
      StopWatch sw;
      unit();
      (traced ? on : off).push_back(sw.seconds());
    }
  }
  fleda::Profiler::set_enabled(false);
  return (median(on) / median(off) - 1.0) * 100.0;
}

// ---------------------------------------------------------------- paper

fleda::ExperimentConfig paper_config(fleda::ModelKind model,
                                     std::uint64_t seed,
                                     const std::string& cache_dir) {
  fleda::ExperimentConfig cfg;
  cfg.model = model;
  cfg.scale = fleda::resolve_scale("smoke");
  cfg.data_seed = derive_seed(seed, kTagData);
  cfg.train_seed = derive_seed(seed, kTagTrain);
  cfg.cache_dir = cache_dir;
  return cfg;
}

struct RowRun {
  std::string name;
  double wall_s = 0.0;
  double auc = 0.0;
  std::size_t rounds = 0;  // channel rounds (0 for the baselines)
};

struct TableRun {
  double wall_s = 0.0;
  std::vector<RowRun> rows;

  const RowRun& row(const std::string& name) const {
    for (const RowRun& r : rows) {
      if (r.name == name) return r;
    }
    throw std::logic_error("no paper row " + name);
  }
  // Wall time per channel round over the federated rows.
  double round_ms() const {
    double wall = 0.0;
    std::size_t rounds = 0;
    for (const RowRun& r : rows) {
      if (r.rounds == 0) continue;
      wall += r.wall_s;
      rounds += r.rounds;
    }
    return rounds > 0 ? wall * 1e3 / static_cast<double>(rounds) : 0.0;
  }
  // Mean AUC of the federated rows without fine-tuning: the models the
  // federation itself serves. A mean over several rows moves far less
  // from seed to seed than any single row.
  double federated_auc() const {
    double sum = 0.0;
    int n = 0;
    for (const RowRun& r : rows) {
      if (r.rounds == 0 || r.name == "fedprox_finetune") continue;
      sum += r.auc;
      ++n;
    }
    return n > 0 ? sum / n : 0.0;
  }
};

// One pass over `rows`. `reference` (the first pass, if any) must be
// reproduced exactly: same seed, same AUCs.
TableRun run_table(fleda::Experiment& exp,
                   const std::vector<std::string>& rows,
                   const TableRun* reference, Report& report) {
  TableRun table;
  StopWatch total;
  for (const std::string& name : rows) {
    RowRun row{name};
    std::string violation;
    StopWatch sw;
    try {
      const fleda::MethodResult result = exp.run_method(name);
      row.auc = result.average;
      row.rounds = result.comm.rounds.size();
      violation = auc_violation(result, exp.data().size());
    } catch (const std::exception& e) {
      violation = name + " threw: " + e.what();
    }
    row.wall_s = sw.seconds();
    if (violation.empty() && reference != nullptr &&
        reference->row(name).auc != row.auc) {
      violation = name + ": AUC differs between two passes at one seed";
    }
    report.operation(violation.empty(), violation);
    table.rows.push_back(row);
  }
  table.wall_s = total.seconds();
  return table;
}

std::string rows_fact(const TableRun& table) {
  std::string out = "{";
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const RowRun& r = table.rows[i];
    out += (i ? "," : "") + json_string(r.name) +
           ":{\"auc\":" + json_number(r.auc) +
           ",\"wall_s\":" + json_number(r.wall_s) +
           ",\"rounds\":" + std::to_string(r.rounds) + "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------- fleet

struct Fleet {
  std::vector<fleda::ClientDataset> data;
  fleda::ModelFactory factory;
  std::shared_ptr<fleda::ModelPool> pool;
  std::vector<fleda::Client> clients;
};

// The nine synthetic datasets and `clients` clients over them (client k
// trains on dataset k % 9), under the default replay-init schema. Each
// dataset keeps the default six training samples but holds 16 test
// samples, so the AUCs are measured on 1024 pixels each, not 192.
std::unique_ptr<Fleet> build_fleet(std::uint64_t seed,
                                   std::size_t clients = kFleetClients) {
  auto fleet = std::make_unique<Fleet>();
  const std::uint64_t data_seed = derive_seed(seed, kTagData);
  for (int i = 0; i < 9; ++i) {
    fleet->data.push_back(fleda::make_synthetic_client(
        i + 1, 0.35f + 0.04f * static_cast<float>(i), data_seed + i,
        /*train_samples=*/6, /*test_samples=*/16));
  }
  fleet->factory = fleda::make_model_factory(fleda::ModelKind::kFLNet,
                                             kFleetChannels);
  fleet->pool = std::make_shared<fleda::ModelPool>(fleet->factory);
  fleda::Rng rng(derive_seed(seed, kTagClients));
  fleet->clients.reserve(clients);
  for (std::size_t k = 0; k < clients; ++k) {
    fleet->clients.emplace_back(static_cast<int>(k) + 1, &fleet->data[k % 9],
                                fleet->pool, rng.fork(k));
  }
  return fleet;
}

fleda::FLRunOptions fleet_options(std::uint64_t seed, int rounds) {
  fleda::FLRunOptions opts;
  opts.rounds = rounds;
  opts.client = fleet_client_config();
  opts.seed = derive_seed(seed, kTagInit);
  opts.participation.kind = fleda::ParticipationKind::kUniformSample;
  opts.participation.sample_size = kFleetCohort;
  opts.participation.seed = derive_seed(seed, kTagParticipation);
  opts.aggregation.rule = "trimmed_mean";
  opts.comm.uplink = fleda::CodecKind::kInt8Quant;
  opts.comm.downlink = fleda::CodecKind::kFp32;
  opts.sim = fleda::SimConfig::heterogeneous(kFleetClients,
                                             derive_seed(seed, kTagSim));
  return opts;
}

// The fleet's exact billing: C deployments of the fp32 model down and
// C int8-encoded updates up, every round.
std::string billing_violation(const fleda::ChannelStats& comm,
                              const ModelParameters& global, int rounds) {
  const std::uint64_t up =
      fleda::make_codec(fleda::CodecKind::kInt8Quant)->encode(global, nullptr).size();
  const std::uint64_t down = fleda::raw_wire_bytes(global);
  if (comm.rounds.size() != static_cast<std::size_t>(rounds)) {
    return "fleet: " + std::to_string(comm.rounds.size()) +
           " channel rounds, expected " + std::to_string(rounds);
  }
  for (const fleda::RoundCommStats& r : comm.rounds) {
    if (r.uplink_bytes != kFleetCohort * up ||
        r.downlink_bytes != kFleetCohort * down) {
      return "fleet round " + std::to_string(r.round) + ": billed " +
             std::to_string(r.uplink_bytes) + " B up / " +
             std::to_string(r.downlink_bytes) + " B down, expected " +
             std::to_string(kFleetCohort * up) + " / " +
             std::to_string(kFleetCohort * down);
    }
  }
  return "";
}

struct FleetQuality {
  double global = 0.0;    // final global model
  double finetune = 0.0;  // global fine-tuned on each dataset
  double local = 0.0;     // trained on each dataset alone
};

// Fresh clients, one per synthetic dataset.
std::vector<fleda::Client> one_client_per_dataset(const Fleet& fleet,
                                                  std::uint64_t seed) {
  std::vector<fleda::Client> nine;
  fleda::Rng rng(derive_seed(seed, kTagLocal));
  for (std::size_t k = 0; k < fleet.data.size(); ++k) {
    nine.emplace_back(static_cast<int>(k) + 1, &fleet.data[k], fleet.pool,
                      rng.fork(k));
  }
  return nine;
}

// Mean test AUC over the nine datasets, for the global model, the
// global model fine-tuned on each client, and local-only models with
// the same step budget.
FleetQuality fleet_quality(Fleet& fleet, const ModelParameters& global,
                           std::uint64_t seed) {
  const int steps = fleda::resolve_scale("smoke").finetune_steps;
  const fleda::ClientTrainConfig cfg = fleet_client_config();
  FleetQuality q;
  for (std::size_t k = 0; k < 9; ++k) {
    fleda::Client& c = fleet.clients[k];
    q.global += c.evaluate_test_auc(global) / 9.0;
    q.finetune += c.evaluate_test_auc(c.fine_tune(global, steps, cfg)) / 9.0;
  }
  std::vector<fleda::Client> nine = one_client_per_dataset(fleet, seed);
  fleda::BaselineOptions local;
  local.total_steps = steps;
  local.client = cfg;
  local.seed = derive_seed(seed, kTagInit);
  const std::vector<ModelParameters> locals =
      fleda::train_local_baselines(nine, fleet.factory, local);
  for (std::size_t k = 0; k < 9; ++k) {
    q.local += nine[k].evaluate_test_auc(locals[k]) / 9.0;
  }
  return q;
}

struct FleetRun {
  double setup_s = 0.0;  // datasets + kFleetClients client constructions
  double run_s = 0.0;    // FedAvg::run
  double unit_s = 0.0;   // FedAvg::run + the quality pass
  std::uint64_t fingerprint = 0;
  FleetQuality quality;
};

// One fleet unit on a freshly built fleet (a fleet's client streams
// advance as it trains, so a rerun needs new clients). `reference` (the
// first unit, if any) must be reproduced bit for bit.
FleetRun fleet_unit(std::uint64_t seed, int rounds, const FleetRun* reference,
                    Report& report) {
  FleetRun run;
  StopWatch sw;
  std::unique_ptr<Fleet> fleet = build_fleet(seed);
  run.setup_s = sw.seconds();

  fleda::FLRunOptions opts = fleet_options(seed, rounds);
  fleda::ChannelStats comm;
  opts.comm_stats = &comm;
  std::string violation;
  try {
    sw.reset();
    std::vector<ModelParameters> finals =
        fleda::FedAvg().run(fleet->clients, fleet->factory, opts);
    run.run_s = sw.seconds();
    const ModelParameters global = finals.front();
    finals = {};
    run.fingerprint = fingerprint(global);
    violation = billing_violation(comm, global, rounds);
    if (violation.empty() && reference != nullptr &&
        reference->fingerprint != run.fingerprint) {
      violation = "fleet: final model fingerprint " + hex64(run.fingerprint) +
                  " differs from " + hex64(reference->fingerprint) +
                  " at the same seed";
    }
    run.quality = fleet_quality(*fleet, global, seed);
    run.unit_s = sw.seconds();
    for (const double auc :
         {run.quality.global, run.quality.finetune, run.quality.local}) {
      if (violation.empty() && !(auc >= 0.0 && auc <= 1.0)) {
        violation = "fleet: AUC " + json_number(auc) + " outside [0, 1]";
      }
    }
  } catch (const std::exception& e) {
    violation = std::string("fleet run threw: ") + e.what();
  }
  report.operation(violation.empty(), violation);
  return run;
}

// The eight paper rows on the fleet's model and its nine datasets (one
// client per dataset, smoke-scale rounds): the fleet's fl.method rows.
void fleet_method_rows(std::uint64_t seed, Report& report) {
  std::unique_ptr<Fleet> fleet = build_fleet(seed, /*clients=*/0);
  const fleda::RunScale smoke = fleda::resolve_scale("smoke");
  fleda::FLRunOptions opts;
  opts.rounds = smoke.rounds;
  opts.client = fleet_client_config();
  opts.seed = derive_seed(seed, kTagInit);
  fleda::AlgorithmOptions algo_options;
  algo_options.finetune_steps = smoke.finetune_steps;
  fleda::BaselineOptions baseline;
  baseline.total_steps = smoke.rounds * kFleetSteps;
  baseline.client = opts.client;
  baseline.seed = opts.seed;

  for (const std::string& name : kPaperRows) {
    std::vector<fleda::Client> nine = one_client_per_dataset(*fleet, seed);
    std::string violation;
    StopWatch sw;
    try {
      fleda::MethodResult result;
      if (name == "local") {
        result = fleda::evaluate_per_client(
            name, nine,
            fleda::train_local_baselines(nine, fleet->factory, baseline));
      } else if (name == "central") {
        fleda::BaselineOptions central = baseline;
        central.total_steps *= 9;
        result = fleda::evaluate_shared(
            name, nine,
            fleda::train_centralized(fleet->data, fleet->factory, central));
      } else {
        result = fleda::evaluate_per_client(
            name, nine,
            fleda::AlgorithmRegistry::global()
                .create(name, algo_options)
                ->run(nine, fleet->factory, opts));
      }
      violation = auc_violation(result, 9);
    } catch (const std::exception& e) {
      violation = name + " threw: " + e.what();
    }
    report.metric("fl.method." + name + "_s", sw.seconds(), "s");
    report.operation(violation.empty(), violation);
  }
}

}  // namespace

fleda::ClientTrainConfig fleet_client_config() {
  fleda::ClientTrainConfig cfg;
  cfg.steps = kFleetSteps;
  cfg.batch_size = kFleetBatch;
  cfg.learning_rate = 1e-3;
  cfg.mu = 0.0;
  return cfg;
}

void run_paper(const RunArgs& args, fleda::ModelKind model, Report& report) {
  // Set-up: Experiment construction plus prepare_data into an empty
  // cache (generation + cache write), several times for a steady median.
  std::vector<double> setup;
  std::unique_ptr<fleda::Experiment> exp;
  const int setup_reps = args.trace ? 1 : 5;
  for (int i = 0; i < setup_reps; ++i) {
    const std::string cache = args.work_dir + "/paper-cache-" + std::to_string(i);
    std::filesystem::remove_all(cache);
    StopWatch sw;
    auto e = std::make_unique<fleda::Experiment>(
        paper_config(model, args.seed, cache));
    e->prepare_data();
    setup.push_back(sw.seconds());
    std::filesystem::remove_all(cache);
    exp = std::move(e);
  }

  if (args.trace) {
    TableRun table;
    double hit_rate = 0.0;
    {
      TraceScope trace;
      table = run_table(*exp, kPaperRows, nullptr, report);
      hit_rate = trace.plan_hit_rate();
      report.fact("profile", fleda::Profiler::report().to_json());
    }
    for (const RowRun& r : table.rows) {
      report.metric("fl.method." + r.name + "_s", r.wall_s, "s");
    }
    report.metric("tensor.plan.hit_rate", hit_rate, "ratio");
    report.metric("models.pool.peak_instances",
                  static_cast<double>(fleda::RoutabilityModel::peak_instances()),
                  "count");
    report.metric("obs.trace_overhead_pct",
                  trace_overhead_pct([&] { exp->run_method("fedprox"); }), "%");
    report.fact("rows", rows_fact(table));
    return;
  }

  // Measured: whole passes over the paper rows while another fits in
  // --seconds (always at least one).
  const std::vector<std::string>& rows =
      model == fleda::ModelKind::kRouteNet ? kRouteNetRows : kPaperRows;
  std::vector<TableRun> passes;
  StopWatch window;
  do {
    passes.push_back(run_table(
        *exp, rows, passes.empty() ? nullptr : &passes.front(), report));
  } while (window.seconds() + passes.back().wall_s <= args.seconds);

  std::vector<double> table_s;
  std::vector<double> round_ms;
  for (const TableRun& t : passes) {
    table_s.push_back(t.wall_s);
    round_ms.push_back(t.round_ms());
  }
  const TableRun& first = passes.front();
  const double finetune = first.row("fedprox_finetune").auc;
  report.metric("setup_s", median(setup), "s");
  report.metric("table_s", median(table_s), "s");
  report.metric("round_ms", median(round_ms), "ms");
  report.metric("auc_finetune", finetune, "AUC");
  report.metric("auc_vs_local_pct", 100.0 * finetune / first.row("local").auc,
                "%");
  report.metric("auc_global", first.federated_auc(), "AUC");
  report.fact("passes", std::to_string(passes.size()));
  report.fact("rows", rows_fact(first));
}

void run_fleet(const RunArgs& args, Report& report) {
  if (args.trace) {
    double hit_rate = 0.0;
    std::int64_t peak_instances = 0;
    {
      std::unique_ptr<Fleet> fleet = build_fleet(args.seed);
      fleda::FLRunOptions opts = fleet_options(args.seed, kFleetRounds);
      TraceScope trace;
      std::string violation;
      try {
        fleda::FedAvg().run(fleet->clients, fleet->factory, opts);
      } catch (const std::exception& e) {
        violation = std::string("fleet run threw: ") + e.what();
      }
      report.operation(violation.empty(), violation);
      hit_rate = trace.plan_hit_rate();
      peak_instances = fleda::RoutabilityModel::peak_instances();
      report.fact("profile", fleda::Profiler::report().to_json());
    }
    report.metric("tensor.plan.hit_rate", hit_rate, "ratio");
    report.metric("models.pool.peak_instances",
                  static_cast<double>(peak_instances), "count");
    fleet_method_rows(args.seed, report);
    std::unique_ptr<Fleet> probe = build_fleet(args.seed);
    const fleda::FLRunOptions probe_opts = fleet_options(args.seed, 10);
    report.metric("obs.trace_overhead_pct", trace_overhead_pct([&] {
                    fleda::FedAvg().run(probe->clients, probe->factory,
                                        probe_opts);
                  }),
                  "%");
    return;
  }

  // Set-up samples: three bare fleet builds plus the build of every
  // measured unit.
  std::vector<double> setup;
  for (int i = 0; i < 3; ++i) {
    StopWatch sw;
    build_fleet(args.seed);
    setup.push_back(sw.seconds());
  }
  // Measured: fleet units while another fits in --seconds, at least two
  // so the final model's fingerprint is compared across reruns.
  std::vector<FleetRun> runs;
  StopWatch window;
  do {
    runs.push_back(fleet_unit(args.seed, kFleetRounds,
                              runs.empty() ? nullptr : &runs.front(), report));
    setup.push_back(runs.back().setup_s);
  } while (runs.size() < 2 ||
           window.seconds() + runs.back().setup_s + runs.back().unit_s <=
               args.seconds);

  std::vector<double> unit_s;
  std::vector<double> round_ms;
  for (const FleetRun& r : runs) {
    unit_s.push_back(r.unit_s);
    round_ms.push_back(r.run_s * 1e3 / kFleetRounds);
  }
  const FleetQuality& q = runs.front().quality;
  report.metric("setup_s", median(setup), "s");
  report.metric("table_s", median(unit_s), "s");
  report.metric("round_ms", median(round_ms), "ms");
  report.metric("auc_finetune", q.finetune, "AUC");
  report.metric("auc_vs_local_pct", 100.0 * q.finetune / q.local, "%");
  report.metric("auc_global", q.global, "AUC");
  report.fact("passes", std::to_string(runs.size()));
  report.fact("fingerprint", json_string(hex64(runs.front().fingerprint)));
  report.fact("auc_local", json_number(q.local));
}

}  // namespace fledabench
