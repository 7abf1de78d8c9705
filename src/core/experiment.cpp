#include "core/experiment.hpp"

#include <stdexcept>

#include "data/serialization.hpp"
#include "fl/baselines.hpp"
#include "obs/telemetry.hpp"
#include "phys/features.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace fleda {

std::string display_name(std::string_view name) {
  // The paper's table labels for the built-in methods; anything
  // registered downstream is shown under its registry name.
  if (name == "local") return "Local Average (b1 to b9)";
  if (name == "central") return "Training Centrally on All Data";
  if (name == "fedavg") return "FedAvg";
  if (name == "fedprox") return "FedProx";
  if (name == "fedprox_lg") return "FedProx-LG";
  if (name == "ifca") return "IFCA";
  if (name == "fedprox_finetune") return "FedProx + Fine-tuning";
  if (name == "assigned_clustering") return "Assigned Clustering";
  if (name == "alpha_sync") return "FedProx + a-Portion Sync";
  if (name == "async_fedavg") return "AsyncFedAvg";
  return std::string(name);
}

std::vector<std::string> paper_table_methods() {
  return {
      "local",
      "central",
      "fedprox",
      "fedprox_lg",
      "ifca",
      "fedprox_finetune",
      "assigned_clustering",
      "alpha_sync",
  };
}

Experiment::Experiment(const ExperimentConfig& config)
    : config_(config),
      factory_(make_model_factory(config.model, kNumFeatureChannels)),
      pool_(std::make_shared<ModelPool>(factory_)) {}

void Experiment::prepare_data() {
  if (!data_.empty()) return;
  const std::string cache =
      config_.cache_dir.empty()
          ? ""
          : config_.cache_dir + "/grid" + std::to_string(config_.scale.grid) +
                "_frac" +
                std::to_string(static_cast<int>(
                    config_.scale.placement_fraction * 1000)) +
                "_seed" + std::to_string(config_.data_seed);
  if (!cache.empty()) {
    data_ = try_load_all_clients(cache, config_.hparams.num_clients);
    if (!data_.empty()) {
      FLEDA_LOG_INFO("loaded cached dataset from %s", cache.c_str());
      return;
    }
  }

  Timer timer;
  DatasetGenOptions gen;
  gen.grid = config_.scale.grid;
  gen.placement_fraction = config_.scale.placement_fraction;
  gen.seed = config_.data_seed;
  data_ = generate_paper_dataset(gen);
  FLEDA_LOG_INFO("generated dataset (%d clients) in %.1fs",
                 static_cast<int>(data_.size()), timer.seconds());
  if (!cache.empty()) {
    save_all_clients(cache, data_);
    FLEDA_LOG_INFO("cached dataset at %s", cache.c_str());
  }
}

std::vector<Client> Experiment::make_clients() {
  if (data_.empty()) {
    throw std::logic_error("Experiment: call prepare_data() first");
  }
  Rng rng(config_.train_seed);
  std::vector<Client> clients;
  clients.reserve(data_.size());
  for (const ClientDataset& ds : data_) {
    clients.emplace_back(ds.client_id, &ds, pool_,
                         rng.fork(static_cast<std::uint64_t>(ds.client_id)));
  }
  return clients;
}

ClientTrainConfig Experiment::make_client_config() const {
  ClientTrainConfig cfg;
  cfg.steps = config_.scale.steps_per_round;
  cfg.batch_size = config_.scale.batch_size;
  cfg.learning_rate = config_.hparams.learning_rate;
  cfg.l2_regularization = config_.hparams.l2_regularization;
  cfg.mu = config_.hparams.fedprox_mu;
  cfg.reset_optimizer = config_.reset_optimizer;
  return cfg;
}

FLRunOptions Experiment::make_run_options() const {
  FLRunOptions opts;
  opts.rounds = config_.scale.rounds;
  opts.client = make_client_config();
  opts.seed = config_.train_seed;
  opts.comm = config_.comm;
  opts.sim = config_.sim;
  opts.participation = config_.participation;
  opts.aggregation = config_.aggregation;
  opts.anomaly = config_.anomaly;
  return opts;
}

AlgorithmOptions Experiment::make_algorithm_options() const {
  AlgorithmOptions options;
  options.num_clusters = config_.hparams.num_clusters;
  options.finetune_steps = config_.scale.finetune_steps;
  options.alpha_portion = config_.hparams.alpha_portion;
  options.async = config_.async;
  return options;
}

std::unique_ptr<FederatedAlgorithm> Experiment::make_algorithm(
    std::string_view name) const {
  return AlgorithmRegistry::global().create(name, make_algorithm_options());
}

MethodResult Experiment::run_method(std::string_view name) {
  std::vector<Client> clients = make_clients();
  Timer timer;
  MethodResult result;
  const std::string label = display_name(name);

  if (name == "local") {
    BaselineOptions bopts;
    bopts.total_steps = config_.scale.rounds * config_.scale.steps_per_round;
    bopts.client = make_client_config();
    bopts.seed = config_.train_seed;
    std::vector<ModelParameters> locals =
        train_local_baselines(clients, factory_, bopts);
    result = evaluate_per_client(label, clients, locals);
  } else if (name == "central") {
    BaselineOptions bopts;
    // Equal-compute upper bound: federated training performs R*S steps
    // on each of the K clients, so the centralized reference gets the
    // same total number of gradient steps over the pooled data.
    bopts.total_steps = config_.scale.rounds * config_.scale.steps_per_round *
                        config_.hparams.num_clients;
    bopts.client = make_client_config();
    bopts.seed = config_.train_seed;
    ModelParameters central = train_centralized(data_, factory_, bopts);
    result = evaluate_shared(label, clients, central);
  } else {
    std::unique_ptr<FederatedAlgorithm> algo = make_algorithm(name);
    ChannelStats comm;
    SimReport sim;
    // Streams to FLEDA_TELEMETRY_FILE when set; always collects the
    // per-round records into the result row.
    TelemetrySink telemetry(TelemetrySink::env_path());
    FLRunOptions opts = make_run_options();
    opts.comm_stats = &comm;
    opts.sim_report = &sim;
    opts.telemetry = &telemetry;
    std::vector<ModelParameters> finals = algo->run(clients, factory_, opts);
    result = evaluate_per_client(label, clients, finals);
    result.comm = std::move(comm);
    result.sim_time_s = sim.total_time_s;
    result.sim_events = sim.events_processed;
    result.round_telemetry = telemetry.rounds();
    // Event-driven methods ignore the sync participation policy; do
    // not claim sampling was applied to them.
    result.participation = algo->uses_participation()
                               ? to_string(config_.participation.kind)
                               : "event-driven";
  }

  FLEDA_LOG_INFO(
      "%s [%s]: avg AUC %.3f (%.1fs; comm up %.2f MB / down %.2f MB, "
      "sim clock %.1fs)",
      label.c_str(), to_string(config_.model).c_str(), result.average,
      timer.seconds(), result.comm.uplink_mb(), result.comm.downlink_mb(),
      result.sim_time_s);
  return result;
}

std::vector<MethodResult> Experiment::run_paper_table() {
  std::vector<MethodResult> rows;
  for (const std::string& name : paper_table_methods()) {
    rows.push_back(run_method(name));
  }
  return rows;
}

std::vector<Experiment::ConvergencePoint> Experiment::run_convergence(
    std::string_view name) {
  std::vector<Client> clients = make_clients();
  std::vector<ConvergencePoint> series;

  if (name == "local" || name == "central") {
    throw std::invalid_argument("run_convergence: federated methods only");
  }
  std::unique_ptr<FederatedAlgorithm> algo = make_algorithm(name);
  ChannelStats comm;
  FLRunOptions opts = make_run_options();
  opts.comm_stats = &comm;
  opts.on_round = [&](int round, const std::vector<ModelParameters>& models) {
    MethodResult r = evaluate_per_client("round", clients, models);
    series.push_back({round, r.average, 0.0});
  };
  algo->run(clients, factory_, opts);
  // Channel round i closes when round i's exchange completes; its
  // cumulative latency is the simulated wall-clock at that point.
  double elapsed = 0.0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i < comm.rounds.size()) elapsed += comm.rounds[i].simulated_latency_s;
    series[i].sim_time_s = elapsed;
  }
  return series;
}

}  // namespace fleda
