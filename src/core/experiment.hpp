// fleda::Experiment — the library's top-level API. One Experiment owns
// a Table-2-replica dataset and can run any registered training method
// on any of the three models, returning table rows (per-client ROC AUC
// + average). The benches for Tables 3/4/5 are thin wrappers over this
// class, and downstream users drive the whole system from here:
//
//   ExperimentConfig cfg;
//   cfg.model = ModelKind::kFLNet;
//   Experiment exp(cfg);
//   exp.prepare_data();
//   MethodResult row = exp.run_method("fedprox_finetune");
//
// Methods are looked up by registry name (AlgorithmRegistry::global(),
// plus the "local" / "central" baselines).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluation.hpp"
#include "data/generator.hpp"
#include "fl/registry.hpp"
#include "fl/trainer.hpp"
#include "models/pool.hpp"
#include "models/registry.hpp"
#include "util/config.hpp"

namespace fleda {

// The paper's table label for a registry name (falls back to the name
// itself for methods registered downstream).
std::string display_name(std::string_view name);
// The registry names of the eight rows of Tables 3-5, in the paper's
// order.
std::vector<std::string> paper_table_methods();

struct ExperimentConfig {
  ModelKind model = ModelKind::kFLNet;
  RunScale scale;                 // grid / rounds / steps / fractions
  PaperHyperParams hparams;       // paper §5.1 verbatim values
  std::uint64_t data_seed = 20220203;
  std::uint64_t train_seed = 7;
  // Parameter-exchange transport (codecs + simulated link) used by all
  // federated methods; defaults to lossless fp32 both ways.
  CommConfig comm;
  // Client heterogeneity and compute-time model for the simulated
  // federation clock (default: homogeneous, always-online clients).
  SimConfig sim;
  // Per-round cohort selection for the synchronous methods (full
  // participation, uniform sampling, availability-aware skipping).
  ParticipationConfig participation;
  // Aggregation-rule selection by AggregationRegistry name (empty =
  // each algorithm's historical default); "coordinate_median" /
  // "trimmed_mean" / "norm_clipped_mean" harden any method against
  // Byzantine clients.
  AggregationConfig aggregation;
  // Server-side attacker detection / reputation loop (fl/anomaly.hpp);
  // disabled by default, a pure observer when enabled.
  AnomalyConfig anomaly;
  // AsyncFedAvg knobs (buffer size, max_in_flight dispatch gate); its
  // staleness discount and server mix are `aggregation`'s.
  AsyncConfig async;
  // Restart local Adam moments from zero at every deployment (the
  // paper's behavior); false carries each client's moments across
  // rounds (serialized AdamMoments, see ClientTrainConfig).
  bool reset_optimizer = true;
  // Optional directory for caching the generated dataset across runs.
  std::string cache_dir;
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);

  // Generates (or loads from cache) the 9-client dataset.
  void prepare_data();

  // Runs one training method end-to-end and evaluates it. Requires
  // prepare_data() first. `name` is an AlgorithmRegistry key, or the
  // "local" / "central" baselines.
  MethodResult run_method(std::string_view name);

  // All eight table rows, in paper order.
  std::vector<MethodResult> run_paper_table();

  // Round-by-round average test AUC (for the convergence bench), with
  // the simulated wall-clock at which each round completed.
  struct ConvergencePoint {
    int round = 0;
    double average_auc = 0.0;
    double sim_time_s = 0.0;
  };
  std::vector<ConvergencePoint> run_convergence(std::string_view name);

  const std::vector<ClientDataset>& data() const { return data_; }
  const ExperimentConfig& config() const { return config_; }

 private:
  std::vector<Client> make_clients();
  FLRunOptions make_run_options() const;
  ClientTrainConfig make_client_config() const;
  // Registry options derived from this experiment's scale / hparams.
  AlgorithmOptions make_algorithm_options() const;
  std::unique_ptr<FederatedAlgorithm> make_algorithm(
      std::string_view name) const;

  ExperimentConfig config_;
  ModelFactory factory_;
  // Scratch models shared by every client this experiment creates:
  // memory stays O(threads) regardless of the client count.
  std::shared_ptr<ModelPool> pool_;
  std::vector<ClientDataset> data_;
};

}  // namespace fleda
