// AlgorithmRegistry: a string-keyed factory map over every federated
// training algorithm. Adding an algorithm is one registration call:
//
//   AlgorithmRegistry::global().add("dp_fedprox",
//       [](const AlgorithmOptions& o) { return std::make_unique<DpFedProx>(...); });
//   auto algo = AlgorithmRegistry::global().create("dp_fedprox");
//
// Downstream code (benches, ablations, thousand-client sweeps) can
// register variants without touching src/. Registry names are the only
// way to name a method (Experiment::run_method, paper_table_methods).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fl/async_fedavg.hpp"
#include "fl/trainer.hpp"

namespace fleda {

// The knobs any built-in factory may consult, bundled so registering a
// new algorithm never changes the factory signature. Defaults mirror
// the paper's §5.1 values.
struct AlgorithmOptions {
  int num_clusters = 4;          // IFCA / clustering C
  int selection_batches = 4;     // IFCA cluster-selection batches
  int finetune_steps = 200;      // personalization steps S'
  double alpha_portion = 0.5;    // alpha-portion sync mixing share
  // Assigned-clustering membership; empty = the paper's 9-client
  // suite-based assignment.
  std::vector<int> cluster_assignment;
  AsyncConfig async;             // AsyncFedAvg knobs
};

class AlgorithmRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<FederatedAlgorithm>(const AlgorithmOptions&)>;

  // The process-wide registry, with the built-in algorithms
  // ("fedavg", "fedprox", "fedprox_lg", "ifca", "fedprox_finetune",
  // "assigned_clustering", "alpha_sync", "async_fedavg") registered on
  // first use.
  static AlgorithmRegistry& global();

  // Registers `factory` under `name`. Throws std::invalid_argument on
  // an empty name or a duplicate registration.
  void add(std::string name, Factory factory);

  bool contains(std::string_view name) const;
  // All registered names, sorted.
  std::vector<std::string> names() const;

  // Instantiates the algorithm registered under `name`. Throws
  // std::invalid_argument on an unknown name, listing what is
  // registered.
  std::unique_ptr<FederatedAlgorithm> create(
      std::string_view name, const AlgorithmOptions& options = {}) const;

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

}  // namespace fleda
