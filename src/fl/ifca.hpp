// IFCA — Iterative Federated Clustering Algorithm (Ghosh et al. 2020),
// paper Fig. 2b. The developer maintains C cluster models; each round
// every cohort member evaluates all C models on its training data,
// joins the lowest-loss cluster and trains that model; the rest is
// FedProx's clustered body (per-cluster aggregation over the round's
// members; a cluster with no members keeps its model). Every run
// starts with all clients in cluster 0.
#pragma once

#include "fl/fedprox.hpp"

namespace fleda {

class IFCA : public FedProx {
 public:
  explicit IFCA(int num_clusters, int selection_batches = 4)
      : FedProx(num_clusters, {}), selection_batches_(selection_batches) {}

  std::string name() const override { return "IFCA"; }

  // Cluster chosen by each client in the final round.
  const std::vector<int>& final_assignment() const { return assignment_; }

 protected:
  // Ships all C models to every cohort member (one wave per model) and
  // moves each member to its lowest-loss cluster.
  std::vector<std::shared_ptr<const ModelParameters>> deploy(
      std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
      const std::vector<ModelParameters>& models, FederationSim& sim) override;

 private:
  int selection_batches_;
};

}  // namespace fleda
