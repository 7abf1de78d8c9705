// FedProx (Li et al. 2018): the paper's core decentralized training
// algorithm. Each client's local objective carries the proximal term
// mu*||W^r - w_k||^2 anchoring local models to the deployed aggregate,
// which counters the client-level heterogeneity of routability data
// (paper §4.1, Eq. 1).
//
// Its round body is also the one clustered body: FedAvg (mu = 0),
// Assigned Clustering (fixed clusters) and IFCA (clusters re-picked
// every round) are FedProx per cluster. C cluster models are drawn in
// order from Rng(opts.seed); every upload folds into its lane's
// accumulator for the sender's cluster on arrival; a cluster nobody
// folded into keeps its model, and a round with no fold at all throws.
#pragma once

#include <memory>
#include <vector>

#include "fl/trainer.hpp"

namespace fleda {

class FedProx : public FederatedAlgorithm {
 public:
  FedProx() = default;

  std::string name() const override { return "FedProx"; }

 protected:
  // `num_clusters` cluster models; client k starts in cluster
  // assignment[k] (empty: every client in cluster 0).
  FedProx(int num_clusters, std::vector<int> assignment)
      : num_clusters_(num_clusters),
        initial_assignment_(std::move(assignment)) {}

  std::vector<ModelParameters> run_rounds(
      std::vector<Client>& clients, const ModelFactory& factory,
      const FLRunOptions& opts, FederationSim& sim,
      ParticipationPolicy& participation) override;

  // This round's deployments: received[i] is what cohort[i] decoded
  // from the downlink and trains from. The default broadcasts each
  // member's cluster model; an override may re-pick assignment_ for
  // the cohort first.
  virtual std::vector<std::shared_ptr<const ModelParameters>> deploy(
      std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
      const std::vector<ModelParameters>& models, FederationSim& sim);

  // Each client's cluster this round (after a run: in its last round).
  std::vector<int> assignment_;

 private:
  int num_clusters_ = 1;
  std::vector<int> initial_assignment_;
};

}  // namespace fleda
