#include "fl/fedprox.hpp"

#include <stdexcept>

namespace fleda {

std::vector<ModelParameters> FedProx::run_rounds(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts, FederationSim& sim,
    ParticipationPolicy& participation) {
  if (num_clusters_ <= 0) {
    throw std::invalid_argument(name() + ": needs at least one cluster");
  }
  assignment_ = initial_assignment_.empty()
                    ? std::vector<int>(clients.size(), 0)
                    : initial_assignment_;
  if (assignment_.size() != clients.size()) {
    throw std::invalid_argument(name() + ": assignment size != #clients");
  }
  for (int c : assignment_) {
    if (c < 0 || c >= num_clusters_) {
      throw std::invalid_argument(name() + ": cluster index " +
                                  std::to_string(c) + " out of range");
    }
  }

  // Independent initialization per cluster (IFCA relies on initial
  // diversity for cluster identifiability).
  Rng rng(opts.seed);
  std::vector<ModelParameters> models;
  models.reserve(static_cast<std::size_t>(num_clusters_));
  for (int c = 0; c < num_clusters_; ++c) {
    models.push_back(initial_model_parameters(factory, rng));
  }
  const auto per_client = [&] {
    std::vector<ModelParameters> out;
    out.reserve(clients.size());
    for (int c : assignment_) out.push_back(models[static_cast<std::size_t>(c)]);
    return out;
  };

  const std::vector<double> weights = client_weights(clients);
  const std::unique_ptr<AggregationRule> rule = sync_aggregation_rule(opts);
  for (int r = 0; r < opts.rounds; ++r) {
    const std::vector<std::size_t> cohort =
        select_cohort(participation, r, clients.size(), opts, sim);
    const std::vector<std::shared_ptr<const ModelParameters>> received =
        deploy(clients, cohort, models, sim);
    // Each cluster's own model is its delta/clipping reference.
    std::vector<LaneAccumulators> next;
    next.reserve(models.size());
    for (const ModelParameters& m : models) next.emplace_back(*rule, m);
    cohort_round(clients, cohort, received, opts.client, sim,
                 [&](std::size_t lane, std::size_t i, ModelParameters&& u) {
                   const std::size_t k = cohort[i];
                   next[static_cast<std::size_t>(assignment_[k])][lane].fold(
                       std::move(u), weights[k], 0, static_cast<int>(k));
                 });
    bool folded = false;
    for (std::size_t c = 0; c < models.size(); ++c) {
      if (next[c].merged().folds() == 0) continue;
      models[c] = next[c].finish();
      folded = true;
    }
    if (!folded) throw empty_cohort_error(name(), r);
    if (opts.on_round) opts.on_round(r, per_client());
  }
  return per_client();
}

std::vector<std::shared_ptr<const ModelParameters>> FedProx::deploy(
    std::vector<Client>& /*clients*/, const std::vector<std::size_t>& cohort,
    const std::vector<ModelParameters>& models, FederationSim& sim) {
  std::vector<const ModelParameters*> deployed;
  deployed.reserve(cohort.size());
  for (std::size_t k : cohort) {
    deployed.push_back(&models[static_cast<std::size_t>(assignment_[k])]);
  }
  return sim.channel().broadcast(deployed, cohort);
}

}  // namespace fleda
