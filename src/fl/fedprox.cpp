#include "fl/fedprox.hpp"

namespace fleda {

std::vector<ModelParameters> FedProx::run_rounds(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts, FederationSim& sim,
    ParticipationPolicy& participation) {
  Rng rng(opts.seed);
  ModelParameters global = initial_model_parameters(factory, rng);

  const std::vector<double> weights = client_weights(clients);
  const std::unique_ptr<AggregationRule> rule = sync_aggregation_rule(opts);
  for (int r = 0; r < opts.rounds; ++r) {
    const std::vector<std::size_t> cohort =
        select_cohort(participation, r, clients.size(), opts, sim);
    const std::vector<const ModelParameters*> deployed(cohort.size(), &global);
    LaneAccumulators next(*rule, global);
    cohort_round(clients, cohort, sim.channel().broadcast(deployed, cohort),
                 opts.client, sim,
                 [&](std::size_t lane, std::size_t i, ModelParameters&& u) {
                   next[lane].fold(std::move(u), weights[cohort[i]], 0,
                                   static_cast<int>(cohort[i]));
                 });
    global = next.finish();
    if (opts.on_round) {
      opts.on_round(r, std::vector<ModelParameters>(clients.size(), global));
    }
  }
  global_ = global;
  return std::vector<ModelParameters>(clients.size(), global);
}

}  // namespace fleda
