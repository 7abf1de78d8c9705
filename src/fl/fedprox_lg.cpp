#include "fl/fedprox_lg.hpp"

namespace fleda {

std::vector<ModelParameters> FedProxLG::run_rounds(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts, FederationSim& sim,
    ParticipationPolicy& participation) {
  Rng rng(opts.seed);
  ModelParameters global = initial_model_parameters(factory, rng);

  // Each client's full parameter state; the aggregated global part is
  // spliced in at deployment, the local part persists across rounds.
  std::vector<ModelParameters> client_state(clients.size(), global);
  auto is_global = [this](const std::string& n) { return !is_local_(n); };

  const std::vector<double> weights = client_weights(clients);
  const std::unique_ptr<AggregationRule> rule = sync_aggregation_rule(opts);
  for (int r = 0; r < opts.rounds; ++r) {
    const std::vector<std::size_t> cohort =
        select_cohort(participation, r, clients.size(), opts, sim);
    // Deploy: cohort member k starts from {G^r, l_k^r}; clients outside
    // the cohort keep their state untouched this round.
    std::vector<ModelParameters> deployed_storage;
    deployed_storage.reserve(cohort.size());
    for (std::size_t k : cohort) {
      deployed_storage.push_back(client_state[k].merged_with(global, is_global));
    }
    std::vector<const ModelParameters*> deployed;
    for (const auto& d : deployed_storage) deployed.push_back(&d);
    std::vector<ModelParameters> updates(cohort.size());
    cohort_round(clients, cohort, sim.channel().broadcast(deployed, cohort),
                 opts.client, sim,
                 [&](std::size_t, std::size_t i, ModelParameters&& u) {
                   updates[i] = std::move(u);
                 });
    // Server aggregates only the cohort's global parts; local parts
    // stay put on every client.
    std::vector<AggregationInput> inputs;
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      inputs.push_back({&updates[i], weights[cohort[i]], 0,
                        static_cast<int>(cohort[i])});
    }
    const ModelParameters aggregate = rule->aggregate(global, inputs);
    global = global.merged_with(aggregate, is_global);
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      client_state[cohort[i]] = std::move(updates[i]);
    }

    if (opts.on_round) {
      std::vector<ModelParameters> snapshot;
      for (std::size_t k = 0; k < clients.size(); ++k) {
        snapshot.push_back(client_state[k].merged_with(global, is_global));
      }
      opts.on_round(r, snapshot);
    }
  }

  // Final per-client models: {G^R, l_k^R}.
  std::vector<ModelParameters> finals;
  finals.reserve(clients.size());
  for (std::size_t k = 0; k < clients.size(); ++k) {
    finals.push_back(client_state[k].merged_with(global, is_global));
  }
  return finals;
}

}  // namespace fleda
