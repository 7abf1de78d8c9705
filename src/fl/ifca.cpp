#include "fl/ifca.hpp"

#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace fleda {

std::vector<ModelParameters> IFCA::run_rounds(
    std::vector<Client>& clients, const ModelFactory& factory,
    const FLRunOptions& opts, FederationSim& sim,
    ParticipationPolicy& participation) {
  if (num_clusters_ <= 0) throw std::invalid_argument("IFCA: C <= 0");
  Rng rng(opts.seed);

  // Independent initialization per cluster (the algorithm relies on
  // initial diversity for cluster identifiability).
  std::vector<ModelParameters> cluster_models;
  cluster_models.reserve(static_cast<std::size_t>(num_clusters_));
  for (int c = 0; c < num_clusters_; ++c) {
    cluster_models.push_back(initial_model_parameters(factory, rng));
  }

  const std::vector<double> weights = client_weights(clients);
  const std::unique_ptr<AggregationRule> rule = sync_aggregation_rule(opts);
  assignment_.assign(clients.size(), 0);
  const std::size_t C = static_cast<std::size_t>(num_clusters_);

  for (int r = 0; r < opts.rounds; ++r) {
    const std::vector<std::size_t> cohort =
        select_cohort(participation, r, clients.size(), opts, sim);
    // 1) Selection broadcast: IFCA ships ALL C cluster models to every
    // cohort member each round (its dominant communication cost —
    // billed as |cohort|*C downlink messages, one wave per cluster
    // model so each member's C serial downloads count toward round
    // latency). Members select on what they decode.
    std::vector<std::vector<std::shared_ptr<const ModelParameters>>>
        waves;  // [c][cohort position]
    waves.reserve(C);
    for (std::size_t c = 0; c < C; ++c) {
      std::vector<const ModelParameters*> wave(cohort.size(),
                                               &cluster_models[c]);
      waves.push_back(sim.channel().broadcast(wave, cohort));
    }

    // 2) Cluster selection: lowest training loss among the C models,
    // for this round's cohort; absent clients keep their assignment.
    parallel_for(cohort.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        double best_loss = 1e300;
        int best_c = 0;
        for (std::size_t c = 0; c < C; ++c) {
          const double loss = clients[cohort[i]].evaluate_train_loss(
              *waves[c][i], selection_batches_);
          if (loss < best_loss) {
            best_loss = loss;
            best_c = static_cast<int>(c);
          }
        }
        assignment_[cohort[i]] = best_c;
      }
    });

    // 3) Local training of the chosen cluster model — already on the
    // client from the selection broadcast, so no second download. Each
    // decoded upload folds into its lane's accumulator for the
    // member's ASSIGNED cluster (each cluster's own model is the
    // delta/clipping reference); the barrier prices the round with each
    // member's C serial downloads in its billed traffic.
    std::vector<std::shared_ptr<const ModelParameters>> received;
    received.reserve(cohort.size());
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      received.push_back(
          waves[static_cast<std::size_t>(assignment_[cohort[i]])][i]);
    }
    std::vector<LaneAccumulators> next;
    next.reserve(C);
    for (std::size_t c = 0; c < C; ++c) {
      next.emplace_back(*rule, cluster_models[c]);
    }
    cohort_round(clients, cohort, received, opts.client, sim,
                 [&](std::size_t lane, std::size_t i, ModelParameters&& u) {
                   const auto c =
                       static_cast<std::size_t>(assignment_[cohort[i]]);
                   next[c][lane].fold(std::move(u), weights[cohort[i]], 0,
                                      static_cast<int>(cohort[i]));
                 });

    // 4) Per-cluster aggregation over this round's members; a dead
    // cluster (or an empty cohort) keeps its model.
    for (std::size_t c = 0; c < C; ++c) {
      if (next[c].merged().folds() == 0) continue;
      cluster_models[c] = next[c].finish();
    }

    if (opts.on_round) {
      std::vector<ModelParameters> snapshot;
      for (std::size_t k = 0; k < clients.size(); ++k) {
        snapshot.push_back(
            cluster_models[static_cast<std::size_t>(assignment_[k])]);
      }
      opts.on_round(r, snapshot);
    }
  }

  std::vector<ModelParameters> finals;
  finals.reserve(clients.size());
  for (std::size_t k = 0; k < clients.size(); ++k) {
    finals.push_back(cluster_models[static_cast<std::size_t>(assignment_[k])]);
  }
  return finals;
}

}  // namespace fleda
