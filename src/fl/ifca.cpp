#include "fl/ifca.hpp"

#include "util/thread_pool.hpp"

namespace fleda {

std::vector<std::shared_ptr<const ModelParameters>> IFCA::deploy(
    std::vector<Client>& clients, const std::vector<std::size_t>& cohort,
    const std::vector<ModelParameters>& models, FederationSim& sim) {
  // 1) Selection broadcast: IFCA ships ALL C cluster models to every
  // cohort member each round (its dominant communication cost — billed
  // as |cohort|*C downlink messages, one wave per cluster model so each
  // member's C serial downloads count toward round latency). Members
  // select on what they decode.
  std::vector<std::vector<std::shared_ptr<const ModelParameters>>>
      waves;  // [c][cohort position]
  waves.reserve(models.size());
  for (const ModelParameters& m : models) {
    waves.push_back(sim.channel().broadcast(
        std::vector<const ModelParameters*>(cohort.size(), &m), cohort));
  }

  // 2) Cluster selection: lowest training loss among the C models, for
  // this round's cohort; absent clients keep their assignment.
  parallel_for(cohort.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      double best_loss = 1e300;
      int best_c = 0;
      for (std::size_t c = 0; c < waves.size(); ++c) {
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

  // 3) The chosen model is already on the client from the selection
  // broadcast, so training needs no second download.
  std::vector<std::shared_ptr<const ModelParameters>> received;
  received.reserve(cohort.size());
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    received.push_back(
        waves[static_cast<std::size_t>(assignment_[cohort[i]])][i]);
  }
  return received;
}

}  // namespace fleda
