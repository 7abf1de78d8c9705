// AsyncFedAvg: buffered asynchronous FedAvg in the FedBuff tradition
// (Nguyen et al. 2022), the staleness-aware aggregation the ROADMAP
// names on top of the metered Channel. There is no round barrier:
// every client runs its own download -> train -> upload loop as events
// on the simulation clock, the server buffers incoming updates, and
// once `buffer_size` updates are waiting it folds their
// staleness-discounted deltas into the global model and bumps the
// model version. Slow clients (stragglers) therefore delay nobody —
// their updates simply arrive with higher staleness and a smaller
// discount weight — and clients that drop offline mid-upload lose the
// update and rejoin when their window ends.
#pragma once

#include "fl/aggregation.hpp"
#include "fl/trainer.hpp"

namespace fleda {

// The staleness discount and the server mixing rate are
// FLRunOptions::aggregation's `staleness` and `server_mix`: the empty
// rule runs StalenessDiscountedMix with them.
struct AsyncConfig {
  // Server aggregates once this many updates are buffered. 1 recovers
  // fully-async FedAsync; #clients approximates a soft sync round.
  int buffer_size = 3;
  // Dispatch gate: at most this many clients hold a dispatched model
  // (download -> train -> upload) at any instant; the rest wait FIFO
  // for a slot. The async analogue of cohort subsampling — a K = 1000
  // fleet no longer keeps all thousand clients busy (nor needs server
  // state for all of them at once). 0 = unlimited (every client loops).
  int max_in_flight = 0;
  // Staleness-aware tightening of the dispatch gate: when the oldest
  // buffered update is more than this many versions behind the current
  // model, the effective in-flight cap shrinks by one per excess
  // version (never below 1) — the server stops fanning out fresh work
  // it would mostly discount away, and the buffer catches up. Only
  // meaningful with max_in_flight > 0. 0 disables the tightening, and
  // the run is event-for-event identical to the fixed-cap gate.
  int staleness_gate_age = 0;
};

class AsyncFedAvg : public FederatedAlgorithm {
 public:
  explicit AsyncFedAvg(AsyncConfig config = {});

  std::string name() const override { return "AsyncFedAvg"; }
  // The event-driven loop is availability-aware by construction and
  // ignores the sync-barrier participation policy.
  bool uses_participation() const override { return false; }
  const AsyncConfig& config() const { return config_; }

 protected:
  // opts.rounds counts server aggregations (the async analogue of a
  // round); opts.client.mu is forced to 0 like FedAvg's.
  std::vector<ModelParameters> run_rounds(
      std::vector<Client>& clients, const ModelFactory& factory,
      const FLRunOptions& opts, FederationSim& sim,
      ParticipationPolicy& participation) override;

 private:
  AsyncConfig config_;
};

}  // namespace fleda
