// FedAvg (McMahan et al. 2017): the baseline FL round loop of Fig. 1
// with plain local SGD/Adam training — FedProx without the proximal
// term. Included for the convergence-comparison bench; the paper
// builds on FedProx.
#pragma once

#include "fl/fedprox.hpp"

namespace fleda {

class FedAvg : public FedProx {
 public:
  std::string name() const override { return "FedAvg"; }

 protected:
  std::vector<ModelParameters> run_rounds(
      std::vector<Client>& clients, const ModelFactory& factory,
      const FLRunOptions& opts, FederationSim& sim,
      ParticipationPolicy& participation) override {
    FLRunOptions plain = opts;
    plain.client.mu = 0.0;
    return FedProx::run_rounds(clients, factory, plain, sim, participation);
  }
};

}  // namespace fleda
