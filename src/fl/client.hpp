// Client: one data owner in the decentralized training setting. Owns
// a private dataset (never exposed through this interface beyond its
// size) and implements the FedProx local objective (paper Eq. 1):
//
//   L_Prox(w_k, W^r) = sum_i (w_k(X_i) - Y_i)^2 + mu * ||W^r - w_k||^2
//
// The proximal term's gradient mu*(w_k - W^r) is added to the MSE
// gradient each step (the constant factor 2 is absorbed into mu,
// matching the common FedProx implementation). mu = 0 recovers plain
// FedAvg local training.
//
// Clients do NOT own a model: for the duration of each local_update /
// fine_tune / evaluate call they borrow a scratch {model, Adam}
// instance from a ModelPool and load the caller's ModelParameters into
// it, so a K-client federation holds O(threads) model instances rather
// than O(K). Client-persistent state is limited to the dataset
// pointer, the rng stream, and — when reset_optimizer == false — the
// serialized Adam moments carried between rounds.
#pragma once

#include <memory>
#include <optional>

#include "data/dataset.hpp"
#include "fl/parameters.hpp"
#include "models/pool.hpp"
#include "models/registry.hpp"
#include "nn/optimizer.hpp"

namespace fleda {

struct ClientTrainConfig {
  int steps = 100;          // S: model update steps per round
  int batch_size = 8;
  double learning_rate = 2e-4;
  double l2_regularization = 1e-5;
  double mu = 1e-4;         // FedProx proximal strength (0 = FedAvg)
  // The paper restarts local optimization from the freshly deployed
  // aggregate each round; Adam moments are reset accordingly. With
  // false, the client's moments survive between calls (serialized as
  // AdamMoments — the pooled scratch optimizer itself is shared).
  bool reset_optimizer = true;
};

class Client {
 public:
  // Shares `pool`'s scratch models with every other client on it.
  // Construction builds no model and costs O(1): the client's rng
  // stream starts at its first training draw.
  Client(int id, const ClientDataset* data, std::shared_ptr<ModelPool> pool,
         Rng rng);

  // Movable (clients live in vectors), not copyable.
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  int id() const { return id_; }
  std::int64_t num_train() const { return data_->num_train(); }
  std::int64_t num_test() const { return data_->num_test(); }
  const ClientDataset& dataset() const { return *data_; }
  const ModelPool& pool() const { return *pool_; }

  // Loads `start` into a borrowed scratch model, trains cfg.steps
  // mini-batch steps with the FedProx objective anchored at `start`,
  // and returns the resulting parameters. Mean training loss is
  // exposed through last_train_loss().
  ModelParameters local_update(const ModelParameters& start,
                               const ClientTrainConfig& cfg);

  // Continues training from `start` WITHOUT a proximal anchor — the
  // paper's local fine-tuning personalization (runs outside the
  // decentralized constraint, purely client-side).
  ModelParameters fine_tune(const ModelParameters& start, int steps,
                            const ClientTrainConfig& cfg);

  // Mean MSE of `params` on up to `max_batches` training batches —
  // IFCA's cluster-selection criterion.
  double evaluate_train_loss(const ModelParameters& params, int max_batches);

  // ROC AUC of `params` on this client's private test data.
  double evaluate_test_auc(const ModelParameters& params);

  float last_train_loss() const { return last_train_loss_; }

 private:
  // Runs `steps` optimizer steps; anchor != nullptr enables the
  // proximal term.
  ModelParameters train_steps(const ModelParameters& start, int steps,
                              const ClientTrainConfig& cfg,
                              const ModelParameters* anchor);

  int id_ = 0;
  const ClientDataset* data_ = nullptr;
  std::shared_ptr<ModelPool> pool_;
  Rng rng_;
  float last_train_loss_ = 0.0f;
  // Persisted optimizer state for reset_optimizer == false runs; empty
  // means "start from zero moments".
  AdamMoments adam_moments_;
};

}  // namespace fleda
