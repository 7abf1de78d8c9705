#include "fl/client.hpp"

#include <stdexcept>
#include <utility>

#include "metrics/roc_auc.hpp"
#include "nn/loss.hpp"
#include "obs/profiler.hpp"

namespace fleda {

Client::Client(int id, const ClientDataset* data,
               std::shared_ptr<ModelPool> pool, Rng rng)
    : id_(id), data_(data), pool_(std::move(pool)), rng_(rng) {
  if (data_ == nullptr || data_->train.empty() || data_->test.empty()) {
    throw std::invalid_argument("Client: empty dataset for client " +
                                std::to_string(id));
  }
  if (pool_ == nullptr) {
    throw std::invalid_argument("Client: null model pool for client " +
                                std::to_string(id));
  }
}

ModelParameters Client::train_steps(const ModelParameters& start, int steps,
                                    const ClientTrainConfig& cfg,
                                    const ModelParameters* anchor) {
  ModelLease lease = pool_->acquire();
  RoutabilityModel& model = lease.model();
  start.apply_to(model);

  AdamOptions aopts;
  aopts.lr = cfg.learning_rate;
  aopts.weight_decay = cfg.l2_regularization;
  Adam& optimizer = lease.adam(aopts);
  if (cfg.reset_optimizer || adam_moments_.empty()) {
    // Fresh moments, exactly like constructing a new Adam each round.
    optimizer.reset_state();
  } else {
    optimizer.import_moments(adam_moments_);
  }

  BatchSampler sampler(data_->train.size(),
                       static_cast<std::size_t>(cfg.batch_size),
                       rng_.fork(0x6261746368ull));

  // Validate the anchor against the model's parameter order up front
  // (buffers are not part of the proximal term; the mu-gradient loop
  // below walks anchor->entries() directly).
  if (anchor != nullptr) {
    const auto params = model.parameters();
    std::size_t i = 0;
    for (const ParameterEntry& e : anchor->entries()) {
      if (e.is_buffer) continue;
      if (i >= params.size() || params[i]->name != e.name) {
        throw std::invalid_argument("Client: anchor/model mismatch at " +
                                    e.name);
      }
      ++i;
    }
  }

  double loss_acc = 0.0;
  for (int step = 0; step < steps; ++step) {
    Batch batch = make_batch(data_->train, sampler.next());
    optimizer.zero_grad();
    LossResult loss;
    {
      ProfileScope fwd(phase::kTrainForward);
      Tensor pred = model.forward(batch.x, /*training=*/true);
      loss = mse_loss(pred, batch.y);
    }
    loss_acc += loss.value;
    {
      ProfileScope bwd(phase::kTrainBackward);
      model.backward(loss.grad);
      if (anchor != nullptr && cfg.mu > 0.0) {
        // grad += mu * (w - W^r)
        const auto params = model.parameters();
        std::size_t i = 0;
        for (const ParameterEntry& e : anchor->entries()) {
          if (e.is_buffer) continue;
          Parameter* p = params[i++];
          const float mu = static_cast<float>(cfg.mu);
          float* g = p->grad.data();
          const float* w = p->value.data();
          const float* a = e.value.data();
          const std::int64_t n = p->value.numel();
          for (std::int64_t j = 0; j < n; ++j) g[j] += mu * (w[j] - a[j]);
        }
      }
    }
    ProfileScope opt(phase::kTrainOptimizer);
    optimizer.step();
  }
  last_train_loss_ = steps > 0 ? static_cast<float>(loss_acc / steps) : 0.0f;

  if (cfg.reset_optimizer) {
    adam_moments_.clear();
  } else {
    // The scratch optimizer goes back to the pool; the moments are the
    // client's to keep.
    adam_moments_ = optimizer.export_moments();
  }
  return ModelParameters::from_model(model);
}

ModelParameters Client::local_update(const ModelParameters& start,
                                     const ClientTrainConfig& cfg) {
  return train_steps(start, cfg.steps, cfg, &start);
}

ModelParameters Client::fine_tune(const ModelParameters& start, int steps,
                                  const ClientTrainConfig& cfg) {
  return train_steps(start, steps, cfg, /*anchor=*/nullptr);
}

double Client::evaluate_train_loss(const ModelParameters& params,
                                   int max_batches) {
  ModelLease lease = pool_->acquire();
  RoutabilityModel& model = lease.model();
  params.apply_to(model);
  BatchSampler sampler(data_->train.size(), 8, rng_.fork(0x6c6f7373ull));
  double acc = 0.0;
  int batches = 0;
  for (int b = 0; b < max_batches; ++b) {
    Batch batch = make_batch(data_->train, sampler.next());
    Tensor pred = model.forward(batch.x, /*training=*/false);
    acc += mse_loss(pred, batch.y).value;
    ++batches;
  }
  return batches > 0 ? acc / batches : 0.0;
}

double Client::evaluate_test_auc(const ModelParameters& params) {
  ModelLease lease = pool_->acquire();
  RoutabilityModel& model = lease.model();
  params.apply_to(model);
  AucAccumulator auc;
  // Evaluate in small batches to bound activation memory.
  const std::size_t chunk = 8;
  for (std::size_t begin = 0; begin < data_->test.size(); begin += chunk) {
    std::vector<std::size_t> idx;
    for (std::size_t i = begin;
         i < std::min(begin + chunk, data_->test.size()); ++i) {
      idx.push_back(i);
    }
    Batch batch = make_batch(data_->test, idx);
    Tensor pred = model.forward(batch.x, /*training=*/false);
    auc.add(pred, batch.y);
  }
  return auc.auc();
}

}  // namespace fleda
