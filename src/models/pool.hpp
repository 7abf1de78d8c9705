// ModelPool: a shared pool of scratch {model, Adam} pairs that keeps a
// K-client federation at O(threads) live model instances instead of
// O(K).
//
// Clients do not own models anymore — their persistent state is the
// lightweight ModelParameters they exchange (plus, when
// reset_optimizer == false, serialized AdamMoments). For the duration
// of one local_update / fine_tune / evaluate call a client borrows a
// scratch instance via acquire(), loads its parameters into it with
// ModelParameters::apply_to, and returns it when the lease goes out of
// scope. Because at most `ThreadPool::global().size() + 1` threads can
// be inside client work at once (pool workers plus the caller, which
// participates in parallel_for), the pool never holds more resident
// scratch instances than that — a thousand-client run trains on a
// handful of warm models whose weight/grad/moment buffers are reused
// round after round.
//
// Leases are handed out LIFO, so the hottest scratch instance (weights,
// gradients and Adam moments all recently touched) is reused first.
// All pool operations are thread-safe; the scratch model's weights are
// unspecified between leases (every borrower must apply_to before use,
// which the Client layer always does).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "models/registry.hpp"
#include "nn/optimizer.hpp"
#include "util/thread_safety.hpp"

namespace fleda {

class ModelPool;

// One borrowable scratch unit: a model plus the Adam optimizer bound to
// its parameters (built lazily on the first training lease and kept
// warm across leases).
struct ModelScratch {
  RoutabilityModelPtr model;
  std::unique_ptr<Adam> adam;
};

// Move-only RAII handle for one scratch instance; returns it to the
// pool on destruction.
class ModelLease {
 public:
  ModelLease() = default;
  ModelLease(ModelLease&& other) noexcept;
  ModelLease& operator=(ModelLease&& other) noexcept;
  ModelLease(const ModelLease&) = delete;
  ModelLease& operator=(const ModelLease&) = delete;
  ~ModelLease();

  explicit operator bool() const { return scratch_ != nullptr; }
  RoutabilityModel& model() const;

  // The scratch optimizer, (re)configured with `opts`. Moment buffers
  // carry whatever the previous lease left — callers reset_state() or
  // import_moments() before stepping.
  Adam& adam(const AdamOptions& opts) const;

 private:
  friend class ModelPool;
  ModelLease(ModelPool* pool, std::unique_ptr<ModelScratch> scratch)
      : pool_(pool), scratch_(std::move(scratch)) {}

  ModelPool* pool_ = nullptr;
  std::unique_ptr<ModelScratch> scratch_;
};

class ModelPool {
 public:
  // `max_resident` caps how many idle scratch instances the pool keeps
  // between leases; 0 resolves dynamically to
  // ThreadPool::global().size() + 1 (workers + the participating
  // caller). Leases themselves are never blocked by the cap — a release
  // beyond it simply destroys the instance.
  explicit ModelPool(ModelFactory factory, std::size_t max_resident = 0);

  ModelPool(const ModelPool&) = delete;
  ModelPool& operator=(const ModelPool&) = delete;

  // Borrows a scratch instance (reusing a warm one when available).
  ModelLease acquire();

  const ModelFactory& factory() const { return factory_; }

  // Idle scratch instances currently held.
  std::size_t resident() const;
  // Resolved resident cap (threads + 1 unless overridden).
  std::size_t capacity() const;
  // Total scratch instances ever constructed by this pool.
  std::uint64_t created() const;
  // Destroys all idle scratch instances (outstanding leases unaffected).
  void trim();

 private:
  friend class ModelLease;
  void release(std::unique_ptr<ModelScratch> scratch);

  ModelFactory factory_;
  std::size_t max_resident_ = 0;  // 0: dynamic threads + 1

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<ModelScratch>> idle_ FLEDA_GUARDED_BY(mutex_);
  std::uint64_t created_ FLEDA_GUARDED_BY(mutex_) = 0;
  // Private stream for scratch construction; scratch weights are
  // overwritten by apply_to before use, so this never affects results.
  Rng scratch_rng_ FLEDA_GUARDED_BY(mutex_){0x73637261746368ull};
};

}  // namespace fleda
