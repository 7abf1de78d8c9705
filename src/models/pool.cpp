#include "models/pool.hpp"

#include <stdexcept>
#include <utility>

#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace fleda {

ModelLease::ModelLease(ModelLease&& other) noexcept
    : pool_(other.pool_), scratch_(std::move(other.scratch_)) {
  other.pool_ = nullptr;
}

ModelLease& ModelLease::operator=(ModelLease&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr && scratch_ != nullptr) {
      pool_->release(std::move(scratch_));
    }
    pool_ = other.pool_;
    scratch_ = std::move(other.scratch_);
    other.pool_ = nullptr;
  }
  return *this;
}

ModelLease::~ModelLease() {
  if (pool_ != nullptr && scratch_ != nullptr) {
    pool_->release(std::move(scratch_));
  }
}

RoutabilityModel& ModelLease::model() const {
  if (scratch_ == nullptr) {
    throw std::logic_error("ModelLease: accessing an empty lease");
  }
  return *scratch_->model;
}

Adam& ModelLease::adam(const AdamOptions& opts) const {
  if (scratch_ == nullptr) {
    throw std::logic_error("ModelLease: accessing an empty lease");
  }
  if (scratch_->adam == nullptr) {
    scratch_->adam =
        std::make_unique<Adam>(scratch_->model->parameters(), opts);
  } else {
    scratch_->adam->set_options(opts);
  }
  return *scratch_->adam;
}

ModelPool::ModelPool(ModelFactory factory, std::size_t max_resident)
    : factory_(std::move(factory)), max_resident_(max_resident) {
  if (!factory_) {
    throw std::invalid_argument("ModelPool: empty factory");
  }
}

ModelLease ModelPool::acquire() {
  // The span separates cheap reuse hits from cold model constructions
  // (max_ms surfaces the cold-start cost; count x min_ms the steady
  // state).
  ProfileScope prof(phase::kPoolAcquire);
  Rng build_rng(0);
  {
    MutexLock lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<ModelScratch> scratch = std::move(idle_.back());
      idle_.pop_back();
      return ModelLease(this, std::move(scratch));
    }
    ++created_;
    build_rng = scratch_rng_.fork(created_);
  }
  // Construct outside the lock: a cold start on many threads shouldn't
  // serialize on the pool mutex.
  auto scratch = std::make_unique<ModelScratch>();
  scratch->model = factory_(build_rng);
  return ModelLease(this, std::move(scratch));
}

std::size_t ModelPool::resident() const {
  MutexLock lock(mutex_);
  return idle_.size();
}

std::size_t ModelPool::capacity() const {
  if (max_resident_ > 0) return max_resident_;
  // Workers plus the caller, which participates in parallel_for.
  return ThreadPool::global().size() + 1;
}

std::uint64_t ModelPool::created() const {
  MutexLock lock(mutex_);
  return created_;
}

void ModelPool::trim() {
  MutexLock lock(mutex_);
  idle_.clear();
}

void ModelPool::release(std::unique_ptr<ModelScratch> scratch) {
  const std::size_t cap = capacity();
  MutexLock lock(mutex_);
  if (idle_.size() < cap) {
    idle_.push_back(std::move(scratch));
  }
  // Beyond the cap the instance is simply destroyed (e.g. after a
  // ThreadPool::reset_global to a smaller size).
}

}  // namespace fleda
