#include "fl/parameters.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace fleda {

ModelParameters::ModelParameters(const ModelParameters& other) noexcept
    : storage_(other.storage_) {
  if (storage_ != nullptr) {
    storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

ModelParameters::ModelParameters(ModelParameters&& other) noexcept
    : storage_(other.storage_) {
  other.storage_ = nullptr;
}

ModelParameters& ModelParameters::operator=(
    const ModelParameters& other) noexcept {
  // Take the new reference before dropping the old one: safe on
  // self-assignment.
  if (other.storage_ != nullptr) {
    other.storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  release(storage_);
  storage_ = other.storage_;
  return *this;
}

ModelParameters& ModelParameters::operator=(ModelParameters&& other) noexcept {
  if (this != &other) {
    release(storage_);
    storage_ = other.storage_;
    other.storage_ = nullptr;
  }
  return *this;
}

ModelParameters::~ModelParameters() { release(storage_); }

const std::vector<ParameterEntry>& ModelParameters::no_entries() {
  static const std::vector<ParameterEntry> kNone;
  return kNone;
}

void ModelParameters::release(Storage* storage) noexcept {
  // acq_rel: this handle's reads of the entries happen before the
  // delete, and before a last remaining owner's writes (see detach).
  if (storage != nullptr &&
      storage->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete storage;
  }
}

void ModelParameters::detach() {
  if (storage_ == nullptr) {
    storage_ = new Storage();
    return;
  }
  // The acquire pairs with release()'s fetch_sub: every read a former
  // co-owner made happens before this handle writes. A count of 1 can
  // only grow again by copying this very object.
  if (storage_->refs.load(std::memory_order_acquire) == 1) return;
  Storage* own = new Storage(storage_->entries);
  release(storage_);
  storage_ = own;
}

std::vector<ParameterEntry>& ModelParameters::mutable_entries() {
  detach();
  return storage_->entries;
}

ModelParameters ModelParameters::from_model(Module& model) {
  // Hot path (called once per local_update): one virtual walk each for
  // parameters and buffers, entries reserved up front so the snapshot
  // vector never reallocates mid-extraction.
  const std::vector<Parameter*> params = model.parameters();
  const std::vector<NamedBuffer> buffers = model.buffers();
  ModelParameters snapshot;
  std::vector<ParameterEntry>& entries = snapshot.mutable_entries();
  entries.reserve(params.size() + buffers.size());
  for (Parameter* p : params) {
    entries.push_back({p->name, false, p->value});
  }
  for (const NamedBuffer& b : buffers) {
    entries.push_back({b.name, true, *b.tensor});
  }
  return snapshot;
}

void ModelParameters::apply_to(Module& model) const {
  const std::vector<ParameterEntry>& mine = entries();
  std::size_t i = 0;
  for (Parameter* p : model.parameters()) {
    if (i >= mine.size() || mine[i].name != p->name ||
        mine[i].value.shape() != p->value.shape()) {
      throw std::invalid_argument("ModelParameters::apply_to: mismatch at " +
                                  p->name);
    }
    p->value = mine[i].value;
    ++i;
  }
  for (const NamedBuffer& b : model.buffers()) {
    if (i >= mine.size() || mine[i].name != b.name ||
        mine[i].value.shape() != b.tensor->shape()) {
      throw std::invalid_argument("ModelParameters::apply_to: mismatch at " +
                                  b.name);
    }
    *b.tensor = mine[i].value;
    ++i;
  }
  if (i != mine.size()) {
    throw std::invalid_argument(
        "ModelParameters::apply_to: model has fewer entries than snapshot");
  }
}

bool ModelParameters::structurally_equal(const ModelParameters& other) const {
  const std::vector<ParameterEntry>& mine = entries();
  const std::vector<ParameterEntry>& theirs = other.entries();
  if (mine.size() != theirs.size()) return false;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].name != theirs[i].name ||
        mine[i].is_buffer != theirs[i].is_buffer ||
        mine[i].value.shape() != theirs[i].value.shape()) {
      return false;
    }
  }
  return true;
}

void ModelParameters::add_scaled(const ModelParameters& other, double alpha) {
  if (!structurally_equal(other)) {
    throw std::invalid_argument("add_scaled: structure mismatch");
  }
  // Detach before reading `other`: if `other` is *this, both must name
  // the detached entries.
  std::vector<ParameterEntry>& mine = mutable_entries();
  const std::vector<ParameterEntry>& theirs = other.entries();
  for (std::size_t i = 0; i < mine.size(); ++i) {
    axpy(mine[i].value, static_cast<float>(alpha), theirs[i].value);
  }
}

void ModelParameters::scale(double alpha) {
  for (ParameterEntry& e : mutable_entries()) {
    scale_inplace(e.value, static_cast<float>(alpha));
  }
}

double ModelParameters::squared_l2_norm() const {
  double acc = 0.0;
  for (const ParameterEntry& e : entries()) {
    const float* d = e.value.data();
    const std::int64_t n = e.value.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      acc += static_cast<double>(d[i]) * d[i];
    }
  }
  return acc;
}

double ModelParameters::squared_distance(const ModelParameters& other) const {
  if (!structurally_equal(other)) {
    throw std::invalid_argument("squared_distance: structure mismatch");
  }
  const std::vector<ParameterEntry>& mine = entries();
  const std::vector<ParameterEntry>& theirs = other.entries();
  double acc = 0.0;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].is_buffer) continue;
    const Tensor& a = mine[i].value;
    const Tensor& b = theirs[i].value;
    for (std::int64_t j = 0; j < a.numel(); ++j) {
      const double d = static_cast<double>(a[j]) - b[j];
      acc += d * d;
    }
  }
  return acc;
}

double ModelParameters::squared_l2_distance(
    const ModelParameters& other) const {
  if (!structurally_equal(other)) {
    throw std::invalid_argument("squared_l2_distance: structure mismatch");
  }
  const std::vector<ParameterEntry>& mine = entries();
  const std::vector<ParameterEntry>& theirs = other.entries();
  double acc = 0.0;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const float* a = mine[i].value.data();
    const float* b = theirs[i].value.data();
    const std::int64_t n = mine[i].value.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(a[j]) - b[j];
      acc += d * d;
    }
  }
  return acc;
}

double ModelParameters::dot(const ModelParameters& other) const {
  if (!structurally_equal(other)) {
    throw std::invalid_argument("dot: structure mismatch");
  }
  const std::vector<ParameterEntry>& mine = entries();
  const std::vector<ParameterEntry>& theirs = other.entries();
  double acc = 0.0;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const float* a = mine[i].value.data();
    const float* b = theirs[i].value.data();
    const std::int64_t n = mine[i].value.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      acc += static_cast<double>(a[j]) * b[j];
    }
  }
  return acc;
}

ModelParameters ModelParameters::merged_with(
    const ModelParameters& other,
    const std::function<bool(const std::string&)>& take_other) const {
  if (!structurally_equal(other)) {
    throw std::invalid_argument("merged_with: structure mismatch");
  }
  const std::vector<ParameterEntry>& theirs = other.entries();
  ModelParameters result = *this;
  for (std::size_t i = 0; i < theirs.size(); ++i) {
    if (take_other(theirs[i].name)) {
      result.mutable_entries()[i].value = theirs[i].value;
    }
  }
  return result;
}

std::int64_t ModelParameters::numel() const {
  std::int64_t n = 0;
  for (const ParameterEntry& e : entries()) n += e.value.numel();
  return n;
}

bool is_output_layer_param(const std::string& name) {
  return name.rfind("output_conv", 0) == 0;
}

ModelParameters initial_model_parameters(const ModelFactory& factory,
                                         Rng& rng) {
  RoutabilityModelPtr init = factory(rng);
  return ModelParameters::from_model(*init);
}

}  // namespace fleda
