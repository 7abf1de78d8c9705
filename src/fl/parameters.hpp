// ModelParameters: a named snapshot of a model's state (trainable
// parameters + non-trainable buffers such as BatchNorm running
// statistics). This is the unit of communication in the decentralized
// training setting: clients send ModelParameters to the developer, the
// developer aggregates and sends ModelParameters back — never data.
//
// Buffers are included in aggregation on purpose: averaging BatchNorm
// running statistics across heterogeneous clients is precisely the
// instability the paper's FLNet design sidesteps.
//
// A snapshot is a value with shared storage: copying one only bumps a
// reference count, so deploying one model to K clients costs K
// handles, not K models. Every mutating member first detaches, i.e.
// deep-copies the entries, but only while another handle shares them.
// Copies of one snapshot may be read from any number of threads at
// once, and each thread may mutate its own copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "models/registry.hpp"
#include "nn/module.hpp"

namespace fleda {

struct ParameterEntry {
  std::string name;
  bool is_buffer = false;
  Tensor value;
};

class ModelParameters {
 public:
  ModelParameters() = default;
  ModelParameters(const ModelParameters& other) noexcept;
  ModelParameters(ModelParameters&& other) noexcept;
  ModelParameters& operator=(const ModelParameters& other) noexcept;
  ModelParameters& operator=(ModelParameters&& other) noexcept;
  ~ModelParameters();

  // Snapshots a model's parameters and buffers (deep copy).
  static ModelParameters from_model(Module& model);

  // Writes values back into a model with identical architecture.
  // Throws std::invalid_argument on any name/shape mismatch.
  void apply_to(Module& model) const;

  // this += alpha * other (entrywise; structures must match).
  void add_scaled(const ModelParameters& other, double alpha);
  void scale(double alpha);

  // Sum over trainable entries of ||a - b||^2 (buffers excluded) —
  // the FedProx proximal distance.
  double squared_distance(const ModelParameters& other) const;

  // ||a - b||^2 over ALL entries (buffers included, like
  // squared_l2_norm) — the pairwise distance Krum-style rules score
  // on: a poisoned buffer must count against its sender too. Computed
  // without materializing the difference snapshot, so the O(n^2)
  // pairwise pass over a cohort allocates nothing.
  double squared_l2_distance(const ModelParameters& other) const;

  // <this, other> over ALL entries — the anomaly detector's cosine
  // ingredient. Accumulated in double; NaN/Inf operands propagate.
  double dot(const ModelParameters& other) const;

  // ||this||^2 over ALL entries (buffers included). Doubles as the
  // aggregation layer's finiteness probe: the sum is NaN/Inf iff some
  // value is, so one accumulation pass screens a whole update.
  double squared_l2_norm() const;

  // Merge: entries whose name satisfies `take_other` come from
  // `other`, the rest from *this. Used by FedProx-LG to combine the
  // aggregated global part with each client's private local part.
  ModelParameters merged_with(
      const ModelParameters& other,
      const std::function<bool(const std::string&)>& take_other) const;

  bool structurally_equal(const ModelParameters& other) const;
  std::int64_t numel() const;
  bool empty() const { return entries().empty(); }
  // The reference is valid until this object is mutated, assigned or
  // destroyed.
  const std::vector<ParameterEntry>& entries() const {
    return storage_ != nullptr ? storage_->entries : no_entries();
  }
  // Mutable access for mechanisms that transform snapshots in place
  // (e.g. the DP Gaussian mechanism), which must not change its
  // structure (names, shapes, order), and for decoders that build one.
  // Detaches first, so writes never reach another copy. The returned
  // reference is valid only until this object is copied or assigned:
  // after a copy, writes through it would reach the copy too, so call
  // mutable_entries() again instead of keeping the reference.
  std::vector<ParameterEntry>& mutable_entries();

 private:
  // Entry storage shared by every copy of one snapshot; `refs` counts
  // the handles. A handle writes only while it is the sole owner.
  struct Storage {
    Storage() = default;
    explicit Storage(const std::vector<ParameterEntry>& e) : entries(e) {}
    std::atomic<std::int64_t> refs{1};
    std::vector<ParameterEntry> entries;
  };

  static const std::vector<ParameterEntry>& no_entries();
  static void release(Storage* storage) noexcept;
  // Makes storage_ exclusively this handle's, deep-copying the entries
  // if another handle shares them.
  void detach();

  Storage* storage_ = nullptr;
};

// Name predicate for the paper's FedProx-LG split: the models' output
// layer ("output_conv.*") is the private local part.
bool is_output_layer_param(const std::string& name);

// Builds one model instance from `factory`, snapshots it, and destroys
// it before returning. Round loops use this for their initial global /
// cluster parameters so no algorithm pins a whole model for the length
// of a run — the O(threads) live-instance budget belongs to the
// scratch-model pool.
ModelParameters initial_model_parameters(const ModelFactory& factory,
                                         Rng& rng);

}  // namespace fleda
