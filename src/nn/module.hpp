// Layer-wise neural network abstraction with explicit forward /
// backward passes (no tape autograd): each Module caches what it needs
// during forward and consumes the output gradient in backward. This is
// all three paper models need (they are feed-forward FCNs with at most
// one additive shortcut, handled inside the model class).
//
// Parameters are named at construction ("input_conv.weight", ...);
// federated learning code flattens them by name, and FedProx-LG uses
// the names to split global vs local parts. BatchNorm running
// statistics are exposed as named buffers so that parameter
// aggregation can (and in FedAvg-style flows does) average them — the
// behaviour whose instability the paper's FLNet design avoids.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace fleda {

// A trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, const Shape& shape)
      : name(std::move(n)), value(shape), grad(shape) {}

  void zero_grad() { grad.fill(0.0f); }
  std::int64_t numel() const { return value.numel(); }
};

// A non-trainable state tensor (e.g. BatchNorm running mean/var).
struct NamedBuffer {
  std::string name;
  Tensor* tensor = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;

  // Runs the layer. `training` selects batch statistics vs running
  // statistics in BatchNorm and may be ignored by stateless layers.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  // Consumes dL/d(output) of the latest forward and returns
  // dL/d(input), accumulating parameter gradients (+=). A layer built
  // without an input gradient (Conv2dOptions::input_grad) returns an
  // empty Tensor, and so does a model whose first layer is one.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // Trainable parameters (stable order across calls).
  virtual std::vector<Parameter*> parameters() { return {}; }

  // Non-trainable state included in FL aggregation.
  virtual std::vector<NamedBuffer> buffers() { return {}; }

  // Human-readable layer description for logging.
  virtual std::string describe() const = 0;

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

  // Total trainable scalar count.
  std::int64_t num_parameters() {
    std::int64_t n = 0;
    for (Parameter* p : parameters()) n += p->numel();
    return n;
  }
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace fleda
