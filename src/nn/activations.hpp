// Pointwise activation layer: ReLU, the only one the models build.
#pragma once

#include "nn/module.hpp"

namespace fleda {

class ReLU : public Module {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string describe() const override { return "ReLU(" + name_ + ")"; }

 private:
  std::string name_;
  Tensor cached_input_;
};

}  // namespace fleda
