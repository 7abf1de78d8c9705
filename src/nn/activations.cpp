#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

namespace fleda {
namespace {

void check_backward_shape(const Tensor& cached, const Tensor& grad,
                          const char* layer) {
  if (cached.empty()) {
    throw std::logic_error(std::string(layer) + ": backward before forward");
  }
  if (cached.shape() != grad.shape()) {
    throw std::invalid_argument(std::string(layer) + ": bad grad shape");
  }
}

}  // namespace

// Like Conv2d, an evaluation pass caches nothing: backward needs the
// activation only after a training forward.
Tensor ReLU::forward(const Tensor& input, bool training) {
  cached_input_ = training ? input : Tensor();
  Tensor out(input.shape());
  const float* in = input.data();
  float* o = out.data();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] = in[i] > 0.0f ? in[i] : 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  check_backward_shape(cached_input_, grad_output, "ReLU");
  Tensor grad(grad_output.shape());
  const float* in = cached_input_.data();
  const float* dy = grad_output.data();
  float* dx = grad.data();
  const std::int64_t n = grad_output.numel();
  for (std::int64_t i = 0; i < n; ++i) dx[i] = in[i] > 0.0f ? dy[i] : 0.0f;
  return grad;
}

Tensor LeakyReLU::forward(const Tensor& input, bool training) {
  cached_input_ = training ? input : Tensor();
  Tensor out(input.shape());
  const float* in = input.data();
  float* o = out.data();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    o[i] = in[i] > 0.0f ? in[i] : slope_ * in[i];
  }
  return out;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  check_backward_shape(cached_input_, grad_output, "LeakyReLU");
  Tensor grad(grad_output.shape());
  const float* in = cached_input_.data();
  const float* dy = grad_output.data();
  float* dx = grad.data();
  const std::int64_t n = grad_output.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    dx[i] = in[i] > 0.0f ? dy[i] : slope_ * dy[i];
  }
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* in = input.data();
  float* o = out.data();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] = 1.0f / (1.0f + std::exp(-in[i]));
  cached_output_ = training ? out : Tensor();
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  check_backward_shape(cached_output_, grad_output, "Sigmoid");
  Tensor grad(grad_output.shape());
  const float* y = cached_output_.data();
  const float* dy = grad_output.data();
  float* dx = grad.data();
  const std::int64_t n = grad_output.numel();
  for (std::int64_t i = 0; i < n; ++i) dx[i] = dy[i] * y[i] * (1.0f - y[i]);
  return grad;
}

Tensor Tanh::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* in = input.data();
  float* o = out.data();
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] = std::tanh(in[i]);
  cached_output_ = training ? out : Tensor();
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  check_backward_shape(cached_output_, grad_output, "Tanh");
  Tensor grad(grad_output.shape());
  const float* y = cached_output_.data();
  const float* dy = grad_output.data();
  float* dx = grad.data();
  const std::int64_t n = grad_output.numel();
  for (std::int64_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
  return grad;
}

}  // namespace fleda
