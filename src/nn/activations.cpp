#include "nn/activations.hpp"

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
  // dy is loaded whether or not it is kept, so the select compiles to
  // vector compares and masks (loaded only when kept, it made a branchy
  // scalar loop ~10x slower than forward). Where in <= 0 or NaN, dx is
  // +0 whatever dy holds, NaN and infinities included.
  for (std::int64_t i = 0; i < n; ++i) {
    const float g = dy[i];
    dx[i] = in[i] > 0.0f ? g : 0.0f;
  }
  return grad;
}

}  // namespace fleda
