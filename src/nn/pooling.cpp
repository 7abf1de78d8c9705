#include "nn/pooling.hpp"

#include <limits>
#include <stdexcept>

namespace fleda {

MaxPool2d::MaxPool2d(std::string name, const MaxPool2dOptions& opts)
    : name_(std::move(name)), opts_(opts) {
  if (opts.kernel <= 0 || opts.stride <= 0) {
    throw std::invalid_argument("MaxPool2d: bad options for " + name_);
  }
}

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  if (input.shape().rank() != 4) {
    throw std::invalid_argument("MaxPool2d " + name_ + ": bad input " +
                                input.shape().to_string());
  }
  const std::int64_t N = input.shape().dim(0);
  const std::int64_t C = input.shape().dim(1);
  const std::int64_t H = input.shape().dim(2);
  const std::int64_t W = input.shape().dim(3);
  const std::int64_t OH = (H - opts_.kernel) / opts_.stride + 1;
  const std::int64_t OW = (W - opts_.kernel) / opts_.stride + 1;
  if (OH <= 0 || OW <= 0) {
    throw std::invalid_argument("MaxPool2d " + name_ + ": window too large");
  }

  // Only a training pass records where each maximum came from; an
  // evaluation pass computes the maxima alone and leaves the layer with
  // nothing to run backward through.
  cached_input_shape_ = input.shape();
  Tensor out(Shape::of(N, C, OH, OW));
  if (training) {
    argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
  } else {
    argmax_.clear();
  }

  std::int64_t oidx = 0;
  for (std::int64_t n = 0; n < N; ++n) {
    for (std::int64_t c = 0; c < C; ++c) {
      const float* chan = input.data() + (n * C + c) * H * W;
      for (std::int64_t oh = 0; oh < OH; ++oh) {
        for (std::int64_t ow = 0; ow < OW; ++ow, ++oidx) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (std::int64_t kh = 0; kh < opts_.kernel; ++kh) {
            const std::int64_t ih = oh * opts_.stride + kh;
            for (std::int64_t kw = 0; kw < opts_.kernel; ++kw) {
              const std::int64_t iw = ow * opts_.stride + kw;
              const std::int64_t idx = ih * W + iw;
              if (chan[idx] > best) {
                best = chan[idx];
                best_idx = idx;
              }
            }
          }
          out[oidx] = best;
          if (training) {
            argmax_[static_cast<std::size_t>(oidx)] =
                (n * C + c) * H * W + best_idx;
          }
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (argmax_.empty()) {
    throw std::logic_error("MaxPool2d " + name_ + ": backward before forward");
  }
  if (grad_output.numel() != static_cast<std::int64_t>(argmax_.size())) {
    throw std::invalid_argument("MaxPool2d " + name_ + ": bad grad shape");
  }
  Tensor grad_input(cached_input_shape_);
  const float* dy = grad_output.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    grad_input[argmax_[i]] += dy[i];
  }
  return grad_input;
}

std::string MaxPool2d::describe() const {
  return "MaxPool2d(" + name_ + ", k=" + std::to_string(opts_.kernel) +
         ", s=" + std::to_string(opts_.stride) + ")";
}

}  // namespace fleda
