#include "nn/conv2d.hpp"

#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "tensor/conv_gemm.hpp"
#include "util/thread_pool.hpp"

namespace fleda {

Conv2d::Conv2d(std::string name, const Conv2dOptions& opts, Rng& rng)
    : name_(std::move(name)),
      opts_(opts),
      weight_(name_ + ".weight",
              Shape::of(opts.out_channels,
                        opts.in_channels * opts.kernel * opts.kernel)),
      bias_(name_ + ".bias", Shape::of(opts.out_channels)) {
  if (opts.in_channels <= 0 || opts.out_channels <= 0 || opts.kernel <= 0 ||
      opts.stride <= 0 || opts.dilation <= 0 || opts.padding < 0) {
    throw std::invalid_argument("Conv2d: bad options for " + name_);
  }
  kaiming_uniform(weight_.value,
                  /*fan_in=*/opts.in_channels * opts.kernel * opts.kernel, rng);
  // bias stays zero-initialized
}

ConvGeometry Conv2d::geometry(std::int64_t h, std::int64_t w) const {
  ConvGeometry g;
  g.channels = opts_.in_channels;
  g.height = h;
  g.width = w;
  g.kernel_h = g.kernel_w = opts_.kernel;
  g.pad_h = g.pad_w = opts_.padding;
  g.stride_h = g.stride_w = opts_.stride;
  g.dilation_h = g.dilation_w = opts_.dilation;
  return g;
}

std::pair<std::int64_t, std::int64_t> Conv2d::output_hw(std::int64_t h,
                                                        std::int64_t w) const {
  ConvGeometry g = geometry(h, w);
  return {g.out_height(), g.out_width()};
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  if (input.shape().rank() != 4 || input.shape().dim(1) != opts_.in_channels) {
    throw std::invalid_argument("Conv2d " + name_ + ": bad input shape " +
                                input.shape().to_string());
  }
  const std::int64_t N = input.shape().dim(0);
  const std::int64_t H = input.shape().dim(2);
  const std::int64_t W = input.shape().dim(3);
  ConvGeometry g = geometry(H, W);
  const std::int64_t OH = g.out_height();
  const std::int64_t OW = g.out_width();
  if (OH <= 0 || OW <= 0) {
    throw std::invalid_argument("Conv2d " + name_ + ": non-positive output");
  }

  // Only a training pass needs the input for backward; an evaluation
  // pass must not pin a batch-sized activation on the layer (at
  // K = 1000 every client evaluates, and those tensors add up).
  cached_input_ = training ? input : Tensor();
  Tensor output(Shape::of(N, opts_.out_channels, OH, OW));

  // Batch-parallel: output slices are disjoint, scratch is per-thread.
  // Under an outer parallel region this degrades to the serial loop.
  const ConvGemm gemm(g, opts_.out_channels, weight_.value.data());
  const std::int64_t in_stride = opts_.in_channels * H * W;
  const std::int64_t out_stride = opts_.out_channels * OH * OW;
  parallel_for(static_cast<std::size_t>(N), [&](std::size_t nb,
                                                std::size_t ne) {
    for (std::size_t n = nb; n < ne; ++n) {
      float* out_n = output.data() + static_cast<std::int64_t>(n) * out_stride;
      gemm.run(input.data() + static_cast<std::int64_t>(n) * in_stride, out_n);
      if (opts_.bias) {
        conv_add_bias(bias_.value.data(), opts_.out_channels, OH * OW, out_n);
      }
    }
  });
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  if (input.empty()) {
    throw std::logic_error("Conv2d " + name_ + ": backward before forward");
  }
  const std::int64_t N = input.shape().dim(0);
  const std::int64_t H = input.shape().dim(2);
  const std::int64_t W = input.shape().dim(3);
  ConvGeometry g = geometry(H, W);
  const std::int64_t OH = g.out_height();
  const std::int64_t OW = g.out_width();
  if (grad_output.shape() != Shape::of(N, opts_.out_channels, OH, OW)) {
    throw std::invalid_argument("Conv2d " + name_ + ": bad grad shape " +
                                grad_output.shape().to_string());
  }

  // dX = the forward's adjoint applied to dy, batch-parallel (each
  // sample writes its own slice).
  Tensor grad_input;
  if (opts_.input_grad) {
    grad_input = Tensor(input.shape());
    const ConvGemmAdjoint dx_gemm(g, opts_.out_channels,
                                  weight_.value.data());
    const std::int64_t in_stride = opts_.in_channels * H * W;
    const std::int64_t out_stride = opts_.out_channels * OH * OW;
    parallel_for(static_cast<std::size_t>(N), [&](std::size_t nb,
                                                  std::size_t ne) {
      for (std::size_t n = nb; n < ne; ++n) {
        dx_gemm.run(
            grad_output.data() + static_cast<std::int64_t>(n) * out_stride,
            grad_input.data() + static_cast<std::int64_t>(n) * in_stride);
      }
    });
  }

  // dW and db accumulate straight into the gradients, one sample at a
  // time in sample order, so their bits do not depend on the pool size
  // or on whether this runs inside a parallel region.
  conv_gemm_weight_grad(g, opts_.out_channels, N, grad_output.data(),
                        input.data(), weight_.grad.data());
  if (opts_.bias) {
    conv_bias_grad(grad_output.data(), N, opts_.out_channels, OH * OW,
                   bias_.grad.data());
  }
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (opts_.bias) return {&weight_, &bias_};
  return {&weight_};
}

std::string Conv2d::describe() const {
  return "Conv2d(" + name_ + ", " + std::to_string(opts_.in_channels) + "->" +
         std::to_string(opts_.out_channels) + ", k=" +
         std::to_string(opts_.kernel) + ", s=" + std::to_string(opts_.stride) +
         ", p=" + std::to_string(opts_.padding) + ", d=" +
         std::to_string(opts_.dilation) + ")";
}

}  // namespace fleda
