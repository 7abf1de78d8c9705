#include "nn/conv_transpose2d.hpp"

#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "tensor/conv_gemm.hpp"
#include "util/thread_pool.hpp"

namespace fleda {

ConvTranspose2d::ConvTranspose2d(std::string name,
                                 const ConvTranspose2dOptions& opts, Rng& rng)
    : name_(std::move(name)),
      opts_(opts),
      weight_(name_ + ".weight",
              Shape::of(opts.in_channels,
                        opts.out_channels * opts.kernel * opts.kernel)),
      bias_(name_ + ".bias", Shape::of(opts.out_channels)) {
  if (opts.in_channels <= 0 || opts.out_channels <= 0 || opts.kernel <= 0 ||
      opts.stride <= 0 || opts.padding < 0) {
    throw std::invalid_argument("ConvTranspose2d: bad options for " + name_);
  }
  kaiming_uniform(weight_.value,
                  /*fan_in=*/opts.in_channels * opts.kernel * opts.kernel, rng);
}

ConvGeometry ConvTranspose2d::out_geometry(std::int64_t out_h,
                                           std::int64_t out_w) const {
  ConvGeometry g;
  g.channels = opts_.out_channels;
  g.height = out_h;
  g.width = out_w;
  g.kernel_h = g.kernel_w = opts_.kernel;
  g.pad_h = g.pad_w = opts_.padding;
  g.stride_h = g.stride_w = opts_.stride;
  g.dilation_h = g.dilation_w = 1;
  return g;
}

Tensor ConvTranspose2d::forward(const Tensor& input, bool training) {
  if (input.shape().rank() != 4 || input.shape().dim(1) != opts_.in_channels) {
    throw std::invalid_argument("ConvTranspose2d " + name_ +
                                ": bad input shape " +
                                input.shape().to_string());
  }
  const std::int64_t N = input.shape().dim(0);
  const std::int64_t H = input.shape().dim(2);
  const std::int64_t W = input.shape().dim(3);
  const std::int64_t OH = opts_.out_size(H);
  const std::int64_t OW = opts_.out_size(W);
  if (OH <= 0 || OW <= 0) {
    throw std::invalid_argument("ConvTranspose2d " + name_ +
                                ": non-positive output");
  }
  ConvGeometry g = out_geometry(OH, OW);
  if (g.out_height() != H || g.out_width() != W) {
    throw std::logic_error("ConvTranspose2d " + name_ +
                           ": geometry inversion failed");
  }

  // See Conv2d::forward: eval passes must not pin the activation.
  cached_input_ = training ? input : Tensor();
  Tensor output(Shape::of(N, opts_.out_channels, OH, OW));

  // Conv2d's dX with this layer's weight, which is packed once for the
  // batch.
  const ConvGemmAdjoint gemm(g, opts_.in_channels, weight_.value.data());
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

Tensor ConvTranspose2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  if (input.empty()) {
    throw std::logic_error("ConvTranspose2d " + name_ +
                           ": backward before forward");
  }
  const std::int64_t N = input.shape().dim(0);
  const std::int64_t H = input.shape().dim(2);
  const std::int64_t W = input.shape().dim(3);
  const std::int64_t OH = opts_.out_size(H);
  const std::int64_t OW = opts_.out_size(W);
  if (grad_output.shape() != Shape::of(N, opts_.out_channels, OH, OW)) {
    throw std::invalid_argument("ConvTranspose2d " + name_ +
                                ": bad grad shape " +
                                grad_output.shape().to_string());
  }
  ConvGeometry g = out_geometry(OH, OW);

  // The adjoint of the forward is the conv of dy at this layer's
  // stride: dx = W [Cin x Cout*k*k] * cols(dy), batch-parallel, with
  // the weight panels packed once for the batch.
  Tensor grad_input(input.shape());
  const std::int64_t in_stride = opts_.in_channels * H * W;
  const std::int64_t out_stride = opts_.out_channels * OH * OW;
  const ConvGemm dx_gemm(g, opts_.in_channels, weight_.value.data());
  parallel_for(static_cast<std::size_t>(N), [&](std::size_t nb,
                                                std::size_t ne) {
    for (std::size_t n = nb; n < ne; ++n) {
      dx_gemm.run(
          grad_output.data() + static_cast<std::int64_t>(n) * out_stride,
          grad_input.data() + static_cast<std::int64_t>(n) * in_stride);
    }
  });
  // dW += x [Cin x H*W] * cols(dy)^T and db, straight into the
  // gradients in sample order (see Conv2d::backward).
  conv_gemm_weight_grad(g, opts_.in_channels, N, input.data(),
                        grad_output.data(), weight_.grad.data());
  if (opts_.bias) {
    conv_bias_grad(grad_output.data(), N, opts_.out_channels, OH * OW,
                   bias_.grad.data());
  }
  return grad_input;
}

std::vector<Parameter*> ConvTranspose2d::parameters() {
  if (opts_.bias) return {&weight_, &bias_};
  return {&weight_};
}

std::string ConvTranspose2d::describe() const {
  return "ConvTranspose2d(" + name_ + ", " +
         std::to_string(opts_.in_channels) + "->" +
         std::to_string(opts_.out_channels) + ", k=" +
         std::to_string(opts_.kernel) + ", s=" + std::to_string(opts_.stride) +
         ", p=" + std::to_string(opts_.padding) + ")";
}

}  // namespace fleda
