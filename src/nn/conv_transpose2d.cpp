#include "nn/conv_transpose2d.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "tensor/conv_gemm.hpp"
#include "tensor/plan.hpp"
#include "util/scratch.hpp"
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

  // The weight is packed once for the batch.
  const GemmPlan plan = make_gemm_plan(GemmOp::kAT, g.col_rows(),
                                       opts_.in_channels, g.col_cols());
  std::vector<float> wpack(packed_a_elems(plan));
  pack_a(plan, weight_.value.data(), wpack.data());

  const std::int64_t in_stride = opts_.in_channels * H * W;
  const std::int64_t out_stride = opts_.out_channels * OH * OW;
  parallel_for(static_cast<std::size_t>(N), [&](std::size_t nb,
                                                std::size_t ne) {
    float* cols = thread_scratch(
        ScratchSlot::kCols,
        static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    for (std::size_t n = nb; n < ne; ++n) {
      // cols = W^T [Cout*k*k x Cin] * x [Cin x H*W]
      const float* x_n =
          input.data() + static_cast<std::int64_t>(n) * in_stride;
      gemm_packed_prepacked_a(plan, wpack.data(), x_n, cols,
                              /*accumulate=*/false);
      // scatter-add columns into the (zeroed) output image
      col2im(cols, g,
             output.data() + static_cast<std::int64_t>(n) * out_stride);
      if (opts_.bias) {
        float* out = output.data() + static_cast<std::int64_t>(n) * out_stride;
        for (std::int64_t co = 0; co < opts_.out_channels; ++co) {
          const float b = bias_.value[co];
          float* chan = out + co * OH * OW;
          for (std::int64_t i = 0; i < OH * OW; ++i) chan[i] += b;
        }
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

  // The adjoint of forward's col2im is the conv of dy at this layer's
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
