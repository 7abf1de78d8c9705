#include "nn/conv_transpose2d.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
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

  // Plan once per step; prepack the shared weight when packed.
  const GemmPlan plan = KernelPlanCache::global().plan_for(
      GemmOp::kAT, g.col_rows(), opts_.in_channels, g.col_cols());
  std::vector<float> wpack;
  if (plan.strategy == GemmStrategy::kPacked) {
    wpack.resize(packed_a_elems(plan));
    pack_a(plan, weight_.value.data(), wpack.data());
  }

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
      if (plan.strategy == GemmStrategy::kPacked) {
        gemm_packed_prepacked_a(plan, wpack.data(), x_n, cols,
                                /*accumulate=*/false);
      } else {
        matmul_at_reference(weight_.value.data(), x_n, cols, g.col_rows(),
                            opts_.in_channels, g.col_cols());
      }
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

  Tensor grad_input(input.shape());
  const std::int64_t in_stride = opts_.in_channels * H * W;
  const std::int64_t out_stride = opts_.out_channels * OH * OW;

  // dx reuses the weight across the batch: plan once, prepack once when
  // packed. dW's per-sample-A GEMM dispatches through matmul_bt.
  const GemmPlan dx_plan = KernelPlanCache::global().plan_for(
      GemmOp::kNN, opts_.in_channels, g.col_rows(), g.col_cols());
  std::vector<float> wpack;
  if (dx_plan.strategy == GemmStrategy::kPacked) {
    wpack.resize(packed_a_elems(dx_plan));
    pack_a(dx_plan, weight_.value.data(), wpack.data());
  }

  // Fixed-slice partials, reduced in slice order (see Conv2d::backward
  // for why a pool-size-dependent mutex merge would be
  // nondeterministic).
  const std::size_t batch = static_cast<std::size_t>(N);
  const std::size_t slices = std::min<std::size_t>(batch, 16);
  const std::size_t span = (batch + slices - 1) / slices;
  std::vector<Tensor> dw_partial(slices, Tensor(weight_.grad.shape()));
  std::vector<Tensor> db_partial(opts_.bias ? slices : 0,
                                 Tensor(bias_.grad.shape()));
  parallel_for(slices, [&](std::size_t sb, std::size_t se) {
    float* dcols = thread_scratch(
        ScratchSlot::kColsGrad,
        static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    for (std::size_t s = sb; s < se; ++s) {
      for (std::size_t n = s * span; n < std::min(batch, (s + 1) * span);
           ++n) {
        const float* dy =
            grad_output.data() + static_cast<std::int64_t>(n) * out_stride;
        // dcols = im2col(dy) (adjoint of the forward col2im)
        im2col(dy, g, dcols);
        // dx = W [Cin x Cout*k*k] * dcols [Cout*k*k x H*W]
        float* dx_n =
            grad_input.data() + static_cast<std::int64_t>(n) * in_stride;
        if (dx_plan.strategy == GemmStrategy::kPacked) {
          gemm_packed_prepacked_a(dx_plan, wpack.data(), dcols, dx_n,
                                  /*accumulate=*/false);
        } else {
          matmul_reference(weight_.value.data(), dcols, dx_n,
                           opts_.in_channels, g.col_rows(), g.col_cols());
        }
        // dW_s += x [Cin x H*W] * dcols^T
        matmul_bt(input.data() + static_cast<std::int64_t>(n) * in_stride,
                  dcols, dw_partial[s].data(), opts_.in_channels,
                  g.col_cols(), g.col_rows(), /*accumulate=*/true);
        if (opts_.bias) {
          for (std::int64_t co = 0; co < opts_.out_channels; ++co) {
            const float* chan = dy + co * OH * OW;
            double acc = 0.0;
            for (std::int64_t i = 0; i < OH * OW; ++i) acc += chan[i];
            db_partial[s][co] += static_cast<float>(acc);
          }
        }
      }
    }
  });
  for (std::size_t s = 0; s < slices; ++s) {
    add_inplace(weight_.grad, dw_partial[s]);
    if (opts_.bias) add_inplace(bias_.grad, db_partial[s]);
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
