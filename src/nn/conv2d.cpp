#include "nn/conv2d.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "tensor/conv_direct.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

ImplicitCols implicit_cols(const ConvIndex& ix, const float* padded) {
  return ImplicitCols{padded, ix.row_offset.data(), ix.pixel_offset.data()};
}

}  // namespace

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

  // Three lowerings, all reading either a padded copy of each sample or
  // its im2col column matrix:
  //   direct   (Cout = 1, stride 1): the direct kernels, padded copy;
  //   implicit (planner packs):      B panels packed from the padded
  //                                  copy; the weight panels are packed
  //                                  once here, shared by the batch;
  //   im2col   (planner's reference strategy): the materialized cols.
  const ConvIndex ix = make_conv_index(g);
  GemmPlan plan;
  std::vector<float> wpack;
  if (!direct()) {
    plan = KernelPlanCache::global().plan_for(
        GemmOp::kNN, opts_.out_channels, g.col_rows(), g.col_cols());
    if (plan.strategy == GemmStrategy::kPacked) {
      wpack.resize(packed_a_elems(plan));
      pack_a(plan, weight_.value.data(), wpack.data());
    }
  }
  const bool implicit = plan.strategy == GemmStrategy::kPacked;
  const bool padded = direct() || implicit;
  const std::size_t buf_elems = static_cast<std::size_t>(
      padded ? ix.padded_elems() : g.col_rows() * g.col_cols());

  const std::int64_t in_stride = opts_.in_channels * H * W;
  const std::int64_t out_stride = opts_.out_channels * OH * OW;
  // Batch-parallel: output slices are disjoint, scratch is per-chunk.
  // Under an outer parallel region this degrades to the serial loop.
  parallel_for(static_cast<std::size_t>(N), [&](std::size_t nb,
                                                std::size_t ne) {
    float* buf = thread_scratch(ScratchSlot::kCols, buf_elems);
    for (std::size_t n = nb; n < ne; ++n) {
      const float* x = input.data() + static_cast<std::int64_t>(n) * in_stride;
      float* out_n = output.data() + static_cast<std::int64_t>(n) * out_stride;
      if (padded) {
        pad_image(x, g, buf);
      } else {
        im2col(x, g, buf);
      }
      // y = W [Cout x rows] * cols [rows x OHW]
      if (direct()) {
        direct_conv_forward(ix, buf, weight_.value.data(), out_n);
      } else if (implicit) {
        gemm_packed_implicit(plan, /*a=*/nullptr, wpack.data(),
                             implicit_cols(ix, buf), out_n,
                             /*accumulate=*/false);
      } else {
        matmul_reference(weight_.value.data(), buf, out_n, opts_.out_channels,
                         g.col_rows(), g.col_cols());
      }
      if (opts_.bias) {
        for (std::int64_t co = 0; co < opts_.out_channels; ++co) {
          const float b = bias_.value[co];
          float* chan = out_n + co * OH * OW;
          for (std::int64_t i = 0; i < OH * OW; ++i) chan[i] += b;
        }
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

  const bool want_dx = opts_.input_grad;
  Tensor grad_input = want_dx ? Tensor(input.shape()) : Tensor();
  const std::int64_t in_stride = opts_.in_channels * H * W;
  const std::int64_t out_stride = opts_.out_channels * OH * OW;

  // The same lowerings as forward: dW's GEMM (per-sample A = dy) packs
  // its B panels from the padded copy whenever the planner packs it; the
  // direct dW kernel pads each sample itself.
  // dcols = W^T dy reuses the weight across the whole batch: plan once,
  // prepack once when packed, then col2im.
  const ConvIndex ix = make_conv_index(g);
  GemmPlan dw_plan;
  GemmPlan dx_plan;
  std::vector<float> wpack;
  if (!direct()) {
    dw_plan = KernelPlanCache::global().plan_for(
        GemmOp::kBT, opts_.out_channels, g.col_cols(), g.col_rows());
    if (want_dx) {
      dx_plan = KernelPlanCache::global().plan_for(
          GemmOp::kAT, g.col_rows(), opts_.out_channels, g.col_cols());
      if (dx_plan.strategy == GemmStrategy::kPacked) {
        wpack.resize(packed_a_elems(dx_plan));
        pack_a(dx_plan, weight_.value.data(), wpack.data());
      }
    }
  }
  const bool implicit = dw_plan.strategy == GemmStrategy::kPacked;
  const std::size_t buf_elems = static_cast<std::size_t>(
      direct()   ? 0
      : implicit ? ix.padded_elems()
                 : g.col_rows() * g.col_cols());
  const std::size_t dbuf_elems = static_cast<std::size_t>(
      direct() ? direct_conv_input_grad_scratch(ix)
               : g.col_rows() * g.col_cols());

  // Batch-parallel over a FIXED number of slices (independent of the
  // thread-pool size), each with its own dW/db partial, reduced
  // serially in slice order below. Both properties matter: a per-chunk
  // mutex merge would make the float sums depend on chunk boundaries
  // (pool size) and completion order — the determinism tests compare
  // runs across pool sizes bit-for-bit.
  const std::size_t batch = static_cast<std::size_t>(N);
  const std::size_t slices = std::min<std::size_t>(batch, 16);
  const std::size_t span = (batch + slices - 1) / slices;
  std::vector<Tensor> dw_partial(slices, Tensor(weight_.grad.shape()));
  std::vector<Tensor> db_partial(opts_.bias ? slices : 0,
                                 Tensor(bias_.grad.shape()));
  parallel_for(slices, [&](std::size_t sb, std::size_t se) {
    float* buf = thread_scratch(ScratchSlot::kCols, buf_elems);
    float* dbuf =
        want_dx ? thread_scratch(ScratchSlot::kColsGrad, dbuf_elems) : nullptr;
    for (std::size_t s = sb; s < se; ++s) {
      for (std::size_t n = s * span; n < std::min(batch, (s + 1) * span);
           ++n) {
        const float* x =
            input.data() + static_cast<std::int64_t>(n) * in_stride;
        const float* dy =
            grad_output.data() + static_cast<std::int64_t>(n) * out_stride;
        float* dx = want_dx ? grad_input.data() +
                                  static_cast<std::int64_t>(n) * in_stride
                            : nullptr;
        if (direct()) {
          direct_conv_weight_grad(ix, x, dy, dw_partial[s].data());
          if (want_dx) {
            direct_conv_input_grad(ix, weight_.value.data(), dy, dbuf, dx);
          }
        } else {
          // dW_s += dy [Cout x OHW] * cols^T, from a rebuilt padded copy
          // or column matrix (cheaper than caching one per sample).
          if (implicit) {
            pad_image(x, g, buf);
            gemm_packed_implicit(dw_plan, dy, /*apack=*/nullptr,
                                 implicit_cols(ix, buf),
                                 dw_partial[s].data(), /*accumulate=*/true);
          } else {
            im2col(x, g, buf);
            matmul_bt_reference(dy, buf, dw_partial[s].data(),
                                opts_.out_channels, g.col_cols(),
                                g.col_rows(), /*accumulate=*/true);
          }
          if (want_dx) {
            // dcols = W^T [rows x Cout] * dy [Cout x OHW]
            if (dx_plan.strategy == GemmStrategy::kPacked) {
              gemm_packed_prepacked_a(dx_plan, wpack.data(), dy, dbuf,
                                      /*accumulate=*/false);
            } else {
              matmul_at_reference(weight_.value.data(), dy, dbuf,
                                  g.col_rows(), opts_.out_channels,
                                  g.col_cols());
            }
            col2im(dbuf, g, dx);
          }
        }
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
