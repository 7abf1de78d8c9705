#include "nn/conv2d.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "tensor/conv_direct.hpp"
#include "tensor/conv_gemm.hpp"
#include "tensor/plan.hpp"
#include "util/scratch.hpp"
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

  // The head runs the direct kernels on a padded copy of each sample;
  // every other layer the conv GEMM, whose weight panels are packed
  // once here and shared by the batch.
  const ConvIndex ix = direct() ? make_conv_index(g) : ConvIndex();
  std::optional<ConvGemm> gemm;
  if (!direct()) gemm.emplace(g, opts_.out_channels, weight_.value.data());

  const std::int64_t in_stride = opts_.in_channels * H * W;
  const std::int64_t out_stride = opts_.out_channels * OH * OW;
  // Batch-parallel: output slices are disjoint, scratch is per-thread.
  // Under an outer parallel region this degrades to the serial loop.
  parallel_for(static_cast<std::size_t>(N), [&](std::size_t nb,
                                                std::size_t ne) {
    for (std::size_t n = nb; n < ne; ++n) {
      const float* x = input.data() + static_cast<std::int64_t>(n) * in_stride;
      float* out_n = output.data() + static_cast<std::int64_t>(n) * out_stride;
      if (direct()) {
        float* padded = thread_scratch(
            ScratchSlot::kCols, static_cast<std::size_t>(ix.padded_elems()));
        pad_image(x, g, padded);
        direct_conv_forward(ix, padded, weight_.value.data(), out_n);
      } else {
        gemm->run(x, out_n);
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

std::vector<float> Conv2d::flipped_weight() const {
  const std::int64_t cin = opts_.in_channels;
  const std::int64_t cout = opts_.out_channels;
  const std::int64_t k = opts_.kernel;
  const std::int64_t taps = k * k;
  std::vector<float> flipped(static_cast<std::size_t>(cin * cout * taps));
  const float* w = weight_.value.data();
  for (std::int64_t co = 0; co < cout; ++co) {
    for (std::int64_t ci = 0; ci < cin; ++ci) {
      const float* src = w + (co * cin + ci) * taps;
      float* dst = flipped.data() + (ci * cout + co) * taps;
      for (std::int64_t t = 0; t < taps; ++t) dst[t] = src[taps - 1 - t];
    }
  }
  return flipped;
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
  const std::int64_t in_stride = opts_.in_channels * H * W;
  const std::int64_t out_stride = opts_.out_channels * OH * OW;
  const ConvIndex ix = direct() ? make_conv_index(g) : ConvIndex();

  // dX, batch-parallel (each sample writes its own slice):
  //   direct:    the head's gather kernel;
  //   stride 1:  the forward conv of dy, padded by d(k-1)-p, with the
  //              flipped, channel-transposed weight (ConvGemm);
  //   stride s:  W^T dy as columns (packed kAT, W packed once),
  //              scattered with col2im.
  Tensor grad_input;
  if (opts_.input_grad) {
    grad_input = Tensor(input.shape());
    std::vector<float> flipped;
    std::optional<ConvGemm> dx_gemm;
    GemmPlan at_plan;
    std::vector<float> wpack;
    if (!direct() && opts_.stride == 1) {
      ConvGeometry gd;
      gd.channels = opts_.out_channels;
      gd.height = OH;
      gd.width = OW;
      gd.kernel_h = gd.kernel_w = opts_.kernel;
      gd.pad_h = gd.pad_w = opts_.dilation * (opts_.kernel - 1) - opts_.padding;
      gd.dilation_h = gd.dilation_w = opts_.dilation;
      flipped = flipped_weight();
      dx_gemm.emplace(gd, opts_.in_channels, flipped.data());
    } else if (!direct()) {
      at_plan = make_gemm_plan(GemmOp::kAT, g.col_rows(),
                               opts_.out_channels, g.col_cols());
      wpack.resize(packed_a_elems(at_plan));
      pack_a(at_plan, weight_.value.data(), wpack.data());
    }
    const std::size_t grad_scratch = static_cast<std::size_t>(
        direct() ? direct_conv_input_grad_scratch(ix)
                 : g.col_rows() * g.col_cols());
    parallel_for(static_cast<std::size_t>(N), [&](std::size_t nb,
                                                  std::size_t ne) {
      for (std::size_t n = nb; n < ne; ++n) {
        const float* dy =
            grad_output.data() + static_cast<std::int64_t>(n) * out_stride;
        float* dx = grad_input.data() + static_cast<std::int64_t>(n) * in_stride;
        if (dx_gemm) {
          dx_gemm->run(dy, dx);
          continue;
        }
        float* buf = thread_scratch(ScratchSlot::kColsGrad, grad_scratch);
        if (direct()) {
          direct_conv_input_grad(ix, weight_.value.data(), dy, buf, dx);
          continue;
        }
        // dcols = W^T [rows x Cout] * dy [Cout x OHW]
        gemm_packed_prepacked_a(at_plan, wpack.data(), dy, buf,
                                /*accumulate=*/false);
        col2im(buf, g, dx);
      }
    });
  }

  // dW and db accumulate straight into the gradients, one sample at a
  // time in sample order, so their bits do not depend on the pool size
  // or on whether this runs inside a parallel region. dW is split
  // across the pool by weight columns instead: conv_gemm_weight_grad's
  // blocks of (channel, tap) columns, or the head's blocks of channels,
  // aligned to the dispatched ISA's tile rows or lane group.
  if (direct()) {
    const WeightGradBlocks blocks =
        weight_grad_blocks(opts_.in_channels, kernel_lanes(kernel_isa()));
    parallel_for(static_cast<std::size_t>(blocks.count), [&](std::size_t bb,
                                                             std::size_t be) {
      for (std::size_t blk = bb; blk < be; ++blk) {
        const std::int64_t c0 = static_cast<std::int64_t>(blk) * blocks.width;
        const std::int64_t c1 = std::min(opts_.in_channels, c0 + blocks.width);
        for (std::int64_t n = 0; n < N; ++n) {
          direct_conv_weight_grad(ix, input.data() + n * in_stride,
                                  grad_output.data() + n * out_stride,
                                  weight_.grad.data(), c0, c1);
        }
      }
    });
  } else {
    conv_gemm_weight_grad(g, opts_.out_channels, N, grad_output.data(),
                          input.data(), weight_.grad.data());
  }
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
