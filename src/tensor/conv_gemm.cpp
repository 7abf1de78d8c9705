#include "tensor/conv_gemm.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/conv_direct.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

ImplicitCols implicit_cols(const ConvIndex& ix, const float* padded) {
  return ImplicitCols{padded, ix.row_offset.data(), ix.pixel_offset.data()};
}

bool unit_stride(const ConvGeometry& g) {
  return g.stride_h == 1 && g.stride_w == 1;
}

// The stride-1 dX conv of `g` (see the header): x [m, OH, OW] padded by
// d(k-1)-p, whose conv is [C, H, W] again.
ConvGeometry flipped_geometry(const ConvGeometry& g, std::int64_t m) {
  ConvGeometry d = g;
  d.channels = m;
  d.height = g.out_height();
  d.width = g.out_width();
  d.pad_h = g.dilation_h * (g.kernel_h - 1) - g.pad_h;
  d.pad_w = g.dilation_w * (g.kernel_w - 1) - g.pad_w;
  return d;
}

// W'[c, (i, t)] = a[i, (c, taps-1-t)]: the taps reversed (both kh and
// kw) and the channel axes swapped.
std::vector<float> flipped_weight(const ConvGeometry& g, std::int64_t m,
                                  const float* a) {
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  std::vector<float> flipped(static_cast<std::size_t>(g.col_rows() * m));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      const float* src = a + (i * g.channels + c) * taps;
      float* dst = flipped.data() + (c * m + i) * taps;
      for (std::int64_t t = 0; t < taps; ++t) dst[t] = src[taps - 1 - t];
    }
  }
  return flipped;
}

}  // namespace

ConvGemm::ConvGemm(const ConvGeometry& g, std::int64_t m, const float* a)
    : ix_(make_conv_index(g)), direct_(m == 1 && unit_stride(g)) {
  if (direct_) {
    apack_.assign(a, a + g.col_rows());
    return;
  }
  plan_ = make_gemm_plan(GemmOp::kNN, m, g.col_rows(), g.col_cols());
  apack_.resize(packed_a_elems(plan_));
  pack_a(plan_, a, apack_.data());
}

void ConvGemm::run(const float* image, float* out) const {
  if (direct_) {
    direct_conv_forward(ix_, image, apack_.data(), out);
    return;
  }
  float* padded = thread_scratch(
      ScratchSlot::kCols, static_cast<std::size_t>(ix_.padded_elems()));
  pad_image(image, ix_.geometry, padded);
  gemm_packed_implicit(plan_, /*a=*/nullptr, apack_.data(),
                       implicit_cols(ix_, padded), out, /*accumulate=*/false,
                       0, plan_.shape.n);
}

ConvGemmAdjoint::ConvGemmAdjoint(const ConvGeometry& g, std::int64_t m,
                                 const float* a)
    : g_(g) {
  if (unit_stride(g)) {
    flipped_.emplace(flipped_geometry(g, m), g.channels,
                     flipped_weight(g, m, a).data());
    return;
  }
  plan_ = make_gemm_plan(GemmOp::kAT, g.col_rows(), m, g.col_cols());
  apack_.resize(packed_a_elems(plan_));
  pack_a(plan_, a, apack_.data());
}

void ConvGemmAdjoint::run(const float* x, float* image) const {
  if (flipped_) {
    flipped_->run(x, image);
    return;
  }
  float* cols = thread_scratch_aligned(
      ScratchSlot::kCols,
      static_cast<std::size_t>(g_.col_rows() * g_.col_cols()));
  gemm_packed_prepacked_a(plan_, apack_.data(), x, cols,
                          /*accumulate=*/false);
  std::memset(image, 0, sizeof(float) * g_.channels * g_.height * g_.width);
  col2im(cols, g_, image);
}

WeightGradBlocks weight_grad_blocks(std::int64_t total, std::int64_t align) {
  WeightGradBlocks b;
  const std::int64_t per = (total + kWeightGradBlocks - 1) / kWeightGradBlocks;
  b.width = std::max<std::int64_t>(align, (per + align - 1) / align * align);
  b.count = (total + b.width - 1) / b.width;
  return b;
}

void conv_gemm_weight_grad(const ConvGeometry& g, std::int64_t m,
                           std::int64_t batch, const float* a,
                           const float* images, float* c) {
  if (m == 1 && unit_stride(g)) {
    direct_conv_weight_grad(g, batch, a, images, c);
    return;
  }
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t a_stride = m * pixels;
  const std::int64_t plane = g.height * g.width;
  const std::int64_t image_stride = g.channels * plane;
  // c^T [rows, m] += cols [rows, pixels] * a_n^T: a_n, stored [m,
  // pixels], is the kBT plan's B, packed once per sample and shared by
  // every block.
  const GemmPlan plan = make_gemm_plan(GemmOp::kBT, rows, pixels, m);
  const std::size_t bpack_elems = packed_b_elems(plan);
  float* bpack = thread_scratch_aligned(
      ScratchSlot::kPackB, static_cast<std::size_t>(batch) * bpack_elems);
  for (std::int64_t n = 0; n < batch; ++n) {
    pack_b(plan, a + n * a_stride,
           bpack + static_cast<std::size_t>(n) * bpack_elems);
  }
  const ConvIndex ix = make_conv_index(g);
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  const std::int64_t padded_plane = ix.padded_height * ix.padded_width;
  const WeightGradBlocks blocks =
      weight_grad_blocks(rows, gemm_kernel_rows(plan.isa));
  parallel_for(static_cast<std::size_t>(blocks.count), [&](std::size_t bb,
                                                           std::size_t be) {
    float* padded = thread_scratch(
        ScratchSlot::kCols, static_cast<std::size_t>(ix.padded_elems()));
    for (std::size_t blk = bb; blk < be; ++blk) {
      const std::int64_t i0 = static_cast<std::int64_t>(blk) * blocks.width;
      const std::int64_t i1 = std::min(rows, i0 + blocks.width);
      // Rows are (channel, tap): pad only the channels they read, in
      // place in the full padded layout the ConvIndex addresses.
      ConvGeometry part = g;
      const std::int64_t c0 = i0 / taps;
      part.channels = (i1 + taps - 1) / taps - c0;
      for (std::int64_t n = 0; n < batch; ++n) {
        pad_image(images + n * image_stride + c0 * plane, part,
                  padded + c0 * padded_plane);
        gemm_packed_implicit_a(
            plan, implicit_cols(ix, padded),
            bpack + static_cast<std::size_t>(n) * bpack_elems, c, i0, i1);
      }
    }
  });
}

void conv_add_bias(const float* bias, std::int64_t channels,
                   std::int64_t pixels, float* y) {
  for (std::int64_t co = 0; co < channels; ++co) {
    const float b = bias[co];
    float* chan = y + co * pixels;
    for (std::int64_t i = 0; i < pixels; ++i) chan[i] += b;
  }
}

void conv_bias_grad(const float* dy, std::int64_t batch,
                    std::int64_t channels, std::int64_t pixels, float* db) {
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t co = 0; co < channels; ++co) {
      const float* chan = dy + (n * channels + co) * pixels;
      double acc = 0.0;
      for (std::int64_t i = 0; i < pixels; ++i) acc += chan[i];
      db[co] += static_cast<float>(acc);
    }
  }
}

}  // namespace fleda
