#include "tensor/conv_gemm.hpp"

#include <algorithm>

#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

ImplicitCols implicit_cols(const ConvIndex& ix, const float* padded) {
  return ImplicitCols{padded, ix.row_offset.data(), ix.pixel_offset.data()};
}

}  // namespace

ConvGemm::ConvGemm(const ConvGeometry& g, std::int64_t m, const float* a)
    : ix_(make_conv_index(g)),
      plan_(make_gemm_plan(GemmOp::kNN, m, g.col_rows(), g.col_cols())),
      apack_(packed_a_elems(plan_)) {
  pack_a(plan_, a, apack_.data());
}

void ConvGemm::run(const float* image, float* out) const {
  float* padded = thread_scratch(
      ScratchSlot::kCols, static_cast<std::size_t>(ix_.padded_elems()));
  pad_image(image, ix_.geometry, padded);
  gemm_packed_implicit(plan_, /*a=*/nullptr, apack_.data(),
                       implicit_cols(ix_, padded), out, /*accumulate=*/false,
                       0, plan_.shape.n);
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
