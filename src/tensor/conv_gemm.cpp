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
      plan_(make_packed_plan(GemmOp::kNN, m, g.col_rows(), g.col_cols())),
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

ColumnBlocks column_blocks(std::int64_t total, std::int64_t align) {
  ColumnBlocks b;
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
  const GemmPlan plan = make_packed_plan(GemmOp::kBT, m, pixels, rows);
  // Each sample's A panels are packed once and shared by every block.
  const std::size_t apack_elems = packed_a_elems(plan);
  std::vector<float> apack(static_cast<std::size_t>(batch) * apack_elems);
  for (std::int64_t n = 0; n < batch; ++n) {
    pack_a(plan, a + n * a_stride,
           apack.data() + static_cast<std::size_t>(n) * apack_elems);
  }
  const ConvIndex ix = make_conv_index(g);
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  const std::int64_t padded_plane = ix.padded_height * ix.padded_width;
  // As wide as the columns one micro-kernel call steps.
  const ColumnBlocks blocks =
      column_blocks(rows, gemm_kernel_columns(plan.isa));
  parallel_for(static_cast<std::size_t>(blocks.count), [&](std::size_t bb,
                                                           std::size_t be) {
    float* padded = thread_scratch(
        ScratchSlot::kCols, static_cast<std::size_t>(ix.padded_elems()));
    for (std::size_t blk = bb; blk < be; ++blk) {
      const std::int64_t j0 = static_cast<std::int64_t>(blk) * blocks.width;
      const std::int64_t j1 = std::min(rows, j0 + blocks.width);
      // Weight rows are (channel, tap): pad only the channels they read,
      // in place in the full padded layout the ConvIndex addresses.
      ConvGeometry part = g;
      const std::int64_t c0 = j0 / taps;
      part.channels = (j1 + taps - 1) / taps - c0;
      for (std::int64_t n = 0; n < batch; ++n) {
        pad_image(images + n * image_stride + c0 * plane, part,
                  padded + c0 * padded_plane);
        gemm_packed_implicit(
            plan, /*a=*/nullptr,
            apack.data() + static_cast<std::size_t>(n) * apack_elems,
            implicit_cols(ix, padded), c, /*accumulate=*/true, j0, j1);
      }
    }
  });
}

}  // namespace fleda
