// The conv GEMMs whose B operand is the column matrix cols(image) of a
// ConvGeometry (tensor/im2col.hpp), behind one lowering:
//
//   ConvGemm              out[m, pixels] = A[m, rows] * cols(image)
//                         (kNN; Conv2d forward, Conv2d stride-1 dX,
//                         ConvTranspose2d dX)
//   conv_gemm_weight_grad C[m, rows]   += A_n[m, pixels] * cols(image_n)^T
//                         over the batch (kBT; Conv2d and
//                         ConvTranspose2d dW)
//
// Both always run the packed GEMM (make_packed_plan, tensor/plan.hpp),
// its B panels packed straight from a zero-padded copy of the image
// through a ConvIndex (gemm_packed_implicit): the panels, and so the
// bits, that packing a materialized im2col would give, without writing
// it. Every
// GEMM strategy sums in one order, so the bits are also those of
// im2col + the reference kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/plan.hpp"

namespace fleda {

class ConvGemm {
 public:
  // Plans the GEMM for `g` and packs `a` ([m, rows]) once for every
  // sample.
  ConvGemm(const ConvGeometry& g, std::int64_t m, const float* a);

  // out[m, pixels] = A * cols(image) for one [C, H, W] image,
  // overwriting out. Safe to call concurrently from batch-parallel
  // workers: each uses its own thread's scratch.
  void run(const float* image, float* out) const;

 private:
  ConvIndex ix_;
  GemmPlan plan_;
  std::vector<float> apack_;
};

// Blocks conv_gemm_weight_grad splits C's columns into. Fixed (not the
// pool size), though a C element's bits do not depend on it.
inline constexpr std::int64_t kWeightGradBlocks = 8;

// c[m, rows] += sum over n in [0, batch) of
//   a[n*m*pixels ..] [m, pixels] * cols(images[n*C*H*W ..])^T,
// the samples added one at a time in ascending order (each sample's
// product in KC slices, each slice added to c). One parallel_for runs
// over the column_blocks of c's columns (two NR panels wide), each
// walking the samples in order and padding only the
// channels its columns read; each sample's A panels are packed once
// for all blocks. So every element of c sums in the same order at any
// pool size or nesting.
void conv_gemm_weight_grad(const ConvGeometry& g, std::int64_t m,
                           std::int64_t batch, const float* a,
                           const float* images, float* c);

// [begin, end) of block b when [0, total) is cut into blocks of
// `width`, a multiple of `align` chosen so there are at most
// kWeightGradBlocks of them; blocks = ceil(total / width).
struct ColumnBlocks {
  std::int64_t width = 0;
  std::int64_t count = 0;
};
ColumnBlocks column_blocks(std::int64_t total, std::int64_t align);

}  // namespace fleda
