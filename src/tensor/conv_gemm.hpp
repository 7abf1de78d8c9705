// The conv GEMMs whose operand is the column matrix cols(image) of a
// ConvGeometry (tensor/im2col.hpp), behind one lowering:
//
//   ConvGemm              out[m, pixels] = A[m, rows] * cols(image)
//                         (kNN; Conv2d forward, Conv2d stride-1 dX,
//                         ConvTranspose2d dX)
//   conv_gemm_weight_grad C[m, rows]   += A_n[m, pixels] * cols(image_n)^T
//                         over the batch (Conv2d and ConvTranspose2d
//                         dW), run as C^T += cols(image_n) * A_n^T
//
// Both run the packed GEMM (make_gemm_plan, tensor/plan.hpp),
// reading cols from a zero-padded copy of the image through a ConvIndex
// without writing it. ConvGemm's B is read where it lies when every
// 8-column panel is a run of pixels (stride 1, output width a multiple
// of kGemmNR: implicit_b_in_place) and gathered into packed panels
// otherwise (gemm_packed_implicit). The weight gradient reads cols in
// place as its A operand at every stride and width, with A_n packed
// once per sample as its B (gemm_packed_implicit_a), so nothing is
// gathered. Every operand form sums in one order, so the bits are also
// those of im2col + matmul.
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

// Blocks a weight gradient is split into across the pool. Fixed (not
// the pool size), though a gradient element's bits do not depend on it.
inline constexpr std::int64_t kWeightGradBlocks = 8;

// c[m, rows] += sum over n in [0, batch) of
//   a[n*m*pixels ..] [m, pixels] * cols(images[n*C*H*W ..])^T,
// the samples added one at a time in ascending order (each sample's
// product in KC slices, each slice added to c). Each sample's a is
// packed once, on the calling thread's scratch. One parallel_for runs
// over the weight_grad_blocks of c's columns (the rows of cols, each
// block a multiple of the rows one micro-kernel call steps), each
// walking the samples in order and padding only the channels its rows
// read. So every element of c sums in the same order at any pool size
// or nesting.
void conv_gemm_weight_grad(const ConvGeometry& g, std::int64_t m,
                           std::int64_t batch, const float* a,
                           const float* images, float* c);

// db[co] += sum over pixels of dy's channel co, one sample at a time in
// sample order, each sample's sum in double: the bias gradient of
// Conv2d and ConvTranspose2d (dy is [batch, channels, pixels]).
void conv_bias_grad(const float* dy, std::int64_t batch,
                    std::int64_t channels, std::int64_t pixels, float* db);

// [begin, end) of block b when [0, total) is cut into blocks of
// `width`, a multiple of `align` chosen so there are at most
// kWeightGradBlocks of them; blocks = ceil(total / width).
struct WeightGradBlocks {
  std::int64_t width = 0;
  std::int64_t count = 0;
};
WeightGradBlocks weight_grad_blocks(std::int64_t total, std::int64_t align);

}  // namespace fleda
