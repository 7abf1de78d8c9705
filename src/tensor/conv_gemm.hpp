// The conv lowering: every GEMM of the conv layers, and the plans,
// packing and scratch slots they need, behind these entry points over
// the column matrix cols(image) of a ConvGeometry (tensor/im2col.hpp):
//
//   ConvGemm              out[m, pixels] = A[m, rows] * cols(image)
//                         (kNN; Conv2d forward, the dX conv,
//                         ConvTranspose2d dX)
//   ConvGemmAdjoint       image = A^T x scattered back through cols,
//                         x [m, pixels]: the adjoint of ConvGemm with the
//                         same A (Conv2d dX, ConvTranspose2d forward)
//   conv_gemm_weight_grad C[m, rows]   += A_n[m, pixels] * cols(image_n)^T
//                         over the batch (Conv2d and ConvTranspose2d
//                         dW), run as C^T += cols(image_n) * A_n^T
//   conv_add_bias / conv_bias_grad  the bias and its gradient
//
// The GEMMs run the packed GEMM (make_gemm_plan, tensor/plan.hpp),
// reading cols from a zero-padded copy of the image through a ConvIndex
// without writing it. ConvGemm's B is read where it lies when every
// 8-column panel is a run of pixels (stride 1, output width a multiple
// of kGemmNR: implicit_b_in_place) and gathered into packed panels
// otherwise (gemm_packed_implicit). The weight gradient reads cols in
// place as its A operand at every stride and width, with A_n packed
// once per sample as its B (gemm_packed_implicit_a), so nothing is
// gathered. Every operand form sums in one order, so the bits are also
// those of im2col + matmul. At m = 1 and stride 1 (every model's
// prediction head) ConvGemm and conv_gemm_weight_grad run the direct
// kernels of tensor/conv_direct.hpp instead, with the same bits.
//
// ConvGemmAdjoint is s_h * s_w stride-1 convs of x, its phases (the
// sub-pixel identity of Shi et al., CVPR 2016). Along each axis of a
// stride-s conv (pad p, dilation d), image row ih = r + s u receives
// exactly the taps kh with (r + p - kh d) = 0 (mod s), tap kh reading x
// row u + (r + p - kh d) / s. So phase r is a conv of x over those taps
// in descending kh, at dilation d / gcd(d, s), with ceil((H - r) / s)
// output rows; a phase with no tap writes +0. x is padded once per
// sample, far enough for every phase's reads; each phase runs ConvGemm's
// kNN GEMM through a ConvIndex whose pixels start at its origin, with
// the phase's taps of A flipped and channel-transposed,
//   W_r[c, (i, jh, jw)] = A[i, (c, taps_h[jh], taps_w[jw])],
// and its block is interleaved into the image. At stride 1 the one
// phase is the flipped conv (taps k-1 .. 0, x padded by d(k-1)-p),
// written in place. Each element sums over m x taps in KC slices, so it
// matches the scatter of A^T x, which sums over m per tap and then over
// taps, only to rounding. Non-finite values: a phase multiplies every
// weight by x's zero padding, so an Inf or NaN weight puts NaN at the
// image pixels whose taps fall outside x, where the scatter never
// multiplied it.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/plan.hpp"

namespace fleda {

class ConvGemm {
 public:
  // Plans the GEMM for `g` and packs `a` ([m, rows]) once for every
  // sample (at m = 1 and stride 1, keeps a copy of it).
  ConvGemm(const ConvGeometry& g, std::int64_t m, const float* a);

  // out[m, pixels] = A * cols(image) for one [C, H, W] image,
  // overwriting out. Safe to call concurrently from batch-parallel
  // workers: each uses its own thread's scratch.
  void run(const float* image, float* out) const;

 private:
  friend class ConvGemmAdjoint;
  // With `column` set, a phase of ConvGemmAdjoint: always the packed
  // GEMM, over an index whose pixels start at the phase's origin, with A
  // gathered as it is packed, A(i, p) = a[i * row_stride + column[p]].
  ConvGemm(ConvIndex ix, std::int64_t m, const float* a,
           const std::int64_t* column, std::int64_t row_stride);
  // run() for an image already padded as ix_ addresses it.
  void run_padded(const float* padded, float* out) const;

  ConvIndex ix_;
  bool direct_;
  GemmPlan plan_;
  std::vector<float> apack_;
};

class ConvGemmAdjoint {
 public:
  // `g` is ConvGemm's geometry, whose image the adjoint writes; `a` is
  // [m, g.col_rows()], split into its phases' weights, each packed once
  // for every sample.
  ConvGemmAdjoint(const ConvGeometry& g, std::int64_t m, const float* a);

  // image[C, H, W] = the adjoint of cols applied to A^T x, for one
  // x [m, pixels], overwriting image. Safe to call concurrently, as
  // ConvGemm::run.
  void run(const float* x, float* image) const;

 private:
  struct Phase {
    std::int64_t row, col;  // the image pixel its block starts at
    ConvGemm gemm;
  };
  ConvGeometry g_;
  ConvGeometry x_;  // x [m, OH, OW] and the pad every phase reads
  std::vector<Phase> phases_;
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

// y[co, i] += bias[co] for every pixel i of one sample's channels
// (y is [channels, pixels]): the bias of Conv2d and ConvTranspose2d.
void conv_add_bias(const float* bias, std::int64_t channels,
                   std::int64_t pixels, float* y);

// db[co] += sum over pixels of dy's channel co, one sample at a time in
// sample order, each sample's sum in double: conv_add_bias's adjoint
// (dy is [batch, channels, pixels]).
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
