// Direct kernels for the forward and weight gradient of a stride-1
// convolution with a single output channel — the prediction heads of
// FLNet, RouteNet and PROS. Lowered to a GEMM, that conv is an m = 1
// product whose [C*kh*kw, OH*OW] column matrix is far larger than the
// image it was built from, so the packed GEMM's register tile would be
// mostly idle rows. These kernels read a zero-padded copy of one sample
// instead: through a ConvIndex at stride 1, weight row p = (c, kh, kw)
// sees output pixel (oh, ow) at
//   padded[row_offset[p] + oh*Wp + ow],
// which is exactly im2col's cols[p][oh*OW + ow]. The forward reads the
// padded copy ConvGemm makes; dW pads the sample itself, into its own
// channel-interleaved blocks. ConvGemm and conv_gemm_weight_grad
// (tensor/conv_gemm.hpp) run them for every m = 1, stride-1 conv; the
// head's dX is the stride-1 dX conv of ConvGemmAdjoint, an m = Cin
// GEMM.
//
// Forward runs register tiles: up to eight output rows by one vector
// of adjacent pixels (16 lanes under AVX-512, 8 under AVX2, else 4,
// else 1), one accumulator per row kept in a register across the taps.
// dW runs its lanes across channels, over channel-interleaved padded
// blocks of the sample.
//
// Both are the m = 1 GEMMs of the im2col lowering, computed in the one
// summation order of tensor/plan.hpp (KC slices of +0 then + a*b in
// ascending order, each slice stored or added), so their bits are
// those of the packed GEMM:
//   forward  == im2col + matmul    (slices of taps, then stored in y)
//   dW       == im2col + matmul_bt (slices of pixels, each added to dw)
// A lane computes the same IEEE operations at every vector width, so
// no kernel's bits depend on the KernelIsa.
//
// Both throw std::invalid_argument unless the conv has stride 1.
#pragma once

#include <cstdint>

#include "tensor/im2col.hpp"

namespace fleda {

// y[OH*OW] = w[C*kh*kw] * cols(image), overwriting y, for one sample
// padded as ix addresses it (pad_image).
void direct_conv_forward(const ConvIndex& ix, const float* padded,
                         const float* w, float* y);

// dw[C*kh*kw] += sum over n in [0, batch) of
//   dy[n*OH*OW ..] * cols(images[n*C*H*W ..])^T,
// the samples added one at a time in ascending order: the m = 1 form
// of conv_gemm_weight_grad. One parallel_for runs over the
// weight_grad_blocks of the channels (each a multiple of the
// dispatched ISA's lanes), each walking the samples in order, so every
// element of dw sums in the same order at any pool size or nesting.
void direct_conv_weight_grad(const ConvGeometry& g, std::int64_t batch,
                             const float* dy, const float* images, float* dw);

}  // namespace fleda
