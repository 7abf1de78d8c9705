// Direct kernels for the stride-1 convolution with a single output
// channel — the prediction heads of FLNet, RouteNet and PROS. Lowered
// to a GEMM, that conv is an m = 1 product whose [C*kh*kw, OH*OW]
// column matrix is far larger than the image it was built from, so the
// im2col path spends its time writing that matrix and reading it back.
// These kernels read a zero-padded copy of one sample (pad_image)
// instead: through a ConvIndex at stride 1, weight row p = (c, kh, kw)
// sees output pixel (oh, ow) at
//   padded[row_offset[p] + oh*Wp + ow],
// which is exactly im2col's cols[p][oh*OW + ow].
//
// Forward and dX run register tiles: up to eight output rows by one
// vector of adjacent pixels (8 lanes under AVX2, else 4, else 1), one
// accumulator per row kept in a register across every tap and stored
// once. dX is a gather: each dx pixel sums w[c,kh,kw] * dy[oh, ow] over
// its taps, read from a copy of dy framed by zero margins.
//
// Each kernel reproduces the float expression and summation order of
// the reference kernel it replaces, so the results are bit-identical:
//   forward  == im2col + matmul_reference        (axpy4 groups of rows)
//   dW       == im2col + matmul_bt_reference     (four strided partials)
//   dX       == matmul_at_reference + col2im     (0 + w*dy, scattered)
// Forward: every pixel starts at +0 and adds the taps in the same axpy4
// groups and axpy1 tail, in a register instead of in y.
// dX: col2im adds a pixel's entries in ascending (kh, kw) order, which
// is the gather's order. The gather's accumulator starts at +0 and so
// never holds -0, which makes acc + w*dy equal to acc + (0 + w*dy). A
// tap whose (oh, ow) falls outside dy is never applied: its row is
// skipped, and its lanes read the frame's zero margin with the weight
// masked to +0, adding +0 * 0 = +0. So an Inf weight cannot meet a
// margin zero and make a NaN that col2im never computes.
// The planner never packs m = 1 shapes, so this holds under both
// FLEDA_PLAN modes, and under every KernelIsa: a lane computes the
// same IEEE operations at every vector width, and the AVX2 dW kernel
// only runs more weight rows at once, never regrouping a sum.
//
// All three throw std::invalid_argument unless the index has stride 1.
#pragma once

#include <cstdint>

#include "tensor/im2col.hpp"

namespace fleda {

// y[OH*OW] = w[C*kh*kw] * cols, overwriting y. `padded` is one sample
// from pad_image.
void direct_conv_forward(const ConvIndex& ix, const float* padded,
                         const float* w, float* y);

// dw[C*kh*kw] += dy[OH*OW] * cols^T.
void direct_conv_weight_grad(const ConvIndex& ix, const float* padded,
                             const float* dy, float* dw);

// dx[C,H,W] = col2im(w^T * dy), overwriting dx. `frame` is scratch of
// direct_conv_input_grad_scratch(ix) floats.
void direct_conv_input_grad(const ConvIndex& ix, const float* w,
                            const float* dy, float* frame, float* dx);

// Floats of scratch direct_conv_input_grad needs: OH rows of dy, each
// between zero margins as wide as the farthest tap reaches past dy's
// edge. Not bounded by padded_elems() (a one-channel image with a wide
// kernel and no padding needs more).
std::int64_t direct_conv_input_grad_scratch(const ConvIndex& ix);

}  // namespace fleda
