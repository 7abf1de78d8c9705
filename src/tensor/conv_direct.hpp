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
// Each kernel reproduces the float expression and summation order of
// the reference kernel it replaces, so the results are bit-identical:
//   forward  == im2col + matmul_reference        (axpy4 groups of rows)
//   dW       == im2col + matmul_bt_reference     (four strided partials)
//   dX       == matmul_at_reference + col2im     (0 + w*dy, scattered)
// The planner never packs m = 1 shapes, so this holds under both
// FLEDA_PLAN modes, and under every KernelIsa: the AVX2 bodies only
// widen the pixel loops (forward, dX) or run more weight rows at once
// (dW), never regroup a sum.
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

// dx[C,H,W] = col2im(w^T * dy), overwriting dx. `dpadded` is scratch
// of padded_elems() floats.
void direct_conv_input_grad(const ConvIndex& ix, const float* w,
                            const float* dy, float* dpadded, float* dx);

}  // namespace fleda
