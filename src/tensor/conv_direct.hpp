// Direct kernels for the stride-1 convolution with a single output
// channel — the prediction heads of FLNet, RouteNet and PROS. Lowered
// to a GEMM, that conv is an m = 1 product whose [C*kh*kw, OH*OW]
// column matrix is far larger than the image it was built from, so the
// im2col path spends its time writing that matrix and reading it back.
// These kernels read a zero-padded copy of one sample (pad_image)
// instead: weight row p = (c, kh, kw) sees output pixel (oh, ow) at
//   padded[row_offset[p] + oh*Wp + ow],
//   row_offset[p] = c*Hp*Wp + kh*dilation_h*Wp + kw*dilation_w,
// which is exactly im2col's cols[p][oh*OW + ow].
//
// Each kernel reproduces the float expression and summation order of
// the reference kernel it replaces, so the results are bit-identical:
//   forward  == im2col + matmul_reference        (axpy4 groups of rows)
//   dW       == im2col + matmul_bt_reference     (four strided partials)
//   dX       == matmul_at_reference + col2im     (0 + w*dy, scattered)
// The planner never packs m = 1 shapes, so this holds under both
// FLEDA_PLAN modes.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"

namespace fleda {

struct DirectConvIndex {
  ConvGeometry geometry;
  std::int64_t padded_height = 0;
  std::int64_t padded_width = 0;
  std::int64_t out_height = 0;
  std::int64_t out_width = 0;
  std::vector<std::int64_t> row_offset;  // one per weight element

  // Floats in one padded sample: C * Hp * Wp.
  std::int64_t padded_elems() const {
    return geometry.channels * padded_height * padded_width;
  }
};

// Throws std::invalid_argument unless both strides are 1.
DirectConvIndex make_direct_conv_index(const ConvGeometry& g);

// y[OH*OW] = w[C*kh*kw] * cols, overwriting y. `padded` is one sample
// from pad_image.
void direct_conv_forward(const DirectConvIndex& ix, const float* padded,
                         const float* w, float* y);

// dw[C*kh*kw] += dy[OH*OW] * cols^T.
void direct_conv_weight_grad(const DirectConvIndex& ix, const float* padded,
                             const float* dy, float* dw);

// dx[C,H,W] = col2im(w^T * dy), overwriting dx. `dpadded` is scratch
// of padded_elems() floats.
void direct_conv_input_grad(const DirectConvIndex& ix, const float* w,
                            const float* dy, float* dpadded, float* dx);

}  // namespace fleda
