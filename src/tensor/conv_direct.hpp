// Direct kernels for the stride-1 convolution with a single output
// channel — the prediction heads of FLNet, RouteNet and PROS. Lowered
// to a GEMM, that conv is an m = 1 product whose [C*kh*kw, OH*OW]
// column matrix is far larger than the image it was built from, so the
// im2col path spends its time writing that matrix and reading it back.
// These kernels read a zero-padded copy of one sample instead: through
// a ConvIndex at stride 1, weight row p = (c, kh, kw) sees output pixel
// (oh, ow) at
//   padded[row_offset[p] + oh*Wp + ow],
// which is exactly im2col's cols[p][oh*OW + ow]. Forward takes the
// copy (pad_image); dW pads into its own channel-interleaved blocks.
//
// Forward and dX run register tiles: up to eight output rows by one
// vector of adjacent pixels (16 lanes under AVX-512, 8 under AVX2,
// else 4, else 1), one accumulator per row kept in a register across
// the taps. dX is a
// gather: each dx pixel sums w[c,kh,kw] * dy[oh, ow] over its taps,
// read from a copy of dy framed by zero margins. dW runs its lanes
// across channels, over channel-interleaved padded blocks of the sample.
//
// Forward and dW are the m = 1 GEMMs of the im2col lowering, computed
// in the one summation order of tensor/plan.hpp (KC slices of +0 then
// + a*b in ascending order, each slice stored or added), so their bits
// are those of the packed GEMM:
//   forward  == im2col + matmul    (slices of taps, then stored in y)
//   dW       == im2col + matmul_bt (slices of pixels, each added to dw)
//   dX       == matmul_at + col2im (0 + w*dy, scattered)
// dX: col2im adds a pixel's entries in ascending (kh, kw) order, which
// is the gather's order. The gather's accumulator starts at +0 and so
// never holds -0, which makes acc + w*dy equal to acc + (0 + w*dy). A
// tap whose (oh, ow) falls outside dy is never applied: its row is
// skipped, and its lanes read the frame's zero margin with the weight
// masked to +0, adding +0 * 0 = +0. So an Inf weight cannot meet a
// margin zero and make a NaN that col2im never computes.
// A lane computes the same IEEE operations at every vector width, so
// no kernel's bits depend on the KernelIsa.
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

// dw[C*kh*kw] += dy[OH*OW] * cols^T. `x` is one unpadded sample
// [C, H, W]: the kernel builds its padded channel blocks itself, in
// thread-local scratch. Only the rows of channels [c_begin, c_end) are
// computed and written; an element's bits do not depend on the range,
// so dW can be split across the pool by channels.
void direct_conv_weight_grad(const ConvIndex& ix, const float* x,
                             const float* dy, float* dw, std::int64_t c_begin,
                             std::int64_t c_end);

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
