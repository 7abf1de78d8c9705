#include "tensor/conv_direct.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/plan.hpp"

#if FLEDA_X86_KERNELS
#include <immintrin.h>
#endif

namespace fleda {
namespace {

// Four float lanes; arithmetic is IEEE single precision per lane, the
// same operations the reference kernels' four scalar partials perform.
typedef float Lanes4 __attribute__((vector_size(16)));

inline Lanes4 load4(const float* p) {
  Lanes4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline float combine(Lanes4 a) { return (a[0] + a[1]) + (a[2] + a[3]); }

void require_unit_stride(const ConvIndex& ix) {
  if (ix.geometry.stride_h != 1 || ix.geometry.stride_w != 1) {
    throw std::invalid_argument("direct conv: stride must be 1");
  }
}

// ---- Register tiles (forward and dX) ----
//
// A tile is up to kTileRows rows x N adjacent pixels of one output
// plane, one N-lane accumulator per row, held in registers across every
// tap and stored once. N = 8 is an AVX2 register, N = 4 an SSE/NEON
// one, N = 1 a scalar. Each vector operator is one IEEE single-precision
// operation per lane (no FMA, no regrouping), so a pixel's value does
// not depend on N, on the tile it falls in, or on the ISA.
//
// A row narrower than the widest N runs N = 4, then N = 1; a row at
// least N wide takes strips of N pixels, the last one shifted left to
// end at the row's end (it recomputes a few pixels, with the same
// bits). Rows past the plane's end are switched off per tile.

constexpr std::int64_t kTileRows = 8;

template <int N>
struct Lanes {
  typedef float F __attribute__((vector_size(4 * N)));
  typedef std::int32_t I __attribute__((vector_size(4 * N)));
};

// Loads, stores and broadcasts go through references, so no function
// passes a wide vector by value outside an AVX2 body.
template <class V>
__attribute__((always_inline)) inline void load(V& v, const float* p) {
  std::memcpy(&v, p, sizeof(v));
}

template <class V>
__attribute__((always_inline)) inline void store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof(v));
}

// Every lane = a. The broadcast is an integer add of zero, exact for
// any bits; a float 0 + a would turn a -0 weight into +0.
template <class V, class S>
__attribute__((always_inline)) inline void splat(V& v, S a) {
  static_assert(sizeof(S) == sizeof(std::int32_t), "32-bit lanes");
  typedef typename Lanes<sizeof(V) / sizeof(S)>::I I;
  std::int32_t bits;
  std::memcpy(&bits, &a, sizeof(bits));
  v = (V)(I{} + bits);
}

// Output rows [oh0, oh0 + rows) x pixels [ow0, ow0 + N). matmul_reference
// at m = 1: every pixel starts at +0 and adds the taps in axpy4 groups,
//   acc = acc + (((w0*x0 + w1*x1) + w2*x2) + w3*x3),
// then acc = acc + w*x for the axpy1 tail.
template <int N>
__attribute__((always_inline)) inline void forward_tile(
    const ConvIndex& ix, const float* padded, const float* w, float* y,
    std::int64_t oh0, std::int64_t rows, std::int64_t ow0) {
  typedef typename Lanes<N>::F F;
  const std::int64_t Wp = ix.padded_width;
  const std::int64_t taps = static_cast<std::int64_t>(ix.row_offset.size());
  const std::int64_t* off = ix.row_offset.data();
  const float* at = padded + oh0 * Wp + ow0;
  F acc[kTileRows] = {};
  std::int64_t p = 0;
  for (; p + 4 <= taps; p += 4) {
    F w0, w1, w2, w3;
    splat(w0, w[p]);
    splat(w1, w[p + 1]);
    splat(w2, w[p + 2]);
    splat(w3, w[p + 3]);
    const float* b0 = at + off[p];
    const float* b1 = at + off[p + 1];
    const float* b2 = at + off[p + 2];
    const float* b3 = at + off[p + 3];
    for (std::int64_t r = 0; r < kTileRows; ++r) {
      if (r < rows) {
        F x0, x1, x2, x3;
        load(x0, b0 + r * Wp);
        load(x1, b1 + r * Wp);
        load(x2, b2 + r * Wp);
        load(x3, b3 + r * Wp);
        acc[r] = acc[r] + (((w0 * x0 + w1 * x1) + w2 * x2) + w3 * x3);
      }
    }
  }
  for (; p < taps; ++p) {
    F wp;
    splat(wp, w[p]);
    const float* b = at + off[p];
    for (std::int64_t r = 0; r < kTileRows; ++r) {
      if (r < rows) {
        F x;
        load(x, b + r * Wp);
        acc[r] = acc[r] + wp * x;
      }
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    store(y + (oh0 + r) * ix.out_width + ow0, acc[r]);
  }
}

template <int N>
__attribute__((always_inline)) inline void forward_strips(const ConvIndex& ix,
                                                          const float* padded,
                                                          const float* w,
                                                          float* y) {
  const std::int64_t OH = ix.out_height;
  const std::int64_t OW = ix.out_width;
  for (std::int64_t oh = 0; oh < OH; oh += kTileRows) {
    const std::int64_t rows = std::min(kTileRows, OH - oh);
    for (std::int64_t ow = 0; ow < OW; ow += N) {
      forward_tile<N>(ix, padded, w, y, oh, rows, std::min(ow, OW - N));
    }
  }
}

// Width of the zero margin on each side of a frame row (see
// direct_conv_input_grad_scratch): the farthest a tap reaches left of
// output column 0 from image column 0.
std::int64_t frame_margin(const ConvGeometry& g) {
  return std::max<std::int64_t>(0, (g.kernel_w - 1) * g.dilation_w - g.pad_w);
}

// dx rows [h0, h0 + rows) x columns [x0, x0 + N) of channel plane `dxc`,
// whose taps are `wc`. col2im adds a pixel's column entries 0 + w*dy in
// ascending (kh, kw) order onto +0; the gather adds w*dy in that order
// onto a +0 accumulator. The two agree bit for bit: the accumulator
// never holds -0 (x + y is -0 only when both are), so dropping the
// 0 + changes no sum. A tap whose (oh, ow) lies outside dy is one
// col2im never adds, so it must not contribute even w*0 (NaN for an
// Inf weight). Its row is skipped; its lanes read the frame's zero
// margin with the weight masked to +0, so they add +0 * 0 = +0.
template <int N>
__attribute__((always_inline)) inline void input_grad_tile(
    const ConvIndex& ix, const float* wc, const float* frame, float* dxc,
    std::int64_t h0, std::int64_t rows, std::int64_t x0) {
  typedef typename Lanes<N>::F F;
  typedef typename Lanes<N>::I I;
  const ConvGeometry& g = ix.geometry;
  const std::int64_t OH = ix.out_height;
  const std::int64_t margin = frame_margin(g);
  const std::int64_t FW = ix.out_width + 2 * margin;
  I lane, first, step, out_w;
  for (int l = 0; l < N; ++l) lane[l] = l;
  splat(first, static_cast<std::int32_t>(x0 + g.pad_w));
  splat(step, static_cast<std::int32_t>(g.dilation_w));
  splat(out_w, static_cast<std::int32_t>(ix.out_width));
  F acc[kTileRows] = {};
  for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
    // Bit r: dx row h0 + r sees dy row oh0 + r under this kh.
    const std::int64_t oh0 = h0 + g.pad_h - kh * g.dilation_h;
    unsigned live_rows = 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      if (oh0 + r >= 0 && oh0 + r < OH) live_rows |= 1u << r;
    }
    if (live_rows == 0) continue;
    // Frame offset of lane 0 in tile row 0, and each lane's dy column.
    // An offset, not a pointer: rows above dy are never dereferenced.
    std::int64_t at = oh0 * FW + margin + x0 + g.pad_w;
    I ow = lane + first;
    for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
      F wt;
      splat(wt, wc[kh * g.kernel_w + kw]);
      wt = (F)((I)wt & ((ow >= 0) & (ow < out_w)));
      for (std::int64_t r = 0; r < kTileRows; ++r) {
        if (live_rows & (1u << r)) {
          F d;
          load(d, frame + (at + r * FW));
          acc[r] = acc[r] + wt * d;
        }
      }
      at -= g.dilation_w;
      ow -= step;
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    store(dxc + (h0 + r) * g.width + x0, acc[r]);
  }
}

template <int N>
__attribute__((always_inline)) inline void input_grad_strips(
    const ConvIndex& ix, const float* w, const float* frame, float* dx) {
  const ConvGeometry& g = ix.geometry;
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* dxc = dx + c * g.height * g.width;
    for (std::int64_t h = 0; h < g.height; h += kTileRows) {
      const std::int64_t rows = std::min(kTileRows, g.height - h);
      for (std::int64_t x = 0; x < g.width; x += N) {
        input_grad_tile<N>(ix, w + c * taps, frame, dxc, h, rows,
                           std::min(x, g.width - N));
      }
    }
  }
}

// dy [OH, OW] into the frame's rows, between zero margins.
void fill_frame(const ConvIndex& ix, const float* dy, float* frame) {
  const std::int64_t OW = ix.out_width;
  const std::int64_t margin = frame_margin(ix.geometry);
  for (std::int64_t oh = 0; oh < ix.out_height; ++oh) {
    float* row = frame + oh * (OW + 2 * margin);
    std::memset(row, 0, sizeof(float) * margin);
    std::memcpy(row + margin, dy + oh * OW, sizeof(float) * OW);
    std::memset(row + margin + OW, 0, sizeof(float) * margin);
  }
}

void forward_portable(const ConvIndex& ix, const float* padded,
                      const float* w, float* y) {
  if (ix.out_width >= 4) {
    forward_strips<4>(ix, padded, w, y);
  } else {
    forward_strips<1>(ix, padded, w, y);
  }
}

void input_grad_portable(const ConvIndex& ix, const float* w,
                         const float* frame, float* dx) {
  if (ix.geometry.width >= 4) {
    input_grad_strips<4>(ix, w, frame, dx);
  } else {
    input_grad_strips<1>(ix, w, frame, dx);
  }
}

// dW when OW % 4 == 0 (see direct_conv_weight_grad), weight rows
// [p, rows): four at a time, then one at a time.
void weight_grad_rows_portable(const ConvIndex& ix, const float* padded,
                               const float* dy, float* dw, std::int64_t p) {
  const std::int64_t OH = ix.out_height;
  const std::int64_t OW = ix.out_width;
  const std::int64_t Wp = ix.padded_width;
  const std::int64_t rows = static_cast<std::int64_t>(ix.row_offset.size());
  auto row = [&](std::int64_t q) {
    return padded + ix.row_offset[static_cast<std::size_t>(q)];
  };
  for (; p + 4 <= rows; p += 4) {
    const float* x0 = row(p);
    const float* x1 = row(p + 1);
    const float* x2 = row(p + 2);
    const float* x3 = row(p + 3);
    Lanes4 a0 = {}, a1 = {}, a2 = {}, a3 = {};
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      const float* d = dy + oh * OW;
      const std::int64_t r = oh * Wp;
      for (std::int64_t ow = 0; ow < OW; ow += 4) {
        const Lanes4 g = load4(d + ow);
        a0 += g * load4(x0 + r + ow);
        a1 += g * load4(x1 + r + ow);
        a2 += g * load4(x2 + r + ow);
        a3 += g * load4(x3 + r + ow);
      }
    }
    dw[p] += combine(a0);
    dw[p + 1] += combine(a1);
    dw[p + 2] += combine(a2);
    dw[p + 3] += combine(a3);
  }
  for (; p < rows; ++p) {
    const float* x = row(p);
    Lanes4 a = {};
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ow += 4) {
        a += load4(dy + oh * OW + ow) * load4(x + oh * Wp + ow);
      }
    }
    dw[p] += combine(a);
  }
}

#if FLEDA_X86_KERNELS

FLEDA_TARGET_AVX2 void forward_avx2(const ConvIndex& ix, const float* padded,
                                    const float* w, float* y) {
  if (ix.out_width >= 8) {
    forward_strips<8>(ix, padded, w, y);
  } else {
    forward_portable(ix, padded, w, y);
  }
}

FLEDA_TARGET_AVX2 void input_grad_avx2(const ConvIndex& ix, const float* w,
                                       const float* frame, float* dx) {
  if (ix.geometry.width >= 8) {
    input_grad_strips<8>(ix, w, frame, dx);
  } else {
    input_grad_portable(ix, w, frame, dx);
  }
}

// The same four partials per weight row, eight weight rows at a time:
// twice the independent add chains of the portable loop, and each
// row's partials still sum its pixels in (oh, ow) order.
FLEDA_TARGET_AVX2 void weight_grad_rows_avx2(const ConvIndex& ix,
                                             const float* padded,
                                             const float* dy, float* dw) {
  constexpr std::int64_t kRows = 8;
  const std::int64_t OH = ix.out_height;
  const std::int64_t OW = ix.out_width;
  const std::int64_t Wp = ix.padded_width;
  const std::int64_t rows = static_cast<std::int64_t>(ix.row_offset.size());
  std::int64_t p = 0;
  for (; p + kRows <= rows; p += kRows) {
    const float* x[kRows];
    __m128 acc[kRows];
    for (std::int64_t i = 0; i < kRows; ++i) {
      x[i] = padded + ix.row_offset[static_cast<std::size_t>(p + i)];
      acc[i] = _mm_setzero_ps();
    }
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      const float* d = dy + oh * OW;
      const std::int64_t r = oh * Wp;
      for (std::int64_t ow = 0; ow < OW; ow += 4) {
        const __m128 g = _mm_loadu_ps(d + ow);
        for (std::int64_t i = 0; i < kRows; ++i) {
          acc[i] = _mm_add_ps(acc[i],
                              _mm_mul_ps(g, _mm_loadu_ps(x[i] + r + ow)));
        }
      }
    }
    for (std::int64_t i = 0; i < kRows; ++i) {
      alignas(16) float a[4];
      _mm_store_ps(a, acc[i]);
      dw[p + i] += (a[0] + a[1]) + (a[2] + a[3]);
    }
  }
  weight_grad_rows_portable(ix, padded, dy, dw, p);
}

#endif  // FLEDA_X86_KERNELS

}  // namespace

void direct_conv_forward(const ConvIndex& ix, const float* padded,
                         const float* w, float* y) {
  require_unit_stride(ix);
#if FLEDA_X86_KERNELS
  if (kernel_isa() == KernelIsa::kAvx2) {
    forward_avx2(ix, padded, w, y);
    return;
  }
#endif
  forward_portable(ix, padded, w, y);
}

void direct_conv_weight_grad(const ConvIndex& ix, const float* padded,
                             const float* dy, float* dw) {
  // matmul_bt_reference at m = 1: one dot product over the flat pixel
  // index q per weight row, with partial q % 4 for the first
  // floor(OHW/4)*4 pixels, combined as (a0 + a1) + (a2 + a3), then the
  // remaining pixels added one by one.
  require_unit_stride(ix);
  const std::int64_t OH = ix.out_height;
  const std::int64_t OW = ix.out_width;
  const std::int64_t rows = static_cast<std::int64_t>(ix.row_offset.size());
  if (OW % 4 == 0) {
    // Every group of four flat pixels lies in one output row and there
    // is no tail, so the four partials are the four lanes of a vector
    // stepping along each row, one accumulator chain per weight row.
#if FLEDA_X86_KERNELS
    if (kernel_isa() == KernelIsa::kAvx2) {
      weight_grad_rows_avx2(ix, padded, dy, dw);
      return;
    }
#endif
    weight_grad_rows_portable(ix, padded, dy, dw, 0);
    return;
  }
  // Groups of four may straddle output rows: address each flat pixel
  // through the index's pixel table.
  const std::int64_t n = OH * OW;
  const std::int64_t* at = ix.pixel_offset.data();
  for (std::int64_t p = 0; p < rows; ++p) {
    const float* x = padded + ix.row_offset[static_cast<std::size_t>(p)];
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    std::int64_t q = 0;
    for (; q + 4 <= n; q += 4) {
      a0 += dy[q] * x[at[q]];
      a1 += dy[q + 1] * x[at[q + 1]];
      a2 += dy[q + 2] * x[at[q + 2]];
      a3 += dy[q + 3] * x[at[q + 3]];
    }
    float acc = (a0 + a1) + (a2 + a3);
    for (; q < n; ++q) acc += dy[q] * x[at[q]];
    dw[p] += acc;
  }
}

std::int64_t direct_conv_input_grad_scratch(const ConvIndex& ix) {
  return ix.out_height * (ix.out_width + 2 * frame_margin(ix.geometry));
}

void direct_conv_input_grad(const ConvIndex& ix, const float* w,
                            const float* dy, float* frame, float* dx) {
  require_unit_stride(ix);
  fill_frame(ix, dy, frame);
#if FLEDA_X86_KERNELS
  if (kernel_isa() == KernelIsa::kAvx2) {
    input_grad_avx2(ix, w, frame, dx);
    return;
  }
#endif
  input_grad_portable(ix, w, frame, dx);
}

}  // namespace fleda
