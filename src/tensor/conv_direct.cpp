#include "tensor/conv_direct.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/lanes.hpp"
#include "tensor/plan.hpp"
#include "util/scratch.hpp"

namespace fleda {
namespace {

void require_unit_stride(const ConvIndex& ix) {
  if (ix.geometry.stride_h != 1 || ix.geometry.stride_w != 1) {
    throw std::invalid_argument("direct conv: stride must be 1");
  }
}

// ---- Register tiles (forward and dX) ----
//
// A tile is up to kTileRows rows x N adjacent pixels of one output
// plane, one N-lane accumulator per row (tensor/lanes.hpp), held in
// registers across the taps (for forward, across each KC slice of
// them) and stored once. A pixel's value does not depend on N, on the
// tile it falls in, or on the ISA.
//
// A row narrower than the widest N runs N = 4, then N = 1; a row at
// least N wide takes strips of N pixels, the last one shifted left to
// end at the row's end (it recomputes a few pixels, with the same
// bits). Rows past the plane's end are switched off per tile.

constexpr std::int64_t kTileRows = 8;

// Output rows [oh0, oh0 + rows) x pixels [ow0, ow0 + N): matmul at
// m = 1 in the canonical order. Each KC slice of taps sums +0, then
// + w*x tap by tap; the first slice is stored in y, later ones added.
template <int N>
__attribute__((always_inline)) inline void forward_tile(
    const ConvIndex& ix, const float* padded, const float* w, float* y,
    std::int64_t oh0, std::int64_t rows, std::int64_t ow0) {
  typedef typename Lanes<N>::F F;
  const std::int64_t Wp = ix.padded_width;
  const std::int64_t taps = static_cast<std::int64_t>(ix.row_offset.size());
  const std::int64_t* off = ix.row_offset.data();
  const float* at = padded + oh0 * Wp + ow0;
  float* out = y + oh0 * ix.out_width + ow0;
  for (std::int64_t pc = 0; pc < taps; pc += kGemmKC) {
    const std::int64_t pe = std::min(taps, pc + kGemmKC);
    F acc[kTileRows] = {};
    for (std::int64_t p = pc; p < pe; ++p) {
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
      float* yr = out + r * ix.out_width;
      if (pc > 0) {
        F prev;
        load(prev, yr);
        acc[r] = prev + acc[r];
      }
      store(yr, acc[r]);
    }
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
      // A full tile gets its own copy with the row checks folded away.
      if (rows == kTileRows) {
        forward_tile<N>(ix, padded, w, y, oh, kTileRows, std::min(ow, OW - N));
      } else {
        forward_tile<N>(ix, padded, w, y, oh, rows, std::min(ow, OW - N));
      }
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
  typedef typename Lanes<N>::U U;
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
      // 0 <= ow < OW as one unsigned compare (two signed ones make
      // GCC 12 take a 16-lane mask apart lane by lane).
      wt = (F)((I)wt & (I)((U)ow < (U)out_w));
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

// ---- dW: one sequential dot per weight row and KC slice ----
//
// matmul_bt at m = 1 in the canonical order: weight row p = (c, kh, kw)
// adds, per KC slice of the flat pixel index q, +0 + dy[q] * x_p[q]
// summed in q order. The lanes run across channels. Each group of N
// channels gets its own zero-padded, channel-interleaved block,
//   block[s * N + l] = padded[(c0 + l) * Hp * Wp + s]   (s = h * Wp + w),
// in which rows (c0 .. c0 + N, kh, kw) at one pixel are N adjacent
// floats: one broadcast of dy[q] against one load feeds N rows. A batch
// of R such row vectors (R taps) shares each broadcast, which also
// gives the adds R independent chains; every tap of a group reads the
// one block while it is in L1.

// The block of channels [c0, c0 + N) of the unpadded sample x.
template <int N>
__attribute__((always_inline)) inline void pad_group(const ConvIndex& ix,
                                                     const float* x,
                                                     std::int64_t c0,
                                                     float* block) {
  const ConvGeometry& g = ix.geometry;
  const std::int64_t Wp = ix.padded_width;
  std::memset(block, 0, sizeof(float) * ix.padded_height * Wp * N);
  for (std::int64_t h = 0; h < g.height; ++h) {
    float* dst = block + ((h + g.pad_h) * Wp + g.pad_w) * N;
    const float* src = x + c0 * g.height * g.width + h * g.width;
    for (std::int64_t w = 0; w < g.width; ++w) {
      for (int l = 0; l < N; ++l) {
        dst[w * N + l] = src[l * g.height * g.width + w];
      }
    }
  }
}

// R taps [tap0, tap0 + R) of the group at c0: lane l of tap r is weight
// row (c0 + l) * taps + tap0 + r.
template <int N, int R>
__attribute__((always_inline)) inline void weight_grad_batch(
    const ConvIndex& ix, const float* block, std::int64_t c0,
    std::int64_t tap0, const float* dy, float* dw) {
  typedef typename Lanes<N>::F F;
  const std::int64_t taps = ix.geometry.kernel_h * ix.geometry.kernel_w;
  const std::int64_t pixels = ix.out_height * ix.out_width;
  const float* at[R];
  for (int r = 0; r < R; ++r) {
    // A tap's spatial offset is its channel-0 row offset.
    at[r] = block + ix.row_offset[static_cast<std::size_t>(tap0 + r)] * N;
  }
  for (std::int64_t qc = 0; qc < pixels; qc += kGemmKC) {
    const std::int64_t qe = std::min(pixels, qc + kGemmKC);
    F acc[R] = {};
    for (std::int64_t q = qc; q < qe; ++q) {
      F d;
      splat(d, dy[q]);
      const std::int64_t px = ix.pixel_offset[static_cast<std::size_t>(q)] * N;
      for (int r = 0; r < R; ++r) {
        F x;
        load(x, at[r] + px);
        acc[r] = acc[r] + d * x;
      }
    }
    for (int r = 0; r < R; ++r) {
      float lanes[N];
      store(lanes, acc[r]);
      for (int l = 0; l < N; ++l) {
        float& out = dw[(c0 + l) * taps + tap0 + r];
        out = out + lanes[l];
      }
    }
  }
}

// Channels [c0, C) in groups of N, their taps in batches of 8, then 4,
// then 1; then the channels left over at N / 2, down to one lane.
template <int N>
__attribute__((always_inline)) inline void weight_grad_from(
    const ConvIndex& ix, const float* x, const float* dy, float* dw,
    float* block, std::int64_t c0, std::int64_t C) {
  const std::int64_t taps = ix.geometry.kernel_h * ix.geometry.kernel_w;
  for (; c0 + N <= C; c0 += N) {
    pad_group<N>(ix, x, c0, block);
    std::int64_t tap = 0;
    for (; tap + 8 <= taps; tap += 8) {
      weight_grad_batch<N, 8>(ix, block, c0, tap, dy, dw);
    }
    for (; tap + 4 <= taps; tap += 4) {
      weight_grad_batch<N, 4>(ix, block, c0, tap, dy, dw);
    }
    for (; tap < taps; ++tap) {
      weight_grad_batch<N, 1>(ix, block, c0, tap, dy, dw);
    }
  }
  if constexpr (N > 1) {
    weight_grad_from<N / 2>(ix, x, dy, dw, block, c0, C);
  }
}

void weight_grad_portable(const ConvIndex& ix, const float* x,
                          const float* dy, float* dw, float* block,
                          std::int64_t c_begin, std::int64_t c_end) {
  weight_grad_from<4>(ix, x, dy, dw, block, c_begin, c_end);
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

FLEDA_TARGET_AVX2 void weight_grad_avx2(const ConvIndex& ix, const float* x,
                                        const float* dy, float* dw,
                                        float* block, std::int64_t c_begin,
                                        std::int64_t c_end) {
  weight_grad_from<8>(ix, x, dy, dw, block, c_begin, c_end);
}

FLEDA_TARGET_AVX512 void forward_avx512(const ConvIndex& ix,
                                        const float* padded, const float* w,
                                        float* y) {
  if (ix.out_width >= 16) {
    forward_strips<16>(ix, padded, w, y);
  } else {
    forward_avx2(ix, padded, w, y);
  }
}

FLEDA_TARGET_AVX512 void input_grad_avx512(const ConvIndex& ix,
                                           const float* w, const float* frame,
                                           float* dx) {
  if (ix.geometry.width >= 16) {
    input_grad_strips<16>(ix, w, frame, dx);
  } else {
    input_grad_avx2(ix, w, frame, dx);
  }
}

FLEDA_TARGET_AVX512 void weight_grad_avx512(const ConvIndex& ix,
                                            const float* x, const float* dy,
                                            float* dw, float* block,
                                            std::int64_t c_begin,
                                            std::int64_t c_end) {
  weight_grad_from<16>(ix, x, dy, dw, block, c_begin, c_end);
}

#endif  // FLEDA_X86_KERNELS

}  // namespace

void direct_conv_forward(const ConvIndex& ix, const float* padded,
                         const float* w, float* y) {
  require_unit_stride(ix);
#if FLEDA_X86_KERNELS
  switch (kernel_isa()) {
    case KernelIsa::kAvx2:
      return forward_avx2(ix, padded, w, y);
    case KernelIsa::kAvx512:
      return forward_avx512(ix, padded, w, y);
    case KernelIsa::kPortable:
      break;
  }
#endif
  forward_portable(ix, padded, w, y);
}

void direct_conv_weight_grad(const ConvIndex& ix, const float* x,
                             const float* dy, float* dw, std::int64_t c_begin,
                             std::int64_t c_end) {
  require_unit_stride(ix);
  if (c_begin < 0 || c_begin > c_end || c_end > ix.geometry.channels) {
    throw std::invalid_argument("direct_conv_weight_grad: bad channel range");
  }
  const KernelIsa isa = kernel_isa();
  float* block = thread_scratch(
      ScratchSlot::kConvBlock,
      static_cast<std::size_t>(ix.padded_height * ix.padded_width *
                               kernel_lanes(isa)));
#if FLEDA_X86_KERNELS
  switch (isa) {
    case KernelIsa::kAvx2:
      return weight_grad_avx2(ix, x, dy, dw, block, c_begin, c_end);
    case KernelIsa::kAvx512:
      return weight_grad_avx512(ix, x, dy, dw, block, c_begin, c_end);
    case KernelIsa::kPortable:
      break;
  }
#endif
  weight_grad_portable(ix, x, dy, dw, block, c_begin, c_end);
}

std::int64_t direct_conv_input_grad_scratch(const ConvIndex& ix) {
  return ix.out_height * (ix.out_width + 2 * frame_margin(ix.geometry));
}

void direct_conv_input_grad(const ConvIndex& ix, const float* w,
                            const float* dy, float* frame, float* dx) {
  require_unit_stride(ix);
  fill_frame(ix, dy, frame);
#if FLEDA_X86_KERNELS
  switch (kernel_isa()) {
    case KernelIsa::kAvx2:
      return input_grad_avx2(ix, w, frame, dx);
    case KernelIsa::kAvx512:
      return input_grad_avx512(ix, w, frame, dx);
    case KernelIsa::kPortable:
      break;
  }
#endif
  input_grad_portable(ix, w, frame, dx);
}

}  // namespace fleda
