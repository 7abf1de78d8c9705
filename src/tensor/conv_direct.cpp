#include "tensor/conv_direct.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/conv_gemm.hpp"
#include "tensor/lanes.hpp"
#include "tensor/plan.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

void require_unit_stride(const ConvGeometry& g) {
  if (g.stride_h != 1 || g.stride_w != 1) {
    throw std::invalid_argument("direct conv: stride must be 1");
  }
}

// ---- Forward: register tiles ----
//
// A tile is up to kTileRows rows x N adjacent pixels of one output
// plane, one N-lane accumulator per row (tensor/lanes.hpp), held in
// registers across each KC slice of the taps and stored once. A
// pixel's value does not depend on N, on the tile it falls in, or on
// the ISA.
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

void forward_portable(const ConvIndex& ix, const float* padded,
                      const float* w, float* y) {
  if (ix.out_width >= 4) {
    forward_strips<4>(ix, padded, w, y);
  } else {
    forward_strips<1>(ix, padded, w, y);
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

FLEDA_TARGET_AVX512 void weight_grad_avx512(const ConvIndex& ix,
                                            const float* x, const float* dy,
                                            float* dw, float* block,
                                            std::int64_t c_begin,
                                            std::int64_t c_end) {
  weight_grad_from<16>(ix, x, dy, dw, block, c_begin, c_end);
}

#endif  // FLEDA_X86_KERNELS

// Channels [c_begin, c_end) of dw += dy * cols(x)^T for one sample x.
void weight_grad_sample(KernelIsa isa, const ConvIndex& ix, const float* x,
                        const float* dy, float* dw, float* block,
                        std::int64_t c_begin, std::int64_t c_end) {
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

}  // namespace

void direct_conv_forward(const ConvIndex& ix, const float* padded,
                         const float* w, float* y) {
  require_unit_stride(ix.geometry);
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

void direct_conv_weight_grad(const ConvGeometry& g, std::int64_t batch,
                             const float* dy, const float* images,
                             float* dw) {
  require_unit_stride(g);
  const ConvIndex ix = make_conv_index(g);
  const KernelIsa isa = kernel_isa();
  const std::int64_t lanes = kernel_lanes(isa);
  const std::int64_t pixels = ix.out_height * ix.out_width;
  const std::int64_t image_stride = g.channels * g.height * g.width;
  const WeightGradBlocks blocks = weight_grad_blocks(g.channels, lanes);
  parallel_for(static_cast<std::size_t>(blocks.count), [&](std::size_t bb,
                                                           std::size_t be) {
    float* block = thread_scratch(
        ScratchSlot::kConvBlock,
        static_cast<std::size_t>(ix.padded_height * ix.padded_width * lanes));
    for (std::size_t blk = bb; blk < be; ++blk) {
      const std::int64_t c0 = static_cast<std::int64_t>(blk) * blocks.width;
      const std::int64_t c1 = std::min(g.channels, c0 + blocks.width);
      for (std::int64_t n = 0; n < batch; ++n) {
        weight_grad_sample(isa, ix, images + n * image_stride, dy + n * pixels,
                           dw, block, c0, c1);
      }
    }
  });
}

}  // namespace fleda
