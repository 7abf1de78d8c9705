#include "tensor/conv_direct.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

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

inline void store4(float* p, Lanes4 v) { std::memcpy(p, &v, sizeof(v)); }

inline Lanes4 splat4(float a) { return Lanes4{a, a, a, a}; }

inline float combine(Lanes4 a) { return (a[0] + a[1]) + (a[2] + a[3]); }

void require_unit_stride(const ConvIndex& ix) {
  if (ix.geometry.stride_h != 1 || ix.geometry.stride_w != 1) {
    throw std::invalid_argument("direct conv: stride must be 1");
  }
}

// Row kernels: pixels [ow, OW) of one output row. The AVX2 rows take
// eight pixels per step and hand the remainder to the portable row, so
// every pixel is computed by the same expression.
struct PortableRows {
  // yr += a0*b0 + a1*b1 + a2*b2 + a3*b3 (one axpy4 step of matmul).
  static void axpy4(float* yr, const float* b0, const float* b1,
                    const float* b2, const float* b3, float a0, float a1,
                    float a2, float a3, std::int64_t ow, std::int64_t OW) {
    const Lanes4 v0 = splat4(a0), v1 = splat4(a1), v2 = splat4(a2),
                 v3 = splat4(a3);
    for (; ow + 4 <= OW; ow += 4) {
      store4(yr + ow, load4(yr + ow) + (v0 * load4(b0 + ow) +
                                        v1 * load4(b1 + ow) +
                                        v2 * load4(b2 + ow) +
                                        v3 * load4(b3 + ow)));
    }
    for (; ow < OW; ++ow) {
      yr[ow] += a0 * b0[ow] + a1 * b1[ow] + a2 * b2[ow] + a3 * b3[ow];
    }
  }

  // yr += a * b (the axpy1 tail).
  static void axpy1(float* yr, const float* b, float a, std::int64_t ow,
                    std::int64_t OW) {
    for (; ow < OW; ++ow) yr[ow] += a * b[ow];
  }

  // d += 0 + a * src (a k = 1 column entry, scattered by col2im).
  static void scatter(float* d, const float* src, float a, std::int64_t ow,
                      std::int64_t OW) {
    const Lanes4 va = splat4(a);
    for (; ow + 4 <= OW; ow += 4) {
      store4(d + ow, load4(d + ow) + (Lanes4{} + va * load4(src + ow)));
    }
    for (; ow < OW; ++ow) d[ow] += 0.0f + a * src[ow];
  }
};

#if FLEDA_X86_KERNELS
struct Avx2Rows {
  FLEDA_TARGET_AVX2 static void axpy4(float* yr, const float* b0,
                                      const float* b1, const float* b2,
                                      const float* b3, float a0, float a1,
                                      float a2, float a3, std::int64_t ow,
                                      std::int64_t OW) {
    const __m256 v0 = _mm256_set1_ps(a0), v1 = _mm256_set1_ps(a1),
                 v2 = _mm256_set1_ps(a2), v3 = _mm256_set1_ps(a3);
    for (; ow + 8 <= OW; ow += 8) {
      __m256 s = _mm256_mul_ps(v0, _mm256_loadu_ps(b0 + ow));
      s = _mm256_add_ps(s, _mm256_mul_ps(v1, _mm256_loadu_ps(b1 + ow)));
      s = _mm256_add_ps(s, _mm256_mul_ps(v2, _mm256_loadu_ps(b2 + ow)));
      s = _mm256_add_ps(s, _mm256_mul_ps(v3, _mm256_loadu_ps(b3 + ow)));
      _mm256_storeu_ps(yr + ow, _mm256_add_ps(_mm256_loadu_ps(yr + ow), s));
    }
    PortableRows::axpy4(yr, b0, b1, b2, b3, a0, a1, a2, a3, ow, OW);
  }

  FLEDA_TARGET_AVX2 static void axpy1(float* yr, const float* b, float a,
                                      std::int64_t ow, std::int64_t OW) {
    const __m256 va = _mm256_set1_ps(a);
    for (; ow + 8 <= OW; ow += 8) {
      _mm256_storeu_ps(
          yr + ow, _mm256_add_ps(_mm256_loadu_ps(yr + ow),
                                 _mm256_mul_ps(va, _mm256_loadu_ps(b + ow))));
    }
    PortableRows::axpy1(yr, b, a, ow, OW);
  }

  FLEDA_TARGET_AVX2 static void scatter(float* d, const float* src, float a,
                                        std::int64_t ow, std::int64_t OW) {
    const __m256 va = _mm256_set1_ps(a);
    const __m256 zero = _mm256_setzero_ps();
    for (; ow + 8 <= OW; ow += 8) {
      const __m256 col =
          _mm256_add_ps(zero, _mm256_mul_ps(va, _mm256_loadu_ps(src + ow)));
      _mm256_storeu_ps(d + ow, _mm256_add_ps(_mm256_loadu_ps(d + ow), col));
    }
    PortableRows::scatter(d, src, a, ow, OW);
  }
};
#endif  // FLEDA_X86_KERNELS

template <class Rows>
__attribute__((always_inline)) inline void forward_body(const ConvIndex& ix,
                                                        const float* padded,
                                                        const float* w,
                                                        float* y) {
  // matmul_reference at m = 1: every output pixel starts at 0 and takes
  // the weight rows in axpy4 groups of four, then the axpy1 tail. Each
  // output row is one axpy over OW contiguous padded pixels.
  const std::int64_t OH = ix.out_height;
  const std::int64_t OW = ix.out_width;
  const std::int64_t Wp = ix.padded_width;
  const std::int64_t rows = static_cast<std::int64_t>(ix.row_offset.size());
  const std::int64_t* off = ix.row_offset.data();
  std::memset(y, 0, sizeof(float) * OH * OW);
  std::int64_t p = 0;
  for (; p + 4 <= rows; p += 4) {
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      const float* b = padded + oh * Wp;
      Rows::axpy4(y + oh * OW, b + off[p], b + off[p + 1], b + off[p + 2],
                  b + off[p + 3], w[p], w[p + 1], w[p + 2], w[p + 3], 0, OW);
    }
  }
  for (; p < rows; ++p) {
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      Rows::axpy1(y + oh * OW, padded + oh * Wp + off[p], w[p], 0, OW);
    }
  }
}

template <class Rows>
__attribute__((always_inline)) inline void input_grad_body(
    const ConvIndex& ix, const float* w, const float* dy, float* dpadded,
    float* dx) {
  // matmul_at_reference at k = 1 makes each column entry 0 + w[p]*dy;
  // col2im adds them into the image in (row, oh, ow) order. Scattering
  // into the padded frame keeps that order for every in-bounds pixel;
  // the margin collects what col2im would have skipped.
  const ConvGeometry& g = ix.geometry;
  const std::int64_t OH = ix.out_height;
  const std::int64_t OW = ix.out_width;
  const std::int64_t Wp = ix.padded_width;
  const std::int64_t rows = static_cast<std::int64_t>(ix.row_offset.size());
  std::memset(dpadded, 0, sizeof(float) * ix.padded_elems());
  for (std::int64_t p = 0; p < rows; ++p) {
    float* dst = dpadded + ix.row_offset[static_cast<std::size_t>(p)];
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      Rows::scatter(dst + oh * Wp, dy + oh * OW, w[p], 0, OW);
    }
  }
  const std::int64_t plane = ix.padded_height * Wp;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t h = 0; h < g.height; ++h) {
      std::memcpy(dx + (c * g.height + h) * g.width,
                  dpadded + c * plane + (h + g.pad_h) * Wp + g.pad_w,
                  sizeof(float) * g.width);
    }
  }
}

void forward_portable(const ConvIndex& ix, const float* padded,
                      const float* w, float* y) {
  forward_body<PortableRows>(ix, padded, w, y);
}

void input_grad_portable(const ConvIndex& ix, const float* w,
                         const float* dy, float* dpadded, float* dx) {
  input_grad_body<PortableRows>(ix, w, dy, dpadded, dx);
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
  forward_body<Avx2Rows>(ix, padded, w, y);
}

FLEDA_TARGET_AVX2 void input_grad_avx2(const ConvIndex& ix, const float* w,
                                       const float* dy, float* dpadded,
                                       float* dx) {
  input_grad_body<Avx2Rows>(ix, w, dy, dpadded, dx);
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
  const std::int64_t Wp = ix.padded_width;
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
  // through a table.
  const std::int64_t n = OH * OW;
  std::vector<std::int64_t> pixel(static_cast<std::size_t>(n));
  for (std::int64_t q = 0; q < n; ++q) {
    pixel[static_cast<std::size_t>(q)] = (q / OW) * Wp + q % OW;
  }
  const std::int64_t* at = pixel.data();
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

void direct_conv_input_grad(const ConvIndex& ix, const float* w,
                            const float* dy, float* dpadded, float* dx) {
  require_unit_stride(ix);
#if FLEDA_X86_KERNELS
  if (kernel_isa() == KernelIsa::kAvx2) {
    input_grad_avx2(ix, w, dy, dpadded, dx);
    return;
  }
#endif
  input_grad_portable(ix, w, dy, dpadded, dx);
}

}  // namespace fleda
