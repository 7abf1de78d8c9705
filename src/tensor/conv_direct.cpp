#include "tensor/conv_direct.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

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

}  // namespace

DirectConvIndex make_direct_conv_index(const ConvGeometry& g) {
  if (g.stride_h != 1 || g.stride_w != 1) {
    throw std::invalid_argument("direct conv: stride must be 1");
  }
  DirectConvIndex ix;
  ix.geometry = g;
  ix.padded_height = g.height + 2 * g.pad_h;
  ix.padded_width = g.width + 2 * g.pad_w;
  ix.out_height = g.out_height();
  ix.out_width = g.out_width();
  ix.row_offset.reserve(static_cast<std::size_t>(g.col_rows()));
  const std::int64_t plane = ix.padded_height * ix.padded_width;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        ix.row_offset.push_back(c * plane + kh * g.dilation_h * ix.padded_width +
                                kw * g.dilation_w);
      }
    }
  }
  return ix;
}

void direct_conv_forward(const DirectConvIndex& ix, const float* padded,
                         const float* w, float* y) {
  // matmul_reference at m = 1: every output pixel starts at 0 and takes
  // the weight rows in axpy4 groups of four, then the axpy1 tail. Each
  // output row is one axpy over OW contiguous padded pixels, four
  // pixels per vector step.
  const std::int64_t OH = ix.out_height;
  const std::int64_t OW = ix.out_width;
  const std::int64_t Wp = ix.padded_width;
  const std::int64_t rows = static_cast<std::int64_t>(ix.row_offset.size());
  const std::int64_t* off = ix.row_offset.data();
  std::memset(y, 0, sizeof(float) * OH * OW);
  std::int64_t p = 0;
  for (; p + 4 <= rows; p += 4) {
    const float a0 = w[p], a1 = w[p + 1], a2 = w[p + 2], a3 = w[p + 3];
    const Lanes4 v0 = splat4(a0), v1 = splat4(a1), v2 = splat4(a2),
                 v3 = splat4(a3);
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      float* yr = y + oh * OW;
      const float* b0 = padded + oh * Wp + off[p];
      const float* b1 = padded + oh * Wp + off[p + 1];
      const float* b2 = padded + oh * Wp + off[p + 2];
      const float* b3 = padded + oh * Wp + off[p + 3];
      std::int64_t ow = 0;
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
  }
  for (; p < rows; ++p) {
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      float* yr = y + oh * OW;
      const float* b = padded + oh * Wp + off[p];
      for (std::int64_t ow = 0; ow < OW; ++ow) yr[ow] += w[p] * b[ow];
    }
  }
}

void direct_conv_weight_grad(const DirectConvIndex& ix, const float* padded,
                             const float* dy, float* dw) {
  // matmul_bt_reference at m = 1: one dot product over the flat pixel
  // index q per weight row, with partial q % 4 for the first
  // floor(OHW/4)*4 pixels, combined as (a0 + a1) + (a2 + a3), then the
  // remaining pixels added one by one.
  const std::int64_t OH = ix.out_height;
  const std::int64_t OW = ix.out_width;
  const std::int64_t Wp = ix.padded_width;
  const std::int64_t rows = static_cast<std::int64_t>(ix.row_offset.size());
  if (OW % 4 == 0) {
    // Every group of four flat pixels lies in one output row and there
    // is no tail, so the four partials are the four lanes of a vector
    // stepping along each row. Four weight rows at a time keep four
    // independent accumulator chains in flight.
    auto row = [&](std::int64_t p) {
      return padded + ix.row_offset[static_cast<std::size_t>(p)];
    };
    auto combine = [](Lanes4 a) { return (a[0] + a[1]) + (a[2] + a[3]); };
    std::int64_t p = 0;
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

void direct_conv_input_grad(const DirectConvIndex& ix, const float* w,
                            const float* dy, float* dpadded, float* dx) {
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
    const float a = w[p];
    const Lanes4 va = splat4(a);
    float* dst = dpadded + ix.row_offset[static_cast<std::size_t>(p)];
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      float* d = dst + oh * Wp;
      const float* src = dy + oh * OW;
      std::int64_t ow = 0;
      for (; ow + 4 <= OW; ow += 4) {
        store4(d + ow, load4(d + ow) + (Lanes4{} + va * load4(src + ow)));
      }
      for (; ow < OW; ++ow) d[ow] += 0.0f + a * src[ow];
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

}  // namespace fleda
