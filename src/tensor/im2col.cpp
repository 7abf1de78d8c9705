#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace fleda {

void im2col(const float* image, const ConvGeometry& g, float* cols) {
  const std::int64_t hp = g.height + 2 * g.pad_h;
  const std::int64_t wp = g.width + 2 * g.pad_w;
  const std::int64_t oh_n = g.out_height(), ow_n = g.out_width();
  std::vector<float> padded(static_cast<std::size_t>(g.channels * hp * wp));
  pad_image(image, g, padded.data());
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        for (std::int64_t oh = 0; oh < oh_n; ++oh) {
          const float* src =
              padded.data() +
              (c * hp + oh * g.stride_h + kh * g.dilation_h) * wp +
              kw * g.dilation_w;
          for (std::int64_t ow = 0; ow < ow_n; ++ow) {
            *cols++ = src[ow * g.stride_w];
          }
        }
      }
    }
  }
}

void pad_image(const float* image, const ConvGeometry& g, float* padded) {
  const std::int64_t Hp = g.height + 2 * g.pad_h;
  const std::int64_t Wp = g.width + 2 * g.pad_w;
  // Zeros, then source rows [h0, h1) x columns [w0, w1) copied in (a
  // negative pad crops them).
  const std::int64_t h0 = std::max<std::int64_t>(0, -g.pad_h);
  const std::int64_t h1 = std::min(g.height, Hp - g.pad_h);
  const std::int64_t w0 = std::max<std::int64_t>(0, -g.pad_w);
  const std::int64_t w1 = std::min(g.width, Wp - g.pad_w);
  std::memset(padded, 0, sizeof(float) * g.channels * Hp * Wp);
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t h = h0; h < h1; ++h) {
      std::memcpy(padded + (c * Hp + h + g.pad_h) * Wp + w0 + g.pad_w,
                  image + (c * g.height + h) * g.width + w0,
                  sizeof(float) * (w1 - w0));
    }
  }
}

ConvIndex make_conv_index(const ConvGeometry& g) {
  ConvIndex ix;
  ix.geometry = g;
  ix.padded_height = g.height + 2 * g.pad_h;
  ix.padded_width = g.width + 2 * g.pad_w;
  ix.out_height = g.out_height();
  ix.out_width = g.out_width();
  const std::int64_t plane = ix.padded_height * ix.padded_width;
  ix.row_offset.reserve(static_cast<std::size_t>(g.col_rows()));
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        ix.row_offset.push_back(c * plane +
                                kh * g.dilation_h * ix.padded_width +
                                kw * g.dilation_w);
      }
    }
  }
  ix.pixel_offset.reserve(static_cast<std::size_t>(g.col_cols()));
  for (std::int64_t oh = 0; oh < ix.out_height; ++oh) {
    for (std::int64_t ow = 0; ow < ix.out_width; ++ow) {
      ix.pixel_offset.push_back(oh * g.stride_h * ix.padded_width +
                                ow * g.stride_w);
    }
  }
  return ix;
}

}  // namespace fleda
