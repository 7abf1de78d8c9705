#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace fleda {

void im2col(const float* image, const ConvGeometry& g, float* cols) {
  const std::int64_t OH = g.out_height();
  const std::int64_t OW = g.out_width();
  const std::int64_t HW = g.height * g.width;

  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const float* chan = image + c * HW;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* out_row = cols + row * (OH * OW);
        const std::int64_t ih0 = kh * g.dilation_h - g.pad_h;
        const std::int64_t iw0 = kw * g.dilation_w - g.pad_w;
        for (std::int64_t oh = 0; oh < OH; ++oh) {
          const std::int64_t ih = ih0 + oh * g.stride_h;
          float* dst = out_row + oh * OW;
          if (ih < 0 || ih >= g.height) {
            std::memset(dst, 0, sizeof(float) * OW);
            continue;
          }
          const float* src = chan + ih * g.width;
          for (std::int64_t ow = 0; ow < OW; ++ow) {
            const std::int64_t iw = iw0 + ow * g.stride_w;
            dst[ow] = (iw >= 0 && iw < g.width) ? src[iw] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* cols, const ConvGeometry& g, float* image) {
  const std::int64_t OH = g.out_height();
  const std::int64_t OW = g.out_width();
  const std::int64_t HW = g.height * g.width;

  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* chan = image + c * HW;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in_row = cols + row * (OH * OW);
        const std::int64_t ih0 = kh * g.dilation_h - g.pad_h;
        const std::int64_t iw0 = kw * g.dilation_w - g.pad_w;
        for (std::int64_t oh = 0; oh < OH; ++oh) {
          const std::int64_t ih = ih0 + oh * g.stride_h;
          if (ih < 0 || ih >= g.height) continue;
          const float* src = in_row + oh * OW;
          float* dst = chan + ih * g.width;
          for (std::int64_t ow = 0; ow < OW; ++ow) {
            const std::int64_t iw = iw0 + ow * g.stride_w;
            if (iw >= 0 && iw < g.width) dst[iw] += src[ow];
          }
        }
      }
    }
  }
}

void pad_image(const float* image, const ConvGeometry& g, float* padded) {
  const std::int64_t Hp = g.height + 2 * g.pad_h;
  const std::int64_t Wp = g.width + 2 * g.pad_w;
  // Each kept row copies source columns [w0, w1) between zero margins
  // (empty when the padding is negative, which crops instead).
  const std::int64_t w0 = std::max<std::int64_t>(0, -g.pad_w);
  const std::int64_t w1 = std::min(g.width, Wp - g.pad_w);
  const std::int64_t left = w0 + g.pad_w;
  const std::int64_t right = Wp - left - (w1 - w0);
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* chan = padded + c * Hp * Wp;
    const float* src = image + c * g.height * g.width;
    for (std::int64_t hp = 0; hp < Hp; ++hp) {
      float* row = chan + hp * Wp;
      const std::int64_t h = hp - g.pad_h;
      if (h < 0 || h >= g.height) {
        std::memset(row, 0, sizeof(float) * Wp);
        continue;
      }
      std::memset(row, 0, sizeof(float) * left);
      std::memcpy(row + left, src + h * g.width + w0,
                  sizeof(float) * (w1 - w0));
      std::memset(row + left + (w1 - w0), 0, sizeof(float) * right);
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
