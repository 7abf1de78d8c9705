// The column matrix of strided, padded, dilated 2D convolution.
//
// im2col lowers a [C,H,W] image into a [C*kh*kw, OH*OW] column matrix
// so convolution becomes a matmul with the [Cout, C*kh*kw] weight
// matrix. No layer writes it: pad_image makes the zero-padded copy of
// one sample that the direct conv kernels and the implicit-column GEMM
// read in its place, addressed through a ConvIndex. im2col gathers it
// from that copy for the tests' oracles and the benchmark ledger.
#pragma once

#include <cstdint>
#include <vector>

namespace fleda {

struct ConvGeometry {
  std::int64_t channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t dilation_h = 1;
  std::int64_t dilation_w = 1;

  std::int64_t out_height() const {
    std::int64_t eff_k = dilation_h * (kernel_h - 1) + 1;
    return (height + 2 * pad_h - eff_k) / stride_h + 1;
  }
  std::int64_t out_width() const {
    std::int64_t eff_k = dilation_w * (kernel_w - 1) + 1;
    return (width + 2 * pad_w - eff_k) / stride_w + 1;
  }
  std::int64_t col_rows() const { return channels * kernel_h * kernel_w; }
  std::int64_t col_cols() const { return out_height() * out_width(); }
};

// image: [C,H,W] contiguous. cols: [col_rows, col_cols] contiguous,
// fully overwritten (padding positions become 0).
void im2col(const float* image, const ConvGeometry& g, float* cols);

// image: [C,H,W] contiguous. padded: [C, H+2*pad_h, W+2*pad_w],
// fully overwritten — the image in the middle, zeros around it. A
// negative pad crops that many rows/columns off each side instead (the
// stride-1 conv dX of a layer padded past its kernel's reach reads dy
// so; im2col and ConvIndex take negative pads as they are).
void pad_image(const float* image, const ConvGeometry& g, float* padded);

// Offsets that address the column matrix inside a padded sample:
//   cols[r][q] = padded[row_offset[r] + pixel_offset[q]]
//   row_offset[r]   = c*Hp*Wp + kh*dilation_h*Wp + kw*dilation_w
//   pixel_offset[q] = oh*stride_h*Wp + ow*stride_w,  q = oh*OW + ow
// for weight row r = (c, kh, kw). Padding cells of cols land on the
// zero margin of the padded copy, so every entry matches im2col's.
struct ConvIndex {
  ConvGeometry geometry;
  std::int64_t padded_height = 0;
  std::int64_t padded_width = 0;
  std::int64_t out_height = 0;
  std::int64_t out_width = 0;
  std::vector<std::int64_t> row_offset;    // col_rows() entries
  std::vector<std::int64_t> pixel_offset;  // col_cols() entries

  // Floats in one padded sample: C * Hp * Wp.
  std::int64_t padded_elems() const {
    return geometry.channels * padded_height * padded_width;
  }
};

ConvIndex make_conv_index(const ConvGeometry& g);

}  // namespace fleda
