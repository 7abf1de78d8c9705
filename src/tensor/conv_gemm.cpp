#include "tensor/conv_gemm.hpp"

#include <algorithm>
#include <numeric>

#include "tensor/conv_direct.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

ImplicitCols implicit_cols(const ConvIndex& ix, const float* padded) {
  return ImplicitCols{padded, ix.row_offset.data(), ix.pixel_offset.data()};
}

// One axis of a ConvGemmAdjoint phase: image rows r + s u, u < count,
// take the taps kh = top - j tap_step, j < taps, tap j reading x row
// u + first + j step.
struct PhaseAxis {
  std::int64_t r, count, taps, top, tap_step, first, step;
};

// The phases of g's rows (columns when !rows): row r + s u takes the
// taps kh with r + p - kh d = s q, each reading x row u + q, from the
// largest such kh down in steps of s / gcd(d, s) (so q rises in steps
// of d / gcd(d, s)). *pad is the pad of x that holds every row they
// read, (p - (k-1) d) / s to (size - 1 + p) / s: exact at stride 1, a
// row or so to spare at others; negative crops.
std::vector<PhaseAxis> phase_axes(const ConvGeometry& g, bool rows,
                                  std::int64_t* pad) {
  const std::int64_t size = rows ? g.height : g.width;
  const std::int64_t k = rows ? g.kernel_h : g.kernel_w;
  const std::int64_t p = rows ? g.pad_h : g.pad_w;
  const std::int64_t s = rows ? g.stride_h : g.stride_w;
  const std::int64_t d = rows ? g.dilation_h : g.dilation_w;
  const std::int64_t n = rows ? g.out_height() : g.out_width();
  *pad = std::max(((k - 1) * d - p) / s, (size - 1 + p) / s - n + 1);
  const std::int64_t gcd = std::gcd(d, s);
  std::vector<PhaseAxis> axes;
  for (std::int64_t r = 0; r < std::min(s, size); ++r) {
    PhaseAxis a{r, (size - r + s - 1) / s, 0, k - 1, s / gcd, 0, d / gcd};
    while (a.top >= 0 && (r + p - a.top * d) % s != 0) --a.top;
    a.taps = (a.top + a.tap_step) / a.tap_step;  // 0 when top = -1
    a.first = (r + p - a.top * d) / s;
    axes.push_back(a);
  }
  return axes;
}

}  // namespace

ConvGemm::ConvGemm(const ConvGeometry& g, std::int64_t m, const float* a)
    : ConvGemm(make_conv_index(g), m, a, nullptr, 0) {}

ConvGemm::ConvGemm(ConvIndex ix, std::int64_t m, const float* a,
                   const std::int64_t* column, std::int64_t row_stride)
    : ix_(std::move(ix)),
      direct_(column == nullptr && m == 1 && ix_.geometry.stride_h == 1 &&
              ix_.geometry.stride_w == 1) {
  const auto rows = static_cast<std::int64_t>(ix_.row_offset.size());
  if (direct_) {
    apack_.assign(a, a + rows);
    return;
  }
  plan_ = make_gemm_plan(GemmOp::kNN, m, rows,
                         static_cast<std::int64_t>(ix_.pixel_offset.size()));
  apack_.resize(packed_a_elems(plan_));
  pack_a(plan_, a, apack_.data(), column, row_stride);
}

void ConvGemm::run(const float* image, float* out) const {
  float* padded = thread_scratch(
      ScratchSlot::kCols, static_cast<std::size_t>(ix_.padded_elems()));
  pad_image(image, ix_.geometry, padded);
  run_padded(padded, out);
}

void ConvGemm::run_padded(const float* padded, float* out) const {
  if (direct_) {
    direct_conv_forward(ix_, padded, apack_.data(), out);
    return;
  }
  gemm_packed_implicit(plan_, /*a=*/nullptr, apack_.data(),
                       implicit_cols(ix_, padded), out, /*accumulate=*/false,
                       0, plan_.shape.n);
}

ConvGemmAdjoint::ConvGemmAdjoint(const ConvGeometry& g, std::int64_t m,
                                 const float* a)
    : g_(g), x_{m, g.out_height(), g.out_width()} {
  const std::vector<PhaseAxis> rows = phase_axes(g, true, &x_.pad_h);
  const std::vector<PhaseAxis> cols = phase_axes(g, false, &x_.pad_w);
  const std::int64_t hp = x_.height + 2 * x_.pad_h;
  const std::int64_t wp = x_.width + 2 * x_.pad_w;
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  for (const PhaseAxis& ph : rows) {
    for (const PhaseAxis& pw : cols) {
      // The phase's conv of padded x, its pixels from the phase's origin,
      // and W_r[c, (i, jh, jw)] = a[i, (c, top_h - jh tap_step_h,
      // top_w - jw tap_step_w)], gathered as it is packed: row c of a
      // starts at c taps, column (i, jh, jw) at `column`.
      ConvIndex ix{x_, hp, wp, ph.count, pw.count, {}, {}};
      std::vector<std::int64_t> column;
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t jh = 0; jh < ph.taps; ++jh) {
          for (std::int64_t jw = 0; jw < pw.taps; ++jw) {
            ix.row_offset.push_back((i * hp + jh * ph.step) * wp +
                                    jw * pw.step);
            column.push_back(i * g.channels * taps +
                             (ph.top - jh * ph.tap_step) * g.kernel_w +
                             pw.top - jw * pw.tap_step);
          }
        }
      }
      for (std::int64_t u = 0; u < ph.count; ++u) {
        for (std::int64_t v = 0; v < pw.count; ++v) {
          ix.pixel_offset.push_back((x_.pad_h + ph.first + u) * wp +
                                    x_.pad_w + pw.first + v);
        }
      }
      phases_.push_back({ph.r, pw.r,
                         ConvGemm(std::move(ix), g.channels, a, column.data(),
                                  taps)});
    }
  }
}

void ConvGemmAdjoint::run(const float* x, float* image) const {
  float* padded = thread_scratch(
      ScratchSlot::kCols,
      static_cast<std::size_t>(phases_.front().gemm.ix_.padded_elems()));
  pad_image(x, x_, padded);
  for (const Phase& phase : phases_) {
    const std::int64_t rows = phase.gemm.ix_.out_height;
    const std::int64_t cols = phase.gemm.ix_.out_width;
    // At stride 1 the one phase is the whole image, written in place.
    const auto elems = static_cast<std::size_t>(g_.channels * rows * cols);
    float* block = rows * cols == g_.height * g_.width
                       ? image
                       : thread_scratch_aligned(ScratchSlot::kConvBlock, elems);
    phase.gemm.run_padded(padded, block);
    if (block == image) continue;
    // Block row cu is phase row cu % rows of channel cu / rows.
    for (std::int64_t cu = 0; cu < g_.channels * rows; ++cu) {
      float* dst = image + (cu / rows * g_.height + phase.row +
                            cu % rows * g_.stride_h) * g_.width + phase.col;
      for (std::int64_t v = 0; v < cols; ++v) {
        dst[v * g_.stride_w] = block[cu * cols + v];
      }
    }
  }
}

WeightGradBlocks weight_grad_blocks(std::int64_t total, std::int64_t align) {
  WeightGradBlocks b;
  const std::int64_t per = (total + kWeightGradBlocks - 1) / kWeightGradBlocks;
  b.width = std::max<std::int64_t>(align, (per + align - 1) / align * align);
  b.count = (total + b.width - 1) / b.width;
  return b;
}

void conv_gemm_weight_grad(const ConvGeometry& g, std::int64_t m,
                           std::int64_t batch, const float* a,
                           const float* images, float* c) {
  if (m == 1 && g.stride_h == 1 && g.stride_w == 1) {
    direct_conv_weight_grad(g, batch, a, images, c);
    return;
  }
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t a_stride = m * pixels;
  const std::int64_t plane = g.height * g.width;
  const std::int64_t image_stride = g.channels * plane;
  // c^T [rows, m] += cols [rows, pixels] * a_n^T: a_n, stored [m,
  // pixels], is the kBT plan's B, packed once per sample and shared by
  // every block.
  const GemmPlan plan = make_gemm_plan(GemmOp::kBT, rows, pixels, m);
  const std::size_t bpack_elems = packed_b_elems(plan);
  float* bpack = thread_scratch_aligned(
      ScratchSlot::kPackB, static_cast<std::size_t>(batch) * bpack_elems);
  for (std::int64_t n = 0; n < batch; ++n) {
    pack_b(plan, a + n * a_stride,
           bpack + static_cast<std::size_t>(n) * bpack_elems);
  }
  const ConvIndex ix = make_conv_index(g);
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  const std::int64_t padded_plane = ix.padded_height * ix.padded_width;
  const WeightGradBlocks blocks =
      weight_grad_blocks(rows, gemm_kernel_rows(plan.isa));
  parallel_for(static_cast<std::size_t>(blocks.count), [&](std::size_t bb,
                                                           std::size_t be) {
    float* padded = thread_scratch(
        ScratchSlot::kCols, static_cast<std::size_t>(ix.padded_elems()));
    for (std::size_t blk = bb; blk < be; ++blk) {
      const std::int64_t i0 = static_cast<std::int64_t>(blk) * blocks.width;
      const std::int64_t i1 = std::min(rows, i0 + blocks.width);
      // Rows are (channel, tap): pad only the channels they read, in
      // place in the full padded layout the ConvIndex addresses.
      ConvGeometry part = g;
      const std::int64_t c0 = i0 / taps;
      part.channels = (i1 + taps - 1) / taps - c0;
      for (std::int64_t n = 0; n < batch; ++n) {
        pad_image(images + n * image_stride + c0 * plane, part,
                  padded + c0 * padded_plane);
        gemm_packed_implicit_a(
            plan, implicit_cols(ix, padded),
            bpack + static_cast<std::size_t>(n) * bpack_elems, c, i0, i1);
      }
    }
  });
}

void conv_add_bias(const float* bias, std::int64_t channels,
                   std::int64_t pixels, float* y) {
  for (std::int64_t co = 0; co < channels; ++co) {
    const float b = bias[co];
    float* chan = y + co * pixels;
    for (std::int64_t i = 0; i < pixels; ++i) chan[i] += b;
  }
}

void conv_bias_grad(const float* dy, std::int64_t batch,
                    std::int64_t channels, std::int64_t pixels, float* db) {
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t co = 0; co < channels; ++co) {
      const float* chan = dy + (n * channels + co) * pixels;
      double acc = 0.0;
      for (std::int64_t i = 0; i < pixels; ++i) acc += chan[i];
      db[co] += static_cast<float>(acc);
    }
  }
}

}  // namespace fleda
