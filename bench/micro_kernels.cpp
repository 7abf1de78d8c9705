// Kernel microbenchmark over the layers the models train. A
// conv-layer row times a single-output-channel head as Conv2d runs it
// (forward and dW on the direct kernels, dX as the stride-1 dX conv)
// and gates its y, dW and db on the bits of the im2col lowering
// through matmul / matmul_bt, and its dX to rounding against the
// scalar adjoint, the conv's transpose written from its definition
// (dx_max_rel_err). The isa_layers rows
// time RouteNet's conv2 and conv3 (forward + backward through Conv2d),
// one row per ISA the host runs, and gate each ISA on the portable
// kernels' bits. The conv_backward rows time RouteNet's conv2, conv3,
// conv4 and deconv, PROS's stride-2 enc2 and the input convs of FLNet
// and of micro_sim's fleet (forward, backward alone, and the weight
// gradient alone) inside one pool task, as a round runs them, and check
// the layer against oracles kept here: dW bit for bit against the
// im2col lowering with per-slice partials, and y and dX to rounding
// (y_max_rel_err, dx_max_rel_err) against im2col + matmul (a Conv2d's
// y) or the scalar adjoint (a Conv2d's dX, the deconv's y). Their
// pack_ms is the profiler's kernel/pack time inside one forward +
// backward: the operand packing the GEMMs pay for. The sort_lanes rows
// time the trimmed mean's sorting network against std::sort.
//
// Emits BENCH_kernels.json for the CI bench-trajectory artifact;
// ci/perf_gate.py diffs the conv_layers direct_ms and the conv_backward
// fwd_ms, bwd_ms and dw_ms against the previous main run with a +/-20%
// band. The bench gates itself on every row's bits and rounding.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fl/aggregation.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "obs/profiler.hpp"
#include "tensor/conv_gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/plan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fleda {
namespace {

std::vector<float> random_vec(std::size_t elems, Rng& rng) {
  std::vector<float> v(elems);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Median-of-3 timed runs; each run repeats the call until ~0.15s has
// accumulated so tiny calls are not measuring clock overhead.
template <typename Fn>
double measure_gflops(double flops_per_call, Fn&& call) {
  // Calibrate the repetition count off one warm call.
  Timer warm;
  call();
  const double once = std::max(warm.seconds(), 1e-6);
  const int reps =
      static_cast<int>(std::clamp(0.15 / once, 1.0, 2000.0));
  double best_rate = 0.0;
  std::vector<double> rates;
  for (int run = 0; run < 3; ++run) {
    Timer timer;
    for (int i = 0; i < reps; ++i) call();
    const double rate =
        flops_per_call * reps / std::max(timer.seconds(), 1e-9) * 1e-9;
    rates.push_back(rate);
    best_rate = std::max(best_rate, rate);
  }
  std::sort(rates.begin(), rates.end());
  return rates[1];  // median
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// A single-output-channel, stride-1 conv layer with same padding, timed
// over one forward + backward at `batch`.
struct ConvLayerCase {
  const char* name;
  std::int64_t in_channels, kernel, grid, batch;
};

// The single-output-channel heads the benchmark trains: FLNet's 64 -> 1
// 9x9 output conv at the smoke grid and minibatch, the fleet's
// flnet_tiny head (grid 8, one sample per step) and RouteNet's
// 32 -> 1 5x5 output conv.
const ConvLayerCase kConvLayers[] = {
    {"flnet_output_conv", 64, 9, 16, 4},
    {"flnet_tiny_output_conv", 64, 9, 8, 1},
    {"routenet_output_conv", 32, 5, 16, 4}};

struct ConvLayerResult {
  const ConvLayerCase* layer = nullptr;
  double direct_ms = 0.0;
  bool bit_identical = false;   // y, dW and db
  double dx_max_rel_err = 0.0;  // max |dx - oracle| / max |oracle|
};

struct ConvGrads {
  std::vector<float> y, dw, dx, db;
};

// The bound of an adjoint (dX, the deconv's y) against the scalar
// adjoint: a few ulps of its largest value (the phase convs sum
// channels x taps in float KC slices, the oracle in double).
constexpr double kDxMaxRelErr = 1e-5;

// The adjoint of the conv `g` with weight a [m, g.col_rows()] applied
// to x [batch, m, OH, OW], from the definition, into image [batch, C,
// H, W]: pixel (c, ih, iw) sums a[i, (c, kh, kw)] * x[i, oh, ow] over
// the terms with oh*s + kh*d - p = ih and ow*s + kw*d - p = iw, in
// double.
void scalar_adjoint(const ConvGeometry& g, std::int64_t m, std::int64_t batch,
                    const float* a, const float* x, float* image) {
  const std::int64_t oh_n = g.out_height(), ow_n = g.out_width();
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      for (std::int64_t ih = 0; ih < g.height; ++ih) {
        for (std::int64_t iw = 0; iw < g.width; ++iw) {
          double acc = 0.0;
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
              const std::int64_t sh = ih + g.pad_h - kh * g.dilation_h;
              const std::int64_t oh = sh / g.stride_h;
              if (sh % g.stride_h != 0 || oh < 0 || oh >= oh_n) continue;
              for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
                const std::int64_t sw = iw + g.pad_w - kw * g.dilation_w;
                const std::int64_t ow = sw / g.stride_w;
                if (sw % g.stride_w != 0 || ow < 0 || ow >= ow_n) continue;
                acc += static_cast<double>(
                           a[(i * g.channels + c) * taps + kh * g.kernel_w +
                             kw]) *
                       x[((n * m + i) * oh_n + oh) * ow_n + ow];
              }
            }
          }
          *image++ = static_cast<float>(acc);
        }
      }
    }
  }
}

// max |got - want| / max |want| over want's elements.
double max_rel_err(const float* got, const std::vector<float>& want) {
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err = std::max(err, static_cast<double>(std::fabs(got[i] - want[i])));
    scale = std::max(scale, static_cast<double>(std::fabs(want[i])));
  }
  return scale > 0.0 ? err / scale : err;
}

// The im2col lowering through the matmul family, as Conv2d ran this
// layer before its direct path (bias is zero; db sums each sample in
// double, in sample order, as the layer does), and dX as the scalar
// adjoint.
void im2col_layer(const ConvGeometry& g, std::int64_t batch,
                  const float* w, const float* x, const float* gy,
                  ConvGrads& out) {
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t in_stride = g.channels * g.height * g.width;
  std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
  std::fill(out.dw.begin(), out.dw.end(), 0.0f);
  out.db.assign(1, 0.0f);
  for (std::int64_t n = 0; n < batch; ++n) {
    im2col(x + n * in_stride, g, cols.data());
    matmul(w, cols.data(), out.y.data() + n * pixels, 1, rows, pixels);
  }
  scalar_adjoint(g, 1, batch, w, gy, out.dx.data());
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* dy = gy + n * pixels;
    im2col(x + n * in_stride, g, cols.data());
    matmul_bt(dy, cols.data(), out.dw.data(), 1, pixels, rows,
              /*accumulate=*/true);
    double acc = 0.0;
    for (std::int64_t i = 0; i < pixels; ++i) acc += dy[i];
    out.db[0] += static_cast<float>(acc);
  }
}

ConvLayerResult bench_conv_layer(const ConvLayerCase& c, Rng& rng) {
  ConvLayerResult result;
  result.layer = &c;
  Conv2dOptions opts;
  opts.in_channels = c.in_channels;
  opts.out_channels = 1;
  opts.kernel = c.kernel;
  opts.same_padding();
  Conv2d conv(c.name, opts, rng);
  const ConvGeometry g{c.in_channels, c.grid,       c.grid, c.kernel,
                       c.kernel,      opts.padding, opts.padding,
                       1,             1,            1,      1};
  Tensor x(Shape::of(c.batch, c.in_channels, c.grid, c.grid));
  Tensor gy(Shape::of(c.batch, 1, c.grid, c.grid));
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::int64_t i = 0; i < gy.numel(); ++i) {
    gy[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  ConvGrads oracle{std::vector<float>(static_cast<std::size_t>(gy.numel())),
                   std::vector<float>(static_cast<std::size_t>(
                       conv.weight().value.numel())),
                   std::vector<float>(static_cast<std::size_t>(x.numel()))};
  ConvGrads direct;
  const double flops = 6.0 * static_cast<double>(g.col_rows()) *
                       static_cast<double>(g.col_cols()) *
                       static_cast<double>(c.batch);
  im2col_layer(g, c.batch, conv.weight().value.data(), x.data(), gy.data(),
               oracle);
  const double direct_gflops = measure_gflops(flops, [&] {
    conv.zero_grad();
    const Tensor y = conv.forward(x, /*training=*/true);
    const Tensor dx = conv.backward(gy);
    direct.y.assign(y.data(), y.data() + y.numel());
    direct.dx.assign(dx.data(), dx.data() + dx.numel());
    direct.dw.assign(conv.weight().grad.data(),
                     conv.weight().grad.data() + conv.weight().grad.numel());
    direct.db.assign(conv.bias().grad.data(),
                     conv.bias().grad.data() + conv.bias().grad.numel());
  });
  result.direct_ms = flops / direct_gflops * 1e-6;
  result.bit_identical = same_bits(direct.y, oracle.y) &&
                         same_bits(direct.dw, oracle.dw) &&
                         same_bits(direct.db, oracle.db);
  result.dx_max_rel_err = max_rel_err(direct.dx.data(), oracle.dx);
  return result;
}

// A Conv2d layer timed over one forward + backward on each ISA.
struct IsaLayerCase {
  const char* name;
  std::int64_t in_channels, out_channels, kernel, grid, batch;
};

// RouteNet's conv2 (32 -> 64, 7x7) and conv3 (64 -> 32, 9x9, after the
// pool) at the quick bench grid.
const IsaLayerCase kIsaLayers[] = {{"routenet_conv2", 32, 64, 7, 32, 2},
                                   {"routenet_conv3", 64, 32, 9, 16, 2}};

struct IsaLayerResult {
  const IsaLayerCase* layer = nullptr;
  KernelIsa isa = KernelIsa::kPortable;
  double ms = 0.0;
  double speedup = 0.0;  // the portable row's ms / ms
  bool bit_identical = false;  // with the portable row
};

// One row per supported ISA, portable first.
std::vector<IsaLayerResult> bench_isa_layer(const IsaLayerCase& c, Rng& rng) {
  Conv2dOptions opts;
  opts.in_channels = c.in_channels;
  opts.out_channels = c.out_channels;
  opts.kernel = c.kernel;
  opts.same_padding();
  Conv2d conv(c.name, opts, rng);
  Tensor x(Shape::of(c.batch, c.in_channels, c.grid, c.grid));
  Tensor gy(Shape::of(c.batch, c.out_channels, c.grid, c.grid));
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::int64_t i = 0; i < gy.numel(); ++i) {
    gy[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  auto step = [&](ConvGrads& out) {
    conv.zero_grad();
    const Tensor y = conv.forward(x, /*training=*/true);
    const Tensor dx = conv.backward(gy);
    out.y.assign(y.data(), y.data() + y.numel());
    out.dx.assign(dx.data(), dx.data() + dx.numel());
    out.dw.assign(conv.weight().grad.data(),
                  conv.weight().grad.data() + conv.weight().grad.numel());
    out.db.assign(conv.bias().grad.data(),
                  conv.bias().grad.data() + conv.bias().grad.numel());
  };
  const double flops = 6.0 * static_cast<double>(c.out_channels) *
                       static_cast<double>(c.in_channels * c.kernel *
                                           c.kernel) *
                       static_cast<double>(c.grid * c.grid * c.batch);
  const KernelIsa dispatched = kernel_isa();
  std::vector<IsaLayerResult> rows;
  ConvGrads portable;
  for (const KernelIsa isa : supported_isas()) {
    set_kernel_isa(isa);
    ConvGrads got;
    IsaLayerResult r;
    r.layer = &c;
    r.isa = isa;
    r.ms = flops / measure_gflops(flops, [&] { step(got); }) * 1e-6;
    if (rows.empty()) portable = got;
    r.speedup = rows.empty() ? 1.0 : rows.front().ms / r.ms;
    r.bit_identical = same_bits(portable.y, got.y) &&
                      same_bits(portable.dw, got.dw) &&
                      same_bits(portable.db, got.db) &&
                      same_bits(portable.dx, got.dx);
    rows.push_back(r);
  }
  set_kernel_isa(dispatched);
  return rows;
}

// Trimmed mean over a cohort of `cohort` updates, each one entry of
// kSortCoordinates floats (the fleet_10k model's parameter count). The
// network rows time TrimmedMean::aggregate, so they also pay for
// validating and copying each folded update; the std::sort row is the
// column loop alone.
constexpr std::int64_t kSortCoordinates = 15617;
constexpr double kSortTrim = 0.1;
const std::size_t kSortCohorts[] = {9, 200, 1000};

struct SortLanesResult {
  std::size_t cohort = 0;
  KernelIsa isa = KernelIsa::kPortable;
  double std_sort_ms = 0.0;
  double network_ms = 0.0;
  bool bit_identical = false;  // with std::sort
};

double measure_ms(const std::function<void()>& call) {
  return 1e-6 / measure_gflops(1.0, call);
}

// RouteNet's conv2, conv3, conv4 and deconv at the smoke grid (16, and
// 8 after the pool) and batch 4, PROS's stride-2 enc2 (grid 8 after
// enc1), FLNet's input conv at the smoke grid and batch 4, and the
// fleet's (micro_sim and fledabench fleet_10k: grid 8, batch 1), timed
// inside one pool task as a federated round runs them (every
// parallel_for in the layer runs serially). The input convs compute no
// dX, as in the models. Their oracles are kept below.
struct ConvBackwardCase {
  const char* name;
  std::int64_t in_channels, out_channels, kernel, grid, batch;
  bool deconv;
  std::int64_t stride = 1;  // a Conv2d's; the deconv's is always 2
  bool input_grad = true;
};

const ConvBackwardCase kConvBackward[] = {
    {"routenet_conv2", 32, 64, 7, 16, 4, false},
    {"routenet_conv3", 64, 32, 9, 8, 4, false},
    {"routenet_conv4", 32, 32, 7, 8, 4, false},
    {"routenet_deconv", 32, 32, 4, 8, 4, true},
    {"pros_enc2", 32, 64, 3, 8, 4, false, 2},
    {"flnet_input_conv", 6, 64, 9, 16, 4, false, 1, false},
    {"fleet_input_conv", 2, 64, 9, 8, 1, false, 1, false}};

struct ConvBackwardResult {
  const ConvBackwardCase* layer = nullptr;
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
  double dw_ms = 0.0;  // conv_gemm_weight_grad alone
  double pack_ms = 0.0;  // kernel/pack inside one forward + backward
  double y_max_rel_err = 0.0;   // max |y - oracle| / max |oracle|
  double dx_max_rel_err = 0.0;  // max |dx - oracle| / max |oracle|
  bool dw_identical = false;
};

// Runs `fn` inside a pool task, so nested parallel_for calls are serial.
void in_pool_task(const std::function<void()>& fn) {
  parallel_for(2, [&](std::size_t begin, std::size_t) {
    if (begin == 0) fn();
  });
}

// The oracles of a conv_backward row (the layers' bias is zero). dW:
// the lowering the layers' backward ran before dX became a conv, the
// batch in min(N, 16) fixed slices, each with its own dW partial added
// into dw in slice order. y: W * im2col(x) for a Conv2d, the scalar
// adjoint of x for the deconv (whose `g` is its output geometry). dX:
// the scalar adjoint of dy for a Conv2d, W * im2col(dy) for the deconv.
void oracle_layer(const ConvBackwardCase& c, const ConvGeometry& g,
                  const float* w, const Tensor& x, const Tensor& gy,
                  std::vector<float>& y, std::vector<float>& dw,
                  std::vector<float>& dx) {
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t x_stride = x.numel() / c.batch;
  const std::int64_t gy_stride = gy.numel() / c.batch;
  std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
  std::fill(dw.begin(), dw.end(), 0.0f);
  if (c.deconv) {
    scalar_adjoint(g, c.in_channels, c.batch, w, x.data(), y.data());
  } else {
    scalar_adjoint(g, c.out_channels, c.batch, w, gy.data(), dx.data());
  }
  const std::int64_t slices = std::min<std::int64_t>(c.batch, 16);
  const std::int64_t span = (c.batch + slices - 1) / slices;
  std::vector<float> partial(dw.size());
  for (std::int64_t s = 0; s < slices; ++s) {
    std::fill(partial.begin(), partial.end(), 0.0f);
    for (std::int64_t n = s * span; n < std::min(c.batch, (s + 1) * span);
         ++n) {
      const float* xn = x.data() + n * x_stride;
      const float* dy = gy.data() + n * gy_stride;
      if (c.deconv) {
        im2col(dy, g, cols.data());
        matmul(w, cols.data(), dx.data() + n * x_stride, c.in_channels, rows,
               pixels);
        matmul_bt(xn, cols.data(), partial.data(), c.in_channels, pixels,
                  rows, /*accumulate=*/true);
      } else {
        im2col(xn, g, cols.data());
        matmul(w, cols.data(), y.data() + n * gy_stride, c.out_channels, rows,
               pixels);
        matmul_bt(dy, cols.data(), partial.data(), c.out_channels, pixels,
                  rows, /*accumulate=*/true);
      }
    }
    for (std::size_t i = 0; i < dw.size(); ++i) dw[i] += partial[i];
  }
}

// The profiler's kernel/pack total over a few forward + backward steps,
// per step (profiling switched on for the measurement).
double pack_ms_per_step(Module& layer, const Tensor& x, const Tensor& gy) {
  constexpr int kSteps = 10;
  const bool was_enabled = Profiler::enabled();
  Profiler::set_enabled(true);
  Profiler::reset();
  for (int i = 0; i < kSteps; ++i) {
    layer.forward(x, /*training=*/true);
    layer.backward(gy);
  }
  const double ms = Profiler::report().total_seconds(phase::kKernelPack) *
                    1e3 / kSteps;
  Profiler::reset();
  Profiler::set_enabled(was_enabled);
  return ms;
}

ConvBackwardResult bench_conv_backward(const ConvBackwardCase& c, Rng& rng) {
  ConvBackwardResult result;
  result.layer = &c;
  std::unique_ptr<Module> layer;
  ConvGeometry g;
  Shape out_shape;
  if (c.deconv) {
    ConvTranspose2dOptions o;
    o.in_channels = c.in_channels;
    o.out_channels = c.out_channels;
    o.kernel = c.kernel;
    o.stride = 2;
    o.padding = 1;
    const std::int64_t out = o.out_size(c.grid);
    g = ConvGeometry{c.out_channels, out, out, c.kernel, c.kernel, 1, 1,
                     2,              2,   1,   1};
    out_shape = Shape::of(c.batch, c.out_channels, out, out);
    layer = std::make_unique<ConvTranspose2d>(c.name, o, rng);
  } else {
    Conv2dOptions o;
    o.in_channels = c.in_channels;
    o.out_channels = c.out_channels;
    o.kernel = c.kernel;
    o.stride = c.stride;
    o.same_padding();
    o.input_grad = c.input_grad;
    g = ConvGeometry{c.in_channels, c.grid,    c.grid,   c.kernel, c.kernel,
                     o.padding,     o.padding, c.stride, c.stride, 1, 1};
    out_shape = Shape::of(c.batch, c.out_channels, g.out_height(),
                          g.out_width());
    layer = std::make_unique<Conv2d>(c.name, o, rng);
  }
  Tensor x(Shape::of(c.batch, c.in_channels, c.grid, c.grid));
  Tensor gy(out_shape);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::int64_t i = 0; i < gy.numel(); ++i) {
    gy[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  Parameter& weight = *layer->parameters()[0];
  // The deconv's weight gradient is x against cols(dy); a Conv2d's is dy
  // against cols(x).
  const std::int64_t dw_m = c.deconv ? c.in_channels : c.out_channels;
  const Tensor& dw_a = c.deconv ? x : gy;
  const Tensor& dw_images = c.deconv ? gy : x;
  Tensor y, dx;
  in_pool_task([&] {
    result.fwd_ms = measure_ms([&] { layer->forward(x, /*training=*/true); });
    result.bwd_ms = measure_ms([&] { layer->backward(gy); });
    result.dw_ms = measure_ms([&] {
      conv_gemm_weight_grad(g, dw_m, c.batch, dw_a.data(), dw_images.data(),
                            weight.grad.data());
    });
    result.pack_ms = pack_ms_per_step(*layer, x, gy);
    layer->zero_grad();
    y = layer->forward(x, /*training=*/true);
    dx = layer->backward(gy);
  });
  std::vector<float> want_y(static_cast<std::size_t>(gy.numel()));
  std::vector<float> dw(static_cast<std::size_t>(weight.grad.numel()));
  std::vector<float> want_dx(static_cast<std::size_t>(x.numel()));
  oracle_layer(c, g, weight.value.data(), x, gy, want_y, dw, want_dx);
  result.y_max_rel_err = max_rel_err(y.data(), want_y);
  result.dw_identical =
      same_bits(dw, std::vector<float>(weight.grad.data(),
                                       weight.grad.data() + dw.size()));
  if (c.input_grad) result.dx_max_rel_err = max_rel_err(dx.data(), want_dx);
  return result;
}

// The per-coordinate form the kernel replaced: gather the column, sort
// it, sum the survivors in ascending order in double.
ModelParameters std_sort_trimmed_mean(
    const std::vector<ModelParameters>& cohort) {
  const std::size_t n = cohort.size();
  const auto g = static_cast<std::size_t>(kSortTrim * static_cast<double>(n));
  ModelParameters out = cohort[0];
  float* dst = out.mutable_entries()[0].value.data();
  std::vector<float> column(n);
  for (std::int64_t i = 0; i < kSortCoordinates; ++i) {
    for (std::size_t c = 0; c < n; ++c) {
      column[c] = cohort[c].entries()[0].value.data()[i];
    }
    std::sort(column.begin(), column.end());
    double acc = 0.0;
    for (std::size_t c = g; c < n - g; ++c) acc += column[c];
    dst[i] = static_cast<float>(acc / static_cast<double>(n - 2 * g));
  }
  return out;
}

// One row per supported ISA, portable first; std::sort is timed once.
std::vector<SortLanesResult> bench_sort_lanes(std::size_t n, Rng& rng) {
  std::vector<ModelParameters> cohort(n);
  std::vector<AggregationInput> inputs;
  for (ModelParameters& p : cohort) {
    const std::vector<float> values =
        random_vec(static_cast<std::size_t>(kSortCoordinates), rng);
    Tensor t(Shape::of(kSortCoordinates));
    std::copy(values.begin(), values.end(), t.data());
    p.mutable_entries().push_back({"w", false, t});
    inputs.push_back({&p, 1.0, 0});
  }
  ModelParameters oracle;
  const double std_sort_ms =
      measure_ms([&] { oracle = std_sort_trimmed_mean(cohort); });
  const TrimmedMean rule(kSortTrim);
  const KernelIsa dispatched = kernel_isa();
  std::vector<SortLanesResult> rows;
  for (const KernelIsa isa : supported_isas()) {
    set_kernel_isa(isa);
    ModelParameters network;
    SortLanesResult r;
    r.cohort = n;
    r.isa = isa;
    r.std_sort_ms = std_sort_ms;
    r.network_ms = measure_ms(
        [&] { network = rule.aggregate(ModelParameters{}, inputs); });
    r.bit_identical =
        network.entries()[0].value.equals(oracle.entries()[0].value);
    rows.push_back(r);
  }
  set_kernel_isa(dispatched);
  return rows;
}

void write_bench_json(const std::vector<ConvLayerResult>& layers,
                      const std::vector<IsaLayerResult>& isa_layers,
                      const std::vector<ConvBackwardResult>& backward,
                      const std::vector<SortLanesResult>& sorts,
                      bool pass) {
  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_kernels: cannot write BENCH_kernels.json\n");
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"micro_kernels\",\"threads\":%zu,\"isa\":\"%s\","
               "\"conv_layers\":[",
               ThreadPool::global().size(), to_string(kernel_isa()));
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const ConvLayerResult& r = layers[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"in_channels\":%lld,\"out_channels\":1,"
        "\"kernel\":%lld,\"grid\":%lld,\"batch\":%lld,\"path\":\"direct\","
        "\"direct_ms\":%.4f,\"bit_identical\":%s,\"dx_max_rel_err\":%.3e}",
        i == 0 ? "" : ",", r.layer->name,
        static_cast<long long>(r.layer->in_channels),
        static_cast<long long>(r.layer->kernel),
        static_cast<long long>(r.layer->grid),
        static_cast<long long>(r.layer->batch), r.direct_ms,
        r.bit_identical ? "true" : "false", r.dx_max_rel_err);
  }
  std::fprintf(f, "],\"isa_layers\":[");
  for (std::size_t i = 0; i < isa_layers.size(); ++i) {
    const IsaLayerResult& r = isa_layers[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"in_channels\":%lld,\"out_channels\":%lld,"
        "\"kernel\":%lld,\"grid\":%lld,\"batch\":%lld,\"isa\":\"%s\","
        "\"ms\":%.4f,\"speedup\":%.3f,\"bit_identical\":%s}",
        i == 0 ? "" : ",", r.layer->name,
        static_cast<long long>(r.layer->in_channels),
        static_cast<long long>(r.layer->out_channels),
        static_cast<long long>(r.layer->kernel),
        static_cast<long long>(r.layer->grid),
        static_cast<long long>(r.layer->batch), to_string(r.isa), r.ms,
        r.speedup, r.bit_identical ? "true" : "false");
  }
  std::fprintf(f, "],\"conv_backward\":[");
  for (std::size_t i = 0; i < backward.size(); ++i) {
    const ConvBackwardResult& r = backward[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"in_channels\":%lld,\"out_channels\":%lld,"
        "\"kernel\":%lld,\"grid\":%lld,\"batch\":%lld,\"fwd_ms\":%.4f,"
        "\"bwd_ms\":%.4f,\"dw_ms\":%.4f,\"pack_ms\":%.4f,"
        "\"y_max_rel_err\":%.3e,\"dx_max_rel_err\":%.3e,"
        "\"dw_identical\":%s}",
        i == 0 ? "" : ",", r.layer->name,
        static_cast<long long>(r.layer->in_channels),
        static_cast<long long>(r.layer->out_channels),
        static_cast<long long>(r.layer->kernel),
        static_cast<long long>(r.layer->grid),
        static_cast<long long>(r.layer->batch), r.fwd_ms, r.bwd_ms,
        r.dw_ms, r.pack_ms, r.y_max_rel_err, r.dx_max_rel_err,
        r.dw_identical ? "true" : "false");
  }
  std::fprintf(f, "],\"sort_lanes\":[");
  for (std::size_t i = 0; i < sorts.size(); ++i) {
    const SortLanesResult& r = sorts[i];
    std::fprintf(
        f,
        "%s{\"rule\":\"trimmed_mean\",\"trim\":%.2f,\"cohort\":%zu,"
        "\"coordinates\":%lld,\"isa\":\"%s\",\"std_sort_ms\":%.4f,"
        "\"network_ms\":%.4f,\"bit_identical\":%s}",
        i == 0 ? "" : ",", kSortTrim, r.cohort,
        static_cast<long long>(kSortCoordinates), to_string(r.isa),
        r.std_sort_ms, r.network_ms, r.bit_identical ? "true" : "false");
  }
  std::fprintf(f, "],\"pass\":%s}\n", pass ? "true" : "false");
  std::fclose(f);
}

int main_impl() {
  std::printf("== micro_kernels: conv layers, ISAs and sort_lanes ==\n");
  std::printf("threads=%zu isa=%s MR=%lld NR=%lld KC=%lld\n",
              ThreadPool::global().size(), to_string(kernel_isa()),
              static_cast<long long>(kGemmMR),
              static_cast<long long>(kGemmNR),
              static_cast<long long>(kGemmKC));

  Rng rng(1234);
  // The layers run on one thread, as a federated client runs its layers
  // inside one pool task.
  ThreadPool::reset_global(1);
  std::vector<ConvLayerResult> layers;
  for (const ConvLayerCase& c : kConvLayers) {
    layers.push_back(bench_conv_layer(c, rng));
  }
  std::vector<IsaLayerResult> isa_layers;
  for (const IsaLayerCase& c : kIsaLayers) {
    for (const IsaLayerResult& r : bench_isa_layer(c, rng)) {
      isa_layers.push_back(r);
    }
  }
  std::vector<ConvBackwardResult> backward;
  // Its own stream, so the rows after it keep their inputs.
  Rng backward_rng(4321);
  for (const ConvBackwardCase& c : kConvBackward) {
    backward.push_back(bench_conv_backward(c, backward_rng));
  }
  std::vector<SortLanesResult> sorts;
  for (const std::size_t n : kSortCohorts) {
    for (const SortLanesResult& r : bench_sort_lanes(n, rng)) {
      sorts.push_back(r);
    }
  }
  ThreadPool::reset_global(0);
  std::printf("%-22s %4s %3s %4s %5s %10s %14s %s\n", "conv layer", "cin",
              "k", "grid", "batch", "direct ms", "dx max rel err",
              "y/dW/db");
  for (const ConvLayerResult& r : layers) {
    std::printf("%-22s %4lld %3lld %4lld %5lld %10.3f %14.3e %s\n",
                r.layer->name, static_cast<long long>(r.layer->in_channels),
                static_cast<long long>(r.layer->kernel),
                static_cast<long long>(r.layer->grid),
                static_cast<long long>(r.layer->batch), r.direct_ms,
                r.dx_max_rel_err, r.bit_identical ? "identical" : "DIFFER");
  }

  std::printf("%-18s %4s %4s %3s %4s %5s %-8s %9s %8s %s\n", "isa layer",
              "cin", "cout", "k", "grid", "batch", "isa", "ms",
              "speedup", "bits");
  for (const IsaLayerResult& r : isa_layers) {
    std::printf("%-18s %4lld %4lld %3lld %4lld %5lld %-8s %6.3f ms "
                "%7.2fx %s\n",
                r.layer->name, static_cast<long long>(r.layer->in_channels),
                static_cast<long long>(r.layer->out_channels),
                static_cast<long long>(r.layer->kernel),
                static_cast<long long>(r.layer->grid),
                static_cast<long long>(r.layer->batch), to_string(r.isa),
                r.ms, r.speedup, r.bit_identical ? "identical" : "DIFFER");
  }

  std::printf("%-18s %4s %4s %3s %4s %5s %9s %9s %8s %9s %9s %13s %14s "
              "%s\n",
              "conv backward", "cin", "cout", "k", "grid", "batch", "fwd ms",
              "bwd ms", "bwd/fwd", "dW ms", "pack ms", "y max rel err",
              "dx max rel err", "dW");
  for (const ConvBackwardResult& r : backward) {
    std::printf("%-18s %4lld %4lld %3lld %4lld %5lld %9.3f %9.3f %7.2fx "
                "%9.3f %9.3f %13.3e %14.3e %s\n",
                r.layer->name, static_cast<long long>(r.layer->in_channels),
                static_cast<long long>(r.layer->out_channels),
                static_cast<long long>(r.layer->kernel),
                static_cast<long long>(r.layer->grid),
                static_cast<long long>(r.layer->batch), r.fwd_ms, r.bwd_ms,
                r.bwd_ms / r.fwd_ms, r.dw_ms, r.pack_ms, r.y_max_rel_err,
                r.dx_max_rel_err, r.dw_identical ? "identical" : "DIFFER");
  }

  std::printf("%-18s %6s %-8s %11s %11s %8s %s\n", "sort_lanes", "cohort",
              "isa", "std::sort", "network", "speedup", "bits");
  for (const SortLanesResult& r : sorts) {
    std::printf("%-18s %6zu %-8s %8.3f ms %8.3f ms %7.2fx %s\n",
                "trimmed_mean", r.cohort, to_string(r.isa), r.std_sort_ms,
                r.network_ms, r.std_sort_ms / r.network_ms,
                r.bit_identical ? "identical" : "DIFFER");
    if (r.network_ms > r.std_sort_ms) {
      std::printf("note: std::sort beats the %s network at cohort %zu\n",
                  to_string(r.isa), r.cohort);
    }
  }

  // Gates. (1) Each conv layer's y, dW and db reproduce the im2col
  // bits and its dX agrees with the scalar adjoint to rounding. (2) Each
  // ISA layer's kernels reproduce the portable bits on every ISA. (3)
  // The sorting-network trimmed mean reproduces the std::sort bits on
  // every ISA. (4) Each conv_backward layer's dW reproduces the im2col
  // lowering's bits, and its y and dX agree with their oracles to
  // rounding.
  bool pass = true;
  for (const ConvBackwardResult& r : backward) {
    if (!r.dw_identical || !(r.y_max_rel_err <= kDxMaxRelErr) ||
        !(r.dx_max_rel_err <= kDxMaxRelErr)) {
      std::printf("FAIL: %s: dW %s, y max rel err %.3e, dx max rel err "
                  "%.3e (max %.0e)\n",
                  r.layer->name, r.dw_identical ? "identical" : "DIFFERS",
                  r.y_max_rel_err, r.dx_max_rel_err, kDxMaxRelErr);
      pass = false;
    }
  }
  for (const SortLanesResult& r : sorts) {
    if (!r.bit_identical) {
      std::printf("FAIL: %s trimmed_mean at cohort %zu differs from "
                  "std::sort\n",
                  to_string(r.isa), r.cohort);
      pass = false;
    }
  }
  for (const IsaLayerResult& r : isa_layers) {
    if (!r.bit_identical) {
      std::printf("FAIL: %s %s kernels differ from portable bits\n",
                  r.layer->name, to_string(r.isa));
      pass = false;
    }
  }
  for (const ConvLayerResult& r : layers) {
    if (!r.bit_identical || !(r.dx_max_rel_err <= kDxMaxRelErr)) {
      std::printf("FAIL: %s: y/dW/db %s, dx max rel err %.3e (max %.0e)\n",
                  r.layer->name, r.bit_identical ? "identical" : "DIFFER",
                  r.dx_max_rel_err, kDxMaxRelErr);
      pass = false;
    }
  }
  write_bench_json(layers, isa_layers, backward, sorts, pass);
  std::printf("{\"bench\":\"micro_kernels\",\"pass\":%s}\n",
              pass ? "true" : "false");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace fleda

int main() { return fleda::main_impl(); }
