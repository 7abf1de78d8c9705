// Kernel-planner microbenchmark: GFLOP/s of the reference row kernels
// vs the planner's auto choice (packed cache-blocked GEMM on fat
// shapes) for the GEMM shapes the RouteNet / FLNet conv layers actually
// run, plus the plan-cache hit rate over the sweep. A conv-layer row
// times FLNet's single-output-channel head as Conv2d runs it (the
// direct kernels) against the im2col + reference-GEMM lowering those
// kernels replace, and gates on the two agreeing bit for bit. The
// isa_layers rows time RouteNet's conv2 and conv3 (forward + backward
// through Conv2d) on the portable kernels against the dispatched ISA
// (AVX2 where the host has it) and gate on identical bits; the JSON
// names the dispatched ISA. The conv_backward rows time RouteNet's
// conv2, conv3, conv4 and deconv (forward, and backward alone) inside
// one pool task, as a round runs them, and check the layer against the
// col2im lowering it replaced, kept here as an oracle: dW bit for bit,
// dX to rounding (dx_max_rel_err).
//
// Emits BENCH_kernels.json for the CI bench-trajectory artifact;
// ci/perf_gate.py diffs the per-shape auto GFLOP/s against the previous
// main run with a +/-20% band. The bench gates itself on correctness
// (auto result bit-identical to reference for every shape: all
// strategies share one summation order), on the cost model picking
// packed for the fat conv shapes, and on the plan cache absorbing the
// repeat lookups. The m = 1 flnet_output GEMM row stays as the cost
// model's witness; the conv_layers rows report the path that actually
// runs.
//
// Shape naming: <model>_<layer>[_dw|_dx]. Forward conv GEMMs are kNN
// (weight x im2col columns), backward dW is kBT (dy x cols^T), backward
// dcols is kAT (W^T x dy). Grid 32 is the "quick" bench scale; the
// sim_* rows are micro_sim's synthetic FLNet world (grid 8, 2 input
// channels), so the K = 1000 federation numbers trace back to these.
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
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/plan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fleda {
namespace {

struct ShapeCase {
  const char* name;
  GemmOp op;
  std::int64_t m, k, n;
};

// The conv GEMM shapes of the two paper models at the quick bench
// scale (grid 32; pooled stages at 16), and micro_sim's tiny world.
const ShapeCase kShapes[] = {
    {"flnet_conv1", GemmOp::kNN, 64, 486, 1024},
    {"flnet_conv1_dw", GemmOp::kBT, 64, 1024, 486},
    {"flnet_conv1_dx", GemmOp::kAT, 486, 64, 1024},
    {"flnet_output", GemmOp::kNN, 1, 5184, 1024},
    {"routenet_conv2", GemmOp::kNN, 64, 1568, 1024},
    {"routenet_conv3", GemmOp::kNN, 32, 5184, 256},
    {"routenet_deconv", GemmOp::kAT, 512, 32, 256},
    {"sim_flnet_conv1", GemmOp::kNN, 64, 162, 64},
};

struct ShapeResult {
  const ShapeCase* shape = nullptr;
  GemmStrategy strategy = GemmStrategy::kReference;
  double reference_gflops = 0.0;
  double auto_gflops = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

std::vector<float> random_vec(std::size_t elems, Rng& rng) {
  std::vector<float> v(elems);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void run_reference(const ShapeCase& s, const float* a, const float* b,
                   float* c) {
  switch (s.op) {
    case GemmOp::kNN:
      matmul_reference(a, b, c, s.m, s.k, s.n, false);
      return;
    case GemmOp::kAT:
      matmul_at_reference(a, b, c, s.m, s.k, s.n, false);
      return;
    case GemmOp::kBT:
      matmul_bt_reference(a, b, c, s.m, s.k, s.n, false);
      return;
  }
}

void run_auto(const ShapeCase& s, const float* a, const float* b, float* c) {
  switch (s.op) {
    case GemmOp::kNN:
      matmul(a, b, c, s.m, s.k, s.n, false);
      return;
    case GemmOp::kAT:
      matmul_at(a, b, c, s.m, s.k, s.n, false);
      return;
    case GemmOp::kBT:
      matmul_bt(a, b, c, s.m, s.k, s.n, false);
      return;
  }
}

// Median-of-3 timed runs; each run repeats the GEMM until ~0.15s has
// accumulated so tiny shapes are not measuring clock overhead.
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

ShapeResult bench_shape(const ShapeCase& s, Rng& rng) {
  ShapeResult result;
  result.shape = &s;
  const std::vector<float> a =
      random_vec(static_cast<std::size_t>(s.m * s.k), rng);
  const std::vector<float> b =
      random_vec(static_cast<std::size_t>(s.k * s.n), rng);
  std::vector<float> c_ref(static_cast<std::size_t>(s.m * s.n), 0.0f);
  std::vector<float> c_auto(static_cast<std::size_t>(s.m * s.n), 0.0f);

  const GemmPlan plan =
      KernelPlanCache::global().plan_for(s.op, s.m, s.k, s.n);
  result.strategy = plan.strategy;

  result.reference_gflops = measure_gflops(
      plan.flops, [&] { run_reference(s, a.data(), b.data(), c_ref.data()); });
  result.auto_gflops = measure_gflops(
      plan.flops, [&] { run_auto(s, a.data(), b.data(), c_auto.data()); });
  result.speedup = result.auto_gflops / result.reference_gflops;

  result.identical = same_bits(c_ref, c_auto);
  return result;
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
  double im2col_ms = 0.0;
  double direct_ms = 0.0;
  double speedup = 0.0;
  bool bit_identical = false;
};

struct ConvGrads {
  std::vector<float> y, dw, dx, db;  // db: isa_layers only
};

// The im2col lowering with the reference kernels, as Conv2d ran this
// layer before its direct path (bias is zero; at batch <= 16 every
// sample is its own dW slice, so accumulating in sample order matches
// the layer's slice reduction).
void im2col_layer(const ConvGeometry& g, std::int64_t batch,
                  const float* w, const float* x, const float* gy,
                  ConvGrads& out) {
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t in_stride = g.channels * g.height * g.width;
  std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
  std::vector<float> dcols(cols.size());
  std::fill(out.dw.begin(), out.dw.end(), 0.0f);
  std::fill(out.dx.begin(), out.dx.end(), 0.0f);
  for (std::int64_t n = 0; n < batch; ++n) {
    im2col(x + n * in_stride, g, cols.data());
    matmul_reference(w, cols.data(), out.y.data() + n * pixels, 1, rows,
                     pixels);
  }
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* dy = gy + n * pixels;
    im2col(x + n * in_stride, g, cols.data());
    matmul_bt_reference(dy, cols.data(), out.dw.data(), 1, pixels, rows,
                        /*accumulate=*/true);
    matmul_at_reference(w, dy, dcols.data(), rows, 1, pixels);
    col2im(dcols.data(), g, out.dx.data() + n * in_stride);
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
  const double im2col_gflops = measure_gflops(flops, [&] {
    im2col_layer(g, c.batch, conv.weight().value.data(), x.data(), gy.data(),
                 oracle);
  });
  const double direct_gflops = measure_gflops(flops, [&] {
    conv.zero_grad();
    const Tensor y = conv.forward(x, /*training=*/true);
    const Tensor dx = conv.backward(gy);
    direct.y.assign(y.data(), y.data() + y.numel());
    direct.dx.assign(dx.data(), dx.data() + dx.numel());
    direct.dw.assign(conv.weight().grad.data(),
                     conv.weight().grad.data() + conv.weight().grad.numel());
  });
  result.im2col_ms = flops / im2col_gflops * 1e-6;
  result.direct_ms = flops / direct_gflops * 1e-6;
  result.speedup = result.im2col_ms / result.direct_ms;
  result.bit_identical = same_bits(direct.y, oracle.y) &&
                         same_bits(direct.dw, oracle.dw) &&
                         same_bits(direct.dx, oracle.dx);
  return result;
}

// A Conv2d layer timed over one forward + backward, portable kernels
// against the dispatched ISA.
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
  double portable_ms = 0.0;
  double dispatched_ms = 0.0;
  double speedup = 0.0;
  bool bit_identical = false;
};

IsaLayerResult bench_isa_layer(const IsaLayerCase& c, Rng& rng) {
  IsaLayerResult result;
  result.layer = &c;
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
  ConvGrads portable, fast;
  set_kernel_isa(KernelIsa::kPortable);
  result.portable_ms =
      flops / measure_gflops(flops, [&] { step(portable); }) * 1e-6;
  set_kernel_isa(dispatched);
  result.dispatched_ms = flops / measure_gflops(flops, [&] { step(fast); }) *
                         1e-6;
  result.speedup = result.portable_ms / result.dispatched_ms;
  result.bit_identical = same_bits(portable.y, fast.y) &&
                         same_bits(portable.dw, fast.dw) &&
                         same_bits(portable.db, fast.db) &&
                         same_bits(portable.dx, fast.dx);
  return result;
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
  double std_sort_ms = 0.0;
  double portable_ms = 0.0;
  double avx2_ms = 0.0;  // 0 when the host cannot run AVX2
  bool bit_identical = false;
};

double measure_ms(const std::function<void()>& call) {
  return 1e-6 / measure_gflops(1.0, call);
}

// RouteNet's conv2, conv3, conv4 and deconv at the smoke grid (16, and
// 8 after the pool) and batch 4, timed inside one pool task as a
// federated round runs them (every parallel_for in the layer runs
// serially). The col2im lowering they replaced is kept below as the
// oracle.
struct ConvBackwardCase {
  const char* name;
  std::int64_t in_channels, out_channels, kernel, grid, batch;
  bool deconv;
};

const ConvBackwardCase kConvBackward[] = {
    {"routenet_conv2", 32, 64, 7, 16, 4, false},
    {"routenet_conv3", 64, 32, 9, 8, 4, false},
    {"routenet_conv4", 32, 32, 7, 8, 4, false},
    {"routenet_deconv", 32, 32, 4, 8, 4, true}};

struct ConvBackwardResult {
  const ConvBackwardCase* layer = nullptr;
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
  double dx_max_rel_err = 0.0;  // max |dx - oracle| / max |oracle|
  bool dw_identical = false;
};

// Runs `fn` inside a pool task, so nested parallel_for calls are serial.
void in_pool_task(const std::function<void()>& fn) {
  parallel_for(2, [&](std::size_t begin, std::size_t) {
    if (begin == 0) fn();
  });
}

// The lowering the layers' backward ran before dX became a conv: the
// batch in min(N, 16) fixed slices, each with its own dW partial added
// into dw in slice order, and dX as col2im(W^T dy) for a Conv2d, or
// W * im2col(dy) for the deconv (whose `g` is its output geometry).
void col2im_backward(const ConvBackwardCase& c, const ConvGeometry& g,
                     const float* w, const Tensor& x, const Tensor& gy,
                     std::vector<float>& dw, std::vector<float>& dx) {
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t x_stride = x.numel() / c.batch;
  const std::int64_t gy_stride = gy.numel() / c.batch;
  std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
  std::vector<float> dcols(cols.size());
  std::fill(dw.begin(), dw.end(), 0.0f);
  std::fill(dx.begin(), dx.end(), 0.0f);
  const std::int64_t slices = std::min<std::int64_t>(c.batch, 16);
  const std::int64_t span = (c.batch + slices - 1) / slices;
  std::vector<float> partial(dw.size());
  for (std::int64_t s = 0; s < slices; ++s) {
    std::fill(partial.begin(), partial.end(), 0.0f);
    for (std::int64_t n = s * span; n < std::min(c.batch, (s + 1) * span);
         ++n) {
      const float* xn = x.data() + n * x_stride;
      const float* dy = gy.data() + n * gy_stride;
      float* dxn = dx.data() + n * x_stride;
      if (c.deconv) {
        im2col(dy, g, dcols.data());
        matmul(w, dcols.data(), dxn, c.in_channels, rows, pixels);
        matmul_bt(xn, dcols.data(), partial.data(), c.in_channels, pixels,
                  rows, /*accumulate=*/true);
      } else {
        im2col(xn, g, cols.data());
        matmul_bt(dy, cols.data(), partial.data(), c.out_channels, pixels,
                  rows, /*accumulate=*/true);
        matmul_at(w, dy, dcols.data(), rows, c.out_channels, pixels);
        col2im(dcols.data(), g, dxn);
      }
    }
    for (std::size_t i = 0; i < dw.size(); ++i) dw[i] += partial[i];
  }
}

// dX's bound against the oracle: a few ulps of its largest value (the
// conv dX sums channels x taps in KC slices instead of per tap).
constexpr double kDxMaxRelErr = 1e-5;

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
    o.same_padding();
    g = ConvGeometry{c.in_channels, c.grid,    c.grid, c.kernel, c.kernel,
                     o.padding,     o.padding, 1,      1,        1, 1};
    out_shape = Shape::of(c.batch, c.out_channels, c.grid, c.grid);
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
  Tensor dx;
  in_pool_task([&] {
    result.fwd_ms = measure_ms([&] { layer->forward(x, /*training=*/true); });
    result.bwd_ms = measure_ms([&] { layer->backward(gy); });
    layer->zero_grad();
    dx = layer->backward(gy);
  });
  std::vector<float> dw(static_cast<std::size_t>(weight.grad.numel()));
  std::vector<float> want_dx(static_cast<std::size_t>(x.numel()));
  col2im_backward(c, g, weight.value.data(), x, gy, dw, want_dx);
  result.dw_identical =
      same_bits(dw, std::vector<float>(weight.grad.data(),
                                       weight.grad.data() + dw.size()));
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < want_dx.size(); ++i) {
    const float got = dx[static_cast<std::int64_t>(i)];
    err = std::max(err, static_cast<double>(std::fabs(got - want_dx[i])));
    scale = std::max(scale, static_cast<double>(std::fabs(want_dx[i])));
  }
  result.dx_max_rel_err = scale > 0.0 ? err / scale : err;
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

SortLanesResult bench_sort_lanes(std::size_t n, Rng& rng) {
  SortLanesResult result;
  result.cohort = n;
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
  result.std_sort_ms =
      measure_ms([&] { oracle = std_sort_trimmed_mean(cohort); });
  const TrimmedMean rule(kSortTrim);
  const KernelIsa dispatched = kernel_isa();
  result.bit_identical = true;
  for (const KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2}) {
    if (!kernel_isa_supported(isa)) continue;
    set_kernel_isa(isa);
    ModelParameters network;
    const double ms = measure_ms(
        [&] { network = rule.aggregate(ModelParameters{}, inputs); });
    (isa == KernelIsa::kAvx2 ? result.avx2_ms : result.portable_ms) = ms;
    result.bit_identical = result.bit_identical &&
                           network.entries()[0].value.equals(
                               oracle.entries()[0].value);
  }
  set_kernel_isa(dispatched);
  return result;
}

void write_bench_json(const std::vector<ShapeResult>& results,
                      const std::vector<ConvLayerResult>& layers,
                      const std::vector<IsaLayerResult>& isa_layers,
                      const std::vector<ConvBackwardResult>& backward,
                      const std::vector<SortLanesResult>& sorts,
                      const PlanCacheStats& stats, double hit_rate,
                      bool pass) {
  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_kernels: cannot write BENCH_kernels.json\n");
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"micro_kernels\",\"threads\":%zu,\"isa\":\"%s\","
               "\"shapes\":[",
               ThreadPool::global().size(), to_string(kernel_isa()));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShapeResult& r = results[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"op\":\"%s\",\"m\":%lld,\"k\":%lld,"
        "\"n\":%lld,\"strategy\":\"%s\",\"reference_gflops\":%.3f,"
        "\"auto_gflops\":%.3f,\"speedup\":%.3f,\"identical\":%s}",
        i == 0 ? "" : ",", r.shape->name, to_string(r.shape->op),
        static_cast<long long>(r.shape->m),
        static_cast<long long>(r.shape->k),
        static_cast<long long>(r.shape->n), to_string(r.strategy),
        r.reference_gflops, r.auto_gflops, r.speedup,
        r.identical ? "true" : "false");
  }
  std::fprintf(f, "],\"conv_layers\":[");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const ConvLayerResult& r = layers[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"in_channels\":%lld,\"out_channels\":1,"
        "\"kernel\":%lld,\"grid\":%lld,\"batch\":%lld,\"path\":\"direct\","
        "\"im2col_ms\":%.4f,\"direct_ms\":%.4f,\"speedup\":%.3f,"
        "\"bit_identical\":%s}",
        i == 0 ? "" : ",", r.layer->name,
        static_cast<long long>(r.layer->in_channels),
        static_cast<long long>(r.layer->kernel),
        static_cast<long long>(r.layer->grid),
        static_cast<long long>(r.layer->batch), r.im2col_ms, r.direct_ms,
        r.speedup, r.bit_identical ? "true" : "false");
  }
  std::fprintf(f, "],\"isa_layers\":[");
  for (std::size_t i = 0; i < isa_layers.size(); ++i) {
    const IsaLayerResult& r = isa_layers[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"in_channels\":%lld,\"out_channels\":%lld,"
        "\"kernel\":%lld,\"grid\":%lld,\"batch\":%lld,\"isa\":\"%s\","
        "\"portable_ms\":%.4f,\"dispatched_ms\":%.4f,\"speedup\":%.3f,"
        "\"bit_identical\":%s}",
        i == 0 ? "" : ",", r.layer->name,
        static_cast<long long>(r.layer->in_channels),
        static_cast<long long>(r.layer->out_channels),
        static_cast<long long>(r.layer->kernel),
        static_cast<long long>(r.layer->grid),
        static_cast<long long>(r.layer->batch), to_string(kernel_isa()),
        r.portable_ms, r.dispatched_ms, r.speedup,
        r.bit_identical ? "true" : "false");
  }
  std::fprintf(f, "],\"conv_backward\":[");
  for (std::size_t i = 0; i < backward.size(); ++i) {
    const ConvBackwardResult& r = backward[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"in_channels\":%lld,\"out_channels\":%lld,"
        "\"kernel\":%lld,\"grid\":%lld,\"batch\":%lld,\"fwd_ms\":%.4f,"
        "\"bwd_ms\":%.4f,\"dx_max_rel_err\":%.3e,\"dw_identical\":%s}",
        i == 0 ? "" : ",", r.layer->name,
        static_cast<long long>(r.layer->in_channels),
        static_cast<long long>(r.layer->out_channels),
        static_cast<long long>(r.layer->kernel),
        static_cast<long long>(r.layer->grid),
        static_cast<long long>(r.layer->batch), r.fwd_ms, r.bwd_ms,
        r.dx_max_rel_err, r.dw_identical ? "true" : "false");
  }
  std::fprintf(f, "],\"sort_lanes\":[");
  for (std::size_t i = 0; i < sorts.size(); ++i) {
    const SortLanesResult& r = sorts[i];
    std::fprintf(
        f,
        "%s{\"rule\":\"trimmed_mean\",\"trim\":%.2f,\"cohort\":%zu,"
        "\"coordinates\":%lld,\"std_sort_ms\":%.4f,\"portable_ms\":%.4f,"
        "\"avx2_ms\":%.4f,\"bit_identical\":%s}",
        i == 0 ? "" : ",", kSortTrim, r.cohort,
        static_cast<long long>(kSortCoordinates), r.std_sort_ms,
        r.portable_ms, r.avx2_ms, r.bit_identical ? "true" : "false");
  }
  std::fprintf(f,
               "],\"plan_cache\":{\"hits\":%llu,\"misses\":%llu,"
               "\"evictions\":%llu,\"entries\":%zu,\"hit_rate\":%.4f},"
               "\"pass\":%s}\n",
               static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.misses),
               static_cast<unsigned long long>(stats.evictions),
               stats.entries, hit_rate, pass ? "true" : "false");
  std::fclose(f);
}

int main_impl() {
  std::printf("== micro_kernels: planner strategies on model GEMM shapes ==\n");
  std::printf("threads=%zu isa=%s MR=%lld NR=%lld KC=%lld\n",
              ThreadPool::global().size(), to_string(kernel_isa()),
              static_cast<long long>(kGemmMR),
              static_cast<long long>(kGemmNR),
              static_cast<long long>(kGemmKC));

  // Start the cache cold so the hit rate below reflects this sweep.
  KernelPlanCache::global().clear();

  Rng rng(1234);
  std::vector<ShapeResult> results;
  for (const ShapeCase& s : kShapes) {
    results.push_back(bench_shape(s, rng));
  }

  std::printf("%-18s %-3s %5s %5s %5s  %-9s %9s %9s %8s %s\n", "shape",
              "op", "m", "k", "n", "strategy", "ref GF/s", "auto GF/s",
              "speedup", "bits");
  for (const ShapeResult& r : results) {
    std::printf(
        "%-18s %-3s %5lld %5lld %5lld  %-9s %9.2f %9.2f %7.2fx %s\n",
        r.shape->name, to_string(r.shape->op),
        static_cast<long long>(r.shape->m),
        static_cast<long long>(r.shape->k),
        static_cast<long long>(r.shape->n), to_string(r.strategy),
        r.reference_gflops, r.auto_gflops, r.speedup,
        r.identical ? "identical" : "DIFFER");
  }

  const PlanCacheStats stats = KernelPlanCache::global().stats();
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  const double hit_rate =
      lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0;
  std::printf(
      "plan cache: %llu hits / %llu misses (hit rate %.3f), "
      "%zu entries\n",
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses), hit_rate,
      stats.entries);

  // Conv layers run after the cache statistics are read, on one thread
  // as a federated client runs its layers inside one pool task.
  ThreadPool::reset_global(1);
  std::vector<ConvLayerResult> layers;
  for (const ConvLayerCase& c : kConvLayers) {
    layers.push_back(bench_conv_layer(c, rng));
  }
  std::vector<IsaLayerResult> isa_layers;
  for (const IsaLayerCase& c : kIsaLayers) {
    isa_layers.push_back(bench_isa_layer(c, rng));
  }
  std::vector<ConvBackwardResult> backward;
  // Its own stream, so the rows after it keep their inputs.
  Rng backward_rng(4321);
  for (const ConvBackwardCase& c : kConvBackward) {
    backward.push_back(bench_conv_backward(c, backward_rng));
  }
  std::vector<SortLanesResult> sorts;
  for (const std::size_t n : kSortCohorts) {
    sorts.push_back(bench_sort_lanes(n, rng));
  }
  ThreadPool::reset_global(0);
  std::printf("%-22s %4s %3s %4s %5s %10s %10s %8s %s\n", "conv layer",
              "cin", "k", "grid", "batch", "im2col ms", "direct ms",
              "speedup", "bits");
  for (const ConvLayerResult& r : layers) {
    std::printf("%-22s %4lld %3lld %4lld %5lld %10.3f %10.3f %7.2fx %s\n",
                r.layer->name, static_cast<long long>(r.layer->in_channels),
                static_cast<long long>(r.layer->kernel),
                static_cast<long long>(r.layer->grid),
                static_cast<long long>(r.layer->batch), r.im2col_ms,
                r.direct_ms, r.speedup,
                r.bit_identical ? "identical" : "DIFFER");
  }

  std::printf("%-18s %4s %4s %3s %4s %5s %9s %12s %8s %s\n", "isa layer",
              "cin", "cout", "k", "grid", "batch", "portable", "dispatched",
              "speedup", "bits");
  for (const IsaLayerResult& r : isa_layers) {
    std::printf("%-18s %4lld %4lld %3lld %4lld %5lld %6.3f ms %6.3f ms %-4s"
                "%7.2fx %s\n",
                r.layer->name, static_cast<long long>(r.layer->in_channels),
                static_cast<long long>(r.layer->out_channels),
                static_cast<long long>(r.layer->kernel),
                static_cast<long long>(r.layer->grid),
                static_cast<long long>(r.layer->batch), r.portable_ms,
                r.dispatched_ms, to_string(kernel_isa()), r.speedup,
                r.bit_identical ? "identical" : "DIFFER");
  }

  std::printf("%-18s %4s %4s %3s %4s %5s %9s %9s %8s %14s %s\n",
              "conv backward", "cin", "cout", "k", "grid", "batch", "fwd ms",
              "bwd ms", "bwd/fwd", "dx max rel err", "dW");
  for (const ConvBackwardResult& r : backward) {
    std::printf("%-18s %4lld %4lld %3lld %4lld %5lld %9.3f %9.3f %7.2fx "
                "%14.3e %s\n",
                r.layer->name, static_cast<long long>(r.layer->in_channels),
                static_cast<long long>(r.layer->out_channels),
                static_cast<long long>(r.layer->kernel),
                static_cast<long long>(r.layer->grid),
                static_cast<long long>(r.layer->batch), r.fwd_ms, r.bwd_ms,
                r.bwd_ms / r.fwd_ms, r.dx_max_rel_err,
                r.dw_identical ? "identical" : "DIFFER");
  }

  std::printf("%-18s %6s %11s %12s %9s %8s %s\n", "sort_lanes", "cohort",
              "std::sort", "portable", "avx2", "speedup", "bits");
  for (const SortLanesResult& r : sorts) {
    const double network_ms = r.avx2_ms > 0.0 ? r.avx2_ms : r.portable_ms;
    std::printf("%-18s %6zu %8.3f ms %9.3f ms ", "trimmed_mean", r.cohort,
                r.std_sort_ms, r.portable_ms);
    if (r.avx2_ms > 0.0) {
      std::printf("%6.3f ms", r.avx2_ms);
    } else {
      std::printf("%9s", "n/a");
    }
    std::printf(" %7.2fx %s\n", r.std_sort_ms / network_ms,
                r.bit_identical ? "identical" : "DIFFER");
    if (network_ms > r.std_sort_ms) {
      std::printf("note: std::sort beats the network at cohort %zu\n",
                  r.cohort);
    }
  }

  // Gates. (1) Every shape's auto result is bit-identical to
  // reference. (2) The cost model packs the fat conv shapes and leaves
  // the m=1 output conv on reference. (3) Repeat lookups hit the cache
  // (the sweep runs each shape hundreds of times against ~8 misses).
  // (4) Each conv layer's direct path reproduces the im2col bits.
  // (5) Each ISA layer's dispatched kernels reproduce the portable bits.
  // (6) The sorting-network trimmed mean reproduces the std::sort bits
  // on every ISA. (7) Each conv_backward layer's dW reproduces the
  // col2im lowering's bits and its dX agrees with it to rounding.
  bool pass = true;
  for (const ConvBackwardResult& r : backward) {
    if (!r.dw_identical || !(r.dx_max_rel_err <= kDxMaxRelErr)) {
      std::printf("FAIL: %s backward: dW %s, dx max rel err %.3e (max %.0e)\n",
                  r.layer->name, r.dw_identical ? "identical" : "DIFFERS",
                  r.dx_max_rel_err, kDxMaxRelErr);
      pass = false;
    }
  }
  for (const SortLanesResult& r : sorts) {
    if (!r.bit_identical) {
      std::printf("FAIL: trimmed_mean at cohort %zu differs from std::sort\n",
                  r.cohort);
      pass = false;
    }
  }
  for (const IsaLayerResult& r : isa_layers) {
    if (!r.bit_identical) {
      std::printf("FAIL: %s %s kernels differ from portable bits\n",
                  r.layer->name, to_string(kernel_isa()));
      pass = false;
    }
  }
  for (const ConvLayerResult& r : layers) {
    if (!r.bit_identical) {
      std::printf("FAIL: %s direct path differs from im2col bits\n",
                  r.layer->name);
      pass = false;
    }
  }
  for (const ShapeResult& r : results) {
    if (!r.identical) {
      std::printf("FAIL: %s auto differs from reference bits\n",
                  r.shape->name);
      pass = false;
    }
  }
  auto strategy_of = [&](const std::string& name) {
    for (const ShapeResult& r : results) {
      if (name == r.shape->name) return r.strategy;
    }
    return GemmStrategy::kReference;
  };
  for (const char* fat : {"flnet_conv1", "routenet_conv2", "routenet_conv3",
                          "sim_flnet_conv1"}) {
    if (strategy_of(fat) != GemmStrategy::kPacked) {
      std::printf("FAIL: cost model left fat shape %s on reference\n", fat);
      pass = false;
    }
  }
  if (strategy_of("flnet_output") != GemmStrategy::kReference) {
    std::printf("FAIL: cost model packed the m=1 output conv\n");
    pass = false;
  }
  if (hit_rate < 0.9) {
    std::printf("FAIL: plan cache hit rate %.3f < 0.9\n", hit_rate);
    pass = false;
  }

  write_bench_json(results, layers, isa_layers, backward, sorts, stats,
                   hit_rate, pass);
  std::printf("{\"bench\":\"micro_kernels\",\"pass\":%s}\n",
              pass ? "true" : "false");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace fleda

int main() { return fleda::main_impl(); }
