// Tests for the shape-keyed kernel planner: the packed cache-blocked
// GEMM must agree with the reference kernels to float tolerance over a
// shape sweep (including the degenerate and tail shapes the packing
// zero-pads), the auto plan must be bit-identical across thread-pool
// sizes, the plan cache must count hits/misses/evictions correctly
// under concurrent lookups, and FLEDA_PLAN=reference must make a full
// training step use the historical kernels. The direct kernels of the
// single-output-channel conv must reproduce the im2col + reference-GEMM
// lowering bit for bit, at any pool size. Every kernel ISA the host
// supports must reproduce the portable kernels' bits, and Conv2d's
// implicit-column packed path must reproduce im2col + the same GEMM
// plans, at strides 1 and 2, dilation 2 and pool sizes 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "models/flnet.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "tensor/conv_direct.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// Restores auto mode even when a test body throws.
struct PlanModeGuard {
  explicit PlanModeGuard(PlanMode mode) { set_plan_mode(mode); }
  ~PlanModeGuard() { set_plan_mode(PlanMode::kAuto); }
};

// Pins the kernel ISA for one scope, then restores the host default.
struct IsaGuard {
  explicit IsaGuard(KernelIsa isa) : saved(kernel_isa()) {
    set_kernel_isa(isa);
  }
  ~IsaGuard() { set_kernel_isa(saved); }
  KernelIsa saved;
};

// The ISAs besides kPortable that this host can run.
std::vector<KernelIsa> accelerated_isas() {
  std::vector<KernelIsa> isas;
  if (kernel_isa_supported(KernelIsa::kAvx2)) isas.push_back(KernelIsa::kAvx2);
  return isas;
}

#define SKIP_WITHOUT_ACCELERATED_ISA()                                     \
  if (accelerated_isas().empty()) {                                        \
    GTEST_SKIP() << "host has no kernel ISA beyond portable (no AVX2)";    \
  }

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// The reference kernels double as the oracle: their agreement with a
// naive triple loop is already covered by tensor_test.
void run_reference(GemmOp op, const float* a, const float* b, float* c,
                   std::int64_t m, std::int64_t k, std::int64_t n,
                   bool accumulate) {
  switch (op) {
    case GemmOp::kNN:
      matmul_reference(a, b, c, m, k, n, accumulate);
      return;
    case GemmOp::kAT:
      matmul_at_reference(a, b, c, m, k, n, accumulate);
      return;
    case GemmOp::kBT:
      matmul_bt_reference(a, b, c, m, k, n, accumulate);
      return;
  }
}

// A packed plan for any shape, bypassing the cost model so the sweep
// can push degenerate shapes (m=1, n=1, k<4 tails) through the packed
// path that the planner would normally route to reference.
GemmPlan forced_packed_plan(GemmOp op, std::int64_t m, std::int64_t k,
                            std::int64_t n) {
  GemmPlan plan = make_gemm_plan(op, m, k, n);
  if (plan.strategy == GemmStrategy::kPacked) return plan;
  plan.strategy = GemmStrategy::kPacked;
  plan.kc = std::min<std::int64_t>(k, 64);
  plan.nc = std::min<std::int64_t>((n + kGemmNR - 1) / kGemmNR * kGemmNR,
                                   8 * kGemmNR);
  plan.mc = std::min<std::int64_t>((m + kGemmMR - 1) / kGemmMR * kGemmMR, 96);
  return plan;
}

float max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

TEST(GemmPacked, MatchesReferenceOverShapeSweep) {
  // Odd sizes, k<4 tails, single-row/column degenerates, and fat
  // shapes the cost model itself would pack.
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{1, 7, 33},   {5, 3, 17},  {4, 16, 16},  {7, 81, 19},
                {64, 162, 64}, {33, 65, 47}, {13, 2, 130}, {96, 100, 1},
                {1, 5184, 64}, {50, 486, 256}};
  Rng rng(7);
  for (GemmOp op : {GemmOp::kNN, GemmOp::kAT, GemmOp::kBT}) {
    for (const auto& s : shapes) {
      for (bool accumulate : {false, true}) {
        std::vector<float> a =
            random_vec(static_cast<std::size_t>(s.m * s.k), rng);
        std::vector<float> b =
            random_vec(static_cast<std::size_t>(s.k * s.n), rng);
        std::vector<float> seed =
            random_vec(static_cast<std::size_t>(s.m * s.n), rng);
        std::vector<float> want = seed;
        std::vector<float> got = seed;
        run_reference(op, a.data(), b.data(), want.data(), s.m, s.k, s.n,
                      accumulate);
        const GemmPlan plan = forced_packed_plan(op, s.m, s.k, s.n);
        gemm_packed(plan, a.data(), b.data(), got.data(), accumulate);
        // Summation-order error grows ~sqrt(k) for fp32 dot products of
        // unit-scale values; 1e-5 is the per-accumulation budget.
        const float tolerance =
            1e-5f * std::max(1.0f, std::sqrt(static_cast<float>(s.k)));
        EXPECT_LE(max_abs_diff(want, got), tolerance)
            << plan.to_string() << " accumulate=" << accumulate;
      }
    }
  }
}

TEST(GemmPacked, PrepackedAMatchesOnTheFlyPacking) {
  Rng rng(11);
  for (GemmOp op : {GemmOp::kNN, GemmOp::kAT}) {
    const std::int64_t m = 37, k = 120, n = 50;
    const GemmPlan plan = forced_packed_plan(op, m, k, n);
    std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), rng);
    std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), rng);
    std::vector<float> direct(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> pre(static_cast<std::size_t>(m * n), 0.0f);
    gemm_packed(plan, a.data(), b.data(), direct.data(), false);
    std::vector<float> apack(packed_a_elems(plan));
    pack_a(plan, a.data(), apack.data());
    gemm_packed_prepacked_a(plan, apack.data(), b.data(), pre.data(), false);
    // Same plan, same packing layout: identical summation order, so the
    // two paths must agree bit for bit.
    EXPECT_EQ(0, std::memcmp(direct.data(), pre.data(),
                             pre.size() * sizeof(float)))
        << plan.to_string();
  }
}

TEST(GemmPacked, BitIdenticalAcrossThreadPoolSizes) {
  Rng rng(13);
  const std::int64_t m = 64, k = 162, n = 256;  // cost model picks packed
  std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), rng);
  std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), rng);
  ASSERT_EQ(make_gemm_plan(GemmOp::kNN, m, k, n).strategy,
            GemmStrategy::kPacked);
  std::vector<std::vector<float>> results;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::reset_global(threads);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    matmul(a.data(), b.data(), c.data(), m, k, n);
    results.push_back(std::move(c));
  }
  ThreadPool::reset_global(0);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(results[0].data(), results[i].data(),
                             results[0].size() * sizeof(float)))
        << "pool size index " << i;
  }
}

TEST(GemmPacked, ConvForwardBackwardBitIdenticalAcrossPoolSizes) {
  // End to end through Conv2d: the planner picks packed for this shape
  // and the fixed MR row partition + fixed dW slices must keep both
  // directions bit-identical whatever the pool size.
  Conv2dOptions opts;
  opts.in_channels = 2;
  opts.out_channels = 64;
  opts.kernel = 9;
  opts.same_padding();
  std::vector<Tensor> weights, grads;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::reset_global(threads);
    Rng rng(21);
    Conv2d conv("c", opts, rng);
    Tensor x(Shape::of(2, 2, 16, 16));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    Tensor y = conv.forward(x, true);
    conv.backward(y);  // any upstream grad works; y is deterministic
    weights.push_back(y);
    grads.push_back(conv.weight().grad);
  }
  ThreadPool::reset_global(0);
  for (std::size_t i = 1; i < weights.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(weights[0].data(), weights[i].data(),
                             static_cast<std::size_t>(weights[0].numel()) *
                                 sizeof(float)));
    EXPECT_EQ(0, std::memcmp(grads[0].data(), grads[i].data(),
                             static_cast<std::size_t>(grads[0].numel()) *
                                 sizeof(float)));
  }
}

TEST(CostModel, SkinnyShapesStayOnReference) {
  // Vector-matrix products, tiny tails, and single-output-channel
  // convs (FLNet's output conv has m=1) must not pay for packing.
  EXPECT_EQ(make_gemm_plan(GemmOp::kNN, 1, 5184, 4096).strategy,
            GemmStrategy::kReference);
  EXPECT_EQ(make_gemm_plan(GemmOp::kNN, 4, 3, 4).strategy,
            GemmStrategy::kReference);
  EXPECT_EQ(make_gemm_plan(GemmOp::kBT, 64, 8, 64).strategy,
            GemmStrategy::kReference);
}

TEST(CostModel, FatShapesPackWithSaneBlocking) {
  for (const GemmPlan& plan :
       {make_gemm_plan(GemmOp::kNN, 64, 486, 1024),
        make_gemm_plan(GemmOp::kAT, 486, 64, 1024),
        make_gemm_plan(GemmOp::kBT, 64, 1024, 486)}) {
    EXPECT_EQ(plan.strategy, GemmStrategy::kPacked) << plan.to_string();
    EXPECT_GE(plan.kc, 8) << plan.to_string();
    EXPECT_LE(plan.kc, plan.shape.k) << plan.to_string();
    EXPECT_EQ(plan.nc % kGemmNR, 0) << plan.to_string();
    EXPECT_EQ(plan.mc % kGemmMR, 0) << plan.to_string();
  }
}

TEST(KernelPlanCache, CountsHitsMissesAndEntries) {
  KernelPlanCache cache(/*capacity_per_shard=*/4);
  const GemmPlan first = cache.plan_for(GemmOp::kNN, 64, 486, 1024);
  EXPECT_EQ(first.strategy, GemmStrategy::kPacked);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  for (int i = 0; i < 5; ++i) {
    const GemmPlan again = cache.plan_for(GemmOp::kNN, 64, 486, 1024);
    EXPECT_EQ(again.strategy, first.strategy);
    EXPECT_EQ(again.kc, first.kc);
  }
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(KernelPlanCache, EvictsOldestBeyondCapacity) {
  KernelPlanCache cache(/*capacity_per_shard=*/1);
  // 32 distinct shapes over 8 shards of capacity 1: at most 8 survive.
  for (std::int64_t i = 0; i < 32; ++i) {
    cache.plan_for(GemmOp::kNN, 8 + i, 64, 64);
  }
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 32u);
  EXPECT_LE(stats.entries, 8u);
  EXPECT_EQ(stats.evictions, 32u - stats.entries);
  // An evicted shape replans: still correct, counted as a fresh miss.
  const GemmPlan replanned = cache.plan_for(GemmOp::kNN, 8, 64, 64);
  EXPECT_EQ(replanned.shape.m, 8);
}

TEST(KernelPlanCache, ClearInvalidatesThreadLocalMemo) {
  KernelPlanCache cache;
  cache.plan_for(GemmOp::kNN, 64, 486, 1024);
  cache.plan_for(GemmOp::kNN, 64, 486, 1024);  // memo hit
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.clear();
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  // The stale memo entry must not satisfy this lookup.
  cache.plan_for(GemmOp::kNN, 64, 486, 1024);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(KernelPlanCache, ConcurrentLookupsAgreeAndCountEveryCall) {
  ThreadPool::reset_global(8);
  KernelPlanCache cache;
  const std::size_t iterations = 2048;
  std::atomic<int> bad{0};
  parallel_for(iterations, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Four shapes cycling per index: every thread hammers the same
      // shard entries it shares with the others.
      const std::int64_t m = 16 << (i % 4);
      const GemmPlan plan = cache.plan_for(GemmOp::kNN, m, 486, 1024);
      const GemmPlan want = make_gemm_plan(GemmOp::kNN, m, 486, 1024);
      if (plan.strategy != want.strategy || plan.kc != want.kc ||
          plan.nc != want.nc || plan.mc != want.mc) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  ThreadPool::reset_global(0);
  EXPECT_EQ(bad.load(), 0);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, iterations);
  EXPECT_EQ(stats.entries, 4u);
  // Racing first lookups may each count a miss; the cache still holds
  // one entry per shape.
  EXPECT_GE(stats.misses, 4u);
}

TEST(PlanMode, ReferenceModeBypassesCacheAndMatchesReferenceBits) {
  PlanModeGuard guard(PlanMode::kReference);
  const PlanCacheStats before = KernelPlanCache::global().stats();
  Rng rng(31);
  const std::int64_t m = 64, k = 486, n = 256;
  std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), rng);
  std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), rng);
  std::vector<float> via_dispatch(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> direct(static_cast<std::size_t>(m * n), 0.0f);
  matmul(a.data(), b.data(), via_dispatch.data(), m, k, n);
  matmul_reference(a.data(), b.data(), direct.data(), m, k, n, false);
  EXPECT_EQ(0, std::memcmp(via_dispatch.data(), direct.data(),
                           direct.size() * sizeof(float)));
  const PlanCacheStats after = KernelPlanCache::global().stats();
  EXPECT_EQ(before.hits + before.misses, after.hits + after.misses);
}

// One optimizer step on FLNet under both plan modes: the packed and
// reference kernels follow different summation orders, so the updated
// parameters agree to float tolerance, not bitwise.
TEST(PlanMode, TrainingStepEquivalentUnderBothModes) {
  auto step = [](PlanMode mode) {
    PlanModeGuard guard(mode);
    Rng rng(41);
    FLNetOptions opts;
    opts.in_channels = 2;
    FLNet model(opts, rng);
    Tensor x(Shape::of(2, 2, 16, 16));
    Tensor target(Shape::of(2, 1, 16, 16));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    for (std::int64_t i = 0; i < target.numel(); ++i) {
      target[i] = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    Adam adam(model.parameters(), AdamOptions{});
    adam.zero_grad();
    LossResult loss = mse_loss(model.forward(x, true), target);
    model.backward(loss.grad);
    adam.step();
    std::vector<float> flat;
    for (Parameter* p : model.parameters()) {
      for (std::int64_t i = 0; i < p->value.numel(); ++i) {
        flat.push_back(p->value[i]);
      }
    }
    return flat;
  };
  const std::vector<float> with_auto = step(PlanMode::kAuto);
  const std::vector<float> with_reference = step(PlanMode::kReference);
  ASSERT_EQ(with_auto.size(), with_reference.size());
  EXPECT_LE(max_abs_diff(with_auto, with_reference), 1e-4f);
}

TEST(GemmPacked, PropagatesNonFiniteValues) {
  // 0 * NaN = NaN in both strategies: a poisoned B must poison C even
  // when the matching A entries are zero (the old axpy1 shortcut
  // skipped the whole row).
  const std::int64_t m = 8, k = 5, n = 33;  // k=5 exercises the k<4 tail
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
  std::vector<float> b(static_cast<std::size_t>(k * n), 1.0f);
  b[static_cast<std::size_t>(4 * n) + 7] = std::nanf("");  // tail row
  std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.0f);
  matmul_reference(a.data(), b.data(), c_ref.data(), m, k, n, false);
  std::vector<float> c_packed(static_cast<std::size_t>(m * n), 0.0f);
  gemm_packed(forced_packed_plan(GemmOp::kNN, m, k, n), a.data(), b.data(),
              c_packed.data(), false);
  for (std::int64_t i = 0; i < m; ++i) {
    EXPECT_TRUE(std::isnan(c_ref[static_cast<std::size_t>(i * n) + 7]))
        << "reference row " << i;
    EXPECT_TRUE(std::isnan(c_packed[static_cast<std::size_t>(i * n) + 7]))
        << "packed row " << i;
  }
}

// ---- Direct single-output-channel conv vs the im2col oracle ----

struct DirectCase {
  std::int64_t cin, kernel, pad, dilation, h, w, batch;
  bool bias;
};

void PrintTo(const DirectCase& c, std::ostream* os) {
  *os << "cin=" << c.cin << " k=" << c.kernel << " pad=" << c.pad
      << " dilation=" << c.dilation << " " << c.h << "x" << c.w
      << " batch=" << c.batch << " bias=" << c.bias;
}

struct ConvResult {
  Tensor y, dw, db, dx;
};

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// The Cout = 1 conv as the im2col lowering computes it with the
// reference kernels, including the layer's 16 fixed dW/db slices.
ConvResult im2col_oracle(const DirectCase& c, const Tensor& w, const Tensor& b,
                         const Tensor& x, const Tensor& gy) {
  const ConvGeometry g{c.cin, c.h, c.w, c.kernel, c.kernel, c.pad, c.pad,
                       1,     1,   c.dilation, c.dilation};
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t in_stride = c.cin * c.h * c.w;
  std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
  std::vector<float> dcols(cols.size());
  ConvResult r{Tensor(gy.shape()), Tensor(w.shape()), Tensor(b.shape()),
               Tensor(x.shape())};
  for (std::int64_t n = 0; n < c.batch; ++n) {
    im2col(x.data() + n * in_stride, g, cols.data());
    float* y = r.y.data() + n * pixels;
    matmul_reference(w.data(), cols.data(), y, 1, rows, pixels);
    if (c.bias) {
      for (std::int64_t i = 0; i < pixels; ++i) y[i] += b[0];
    }
  }
  const std::int64_t slices = std::min<std::int64_t>(c.batch, 16);
  const std::int64_t span = (c.batch + slices - 1) / slices;
  for (std::int64_t s = 0; s < slices; ++s) {
    Tensor dw_part(w.shape());
    Tensor db_part(b.shape());
    for (std::int64_t n = s * span; n < std::min(c.batch, (s + 1) * span);
         ++n) {
      const float* dy = gy.data() + n * pixels;
      im2col(x.data() + n * in_stride, g, cols.data());
      matmul_bt_reference(dy, cols.data(), dw_part.data(), 1, pixels, rows,
                          /*accumulate=*/true);
      matmul_at_reference(w.data(), dy, dcols.data(), rows, 1, pixels);
      col2im(dcols.data(), g, r.dx.data() + n * in_stride);
      double acc = 0.0;
      for (std::int64_t i = 0; i < pixels; ++i) acc += dy[i];
      db_part[0] += static_cast<float>(acc);
    }
    add_inplace(r.dw, dw_part);
    if (c.bias) add_inplace(r.db, db_part);
  }
  return r;
}

ConvResult run_conv2d(const DirectCase& c, const Tensor& w, const Tensor& b,
                      const Tensor& x, const Tensor& gy) {
  Conv2dOptions opts;
  opts.in_channels = c.cin;
  opts.out_channels = 1;
  opts.kernel = c.kernel;
  opts.padding = c.pad;
  opts.dilation = c.dilation;
  opts.bias = c.bias;
  Rng rng(0);
  Conv2d conv("head", opts, rng);
  conv.weight().value = w;
  conv.bias().value = b;
  ConvResult r;
  r.y = conv.forward(x, /*training=*/true);
  r.dx = conv.backward(gy);
  r.dw = conv.weight().grad;
  r.db = conv.bias().grad;
  return r;
}

// Bitwise equality, except that any two NaNs match (a NaN's payload is
// not part of the contract).
bool same_bits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void expect_same_bits(const ConvResult& got, const ConvResult& want,
                      const std::string& where) {
  EXPECT_TRUE(same_bits(got.y, want.y)) << where << ": forward";
  EXPECT_TRUE(same_bits(got.dw, want.dw)) << where << ": dW";
  EXPECT_TRUE(same_bits(got.db, want.db)) << where << ": db";
  EXPECT_TRUE(same_bits(got.dx, want.dx)) << where << ": dx";
}

class DirectConv : public ::testing::TestWithParam<DirectCase> {};

TEST_P(DirectConv, BitIdenticalToIm2colOracleAtAnyPoolSize) {
  const DirectCase& c = GetParam();
  Rng rng(61);
  const ConvGeometry g{c.cin, c.h, c.w, c.kernel, c.kernel, c.pad, c.pad,
                       1,     1,   c.dilation, c.dilation};
  const Tensor w = random_tensor(Shape::of(1, g.col_rows()), rng);
  const Tensor b = random_tensor(Shape::of(1), rng);
  const Tensor x = random_tensor(Shape::of(c.batch, c.cin, c.h, c.w), rng);
  const Tensor gy = random_tensor(
      Shape::of(c.batch, 1, g.out_height(), g.out_width()), rng);
  const ConvResult want = im2col_oracle(c, w, b, x, gy);
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::reset_global(threads);
    for (PlanMode mode : {PlanMode::kAuto, PlanMode::kReference}) {
      PlanModeGuard guard(mode);
      expect_same_bits(run_conv2d(c, w, b, x, gy), want,
                       "pool " + std::to_string(threads) + ", plan " +
                           (mode == PlanMode::kAuto ? "auto" : "reference"));
    }
  }
  ThreadPool::reset_global(0);
}

// The heads the benchmark trains: FLNet's at the smoke grid, the
// fleet's flnet_tiny at 8x8, RouteNet's. Then: OH not a multiple of
// the 8-row tile with an OW tail past the last 8-lane vector (11x13),
// dilation 2 with such a tail (12x19), and a one-channel image whose
// dX frame outgrows padded_elems().
const DirectCase kTileCases[] = {
    DirectCase{64, 9, 4, 1, 16, 16, 4, true},
    DirectCase{64, 9, 4, 1, 8, 8, 1, true},
    DirectCase{32, 5, 2, 1, 16, 16, 4, true},
    DirectCase{3, 3, 1, 1, 11, 13, 2, true},
    DirectCase{4, 5, 4, 2, 12, 19, 2, false},
    DirectCase{1, 3, 0, 1, 20, 3, 2, true}};

// Kernels 1/3/5/9 and dilation 2; C*k*k and OH*OW both on and off
// multiples of 4 (OW % 4 decides the dW loop); valid and same padding;
// bias on and off; batch 1 and 17 (more than the 16 backward slices);
// plus kTileCases.
INSTANTIATE_TEST_SUITE_P(
    Geometries, DirectConv,
    ::testing::Values(DirectCase{3, 1, 0, 1, 6, 5, 1, true},
                      DirectCase{2, 3, 1, 1, 5, 7, 17, true},
                      DirectCase{1, 5, 2, 1, 8, 8, 1, false},
                      DirectCase{3, 3, 2, 2, 9, 6, 2, true},
                      DirectCase{4, 3, 0, 1, 10, 10, 17, false},
                      DirectCase{5, 9, 4, 1, 7, 12, 3, true}));

INSTANTIATE_TEST_SUITE_P(Tiles, DirectConv, ::testing::ValuesIn(kTileCases));

TEST(DirectConv, InputGradScratchCoversTheFrame) {
  // dX reads dy from OH rows framed by (k-1)*d - pad zeros on each side.
  const ConvIndex thin = make_conv_index(
      ConvGeometry{1, 20, 3, 3, 3, 0, 0, 1, 1, 1, 1});
  EXPECT_EQ(direct_conv_input_grad_scratch(thin), 18 * (1 + 2 * 2));
  EXPECT_GT(direct_conv_input_grad_scratch(thin), thin.padded_elems());
  const ConvIndex head = make_conv_index(
      ConvGeometry{64, 8, 8, 9, 9, 4, 4, 1, 1, 1, 1});
  EXPECT_EQ(direct_conv_input_grad_scratch(head), 8 * (8 + 2 * 4));
}

TEST(DirectConv, NonFiniteValuesPoisonLikeOracle) {
  // A weight and optionally dy's top-right pixel set to `value`, under
  // every ISA:
  //  - 6x7, a NaN in the axpy1 tail row (18 = 4*4 + 2 rows), which
  //    reads every output pixel, zero padding included;
  //  - the 16x16 and 8x8 heads, an Inf at tap (c=0, kh=0, kw=0) and an
  //    Inf dy. Most dx pixels of channel 0 have that tap outside dy:
  //    col2im never applies it there, so a gather that multiplied it
  //    by a zero margin would put NaN where the oracle has a finite
  //    value.
  struct Poison {
    DirectCase c;
    std::int64_t weight;
    float value;
    bool dy_corner;
  };
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<KernelIsa> isas = accelerated_isas();
  isas.insert(isas.begin(), KernelIsa::kPortable);
  for (const Poison& t :
       {Poison{DirectCase{2, 3, 1, 1, 6, 7, 2, true}, 17, std::nanf(""),
               false},
        Poison{DirectCase{64, 9, 4, 1, 16, 16, 2, true}, 0, inf, true},
        Poison{DirectCase{64, 9, 4, 1, 8, 8, 1, true}, 0, inf, true}}) {
    const DirectCase& c = t.c;
    std::ostringstream where;
    PrintTo(c, &where);
    Rng rng(62);
    const ConvGeometry g{c.cin, c.h, c.w, c.kernel, c.kernel, c.pad, c.pad,
                         1,     1,   c.dilation, c.dilation};
    Tensor w = random_tensor(Shape::of(1, g.col_rows()), rng);
    w[t.weight] = t.value;
    const Tensor b = random_tensor(Shape::of(1), rng);
    const Tensor x = random_tensor(Shape::of(c.batch, c.cin, c.h, c.w), rng);
    Tensor gy = random_tensor(
        Shape::of(c.batch, 1, g.out_height(), g.out_width()), rng);
    if (t.dy_corner) gy[g.out_width() - 1] = t.value;
    const ConvResult want = im2col_oracle(c, w, b, x, gy);
    if (std::isnan(t.value)) {
      for (std::int64_t i = 0; i < want.y.numel(); ++i) {
        ASSERT_TRUE(std::isnan(want.y[i])) << where.str() << " pixel " << i;
      }
    } else {
      std::int64_t finite = 0;
      for (std::int64_t i = 0; i < c.h * c.w; ++i) {
        finite += std::isfinite(want.dx[i]) ? 1 : 0;
      }
      ASSERT_GT(finite, 0) << where.str() << ": no finite dx in channel 0";
    }
    for (KernelIsa isa : isas) {
      IsaGuard guard(isa);
      expect_same_bits(run_conv2d(c, w, b, x, gy), want,
                       std::string(to_string(isa)) + " " + where.str());
    }
  }
}

TEST(DirectConv, InputGradOffKeepsParameterGradsAndReturnsEmpty) {
  for (std::int64_t cout : {1, 4}) {  // the direct and the im2col path
    auto grads = [&](bool input_grad) {
      Conv2dOptions opts;
      opts.in_channels = 3;
      opts.out_channels = cout;
      opts.kernel = 3;
      opts.same_padding();
      opts.input_grad = input_grad;
      Rng rng(63);
      Conv2d conv("c", opts, rng);
      const Tensor x = random_tensor(Shape::of(5, 3, 9, 9), rng);
      const Tensor gy = random_tensor(Shape::of(5, cout, 9, 9), rng);
      conv.forward(x, /*training=*/true);
      const Tensor dx = conv.backward(gy);
      return std::vector<Tensor>{conv.weight().grad, conv.bias().grad, dx};
    };
    const std::vector<Tensor> with = grads(true);
    const std::vector<Tensor> without = grads(false);
    EXPECT_TRUE(same_bits(with[0], without[0])) << "Cout " << cout << ": dW";
    EXPECT_TRUE(same_bits(with[1], without[1])) << "Cout " << cout << ": db";
    EXPECT_EQ(with[2].shape(), (Shape{5, 3, 9, 9})) << "Cout " << cout;
    EXPECT_TRUE(without[2].empty()) << "Cout " << cout;
  }
}

// ---- Kernel ISAs: every accelerated ISA reproduces portable bits ----

TEST(KernelIsa, ProbeAndSeam) {
  EXPECT_TRUE(kernel_isa_supported(KernelIsa::kPortable));
  EXPECT_TRUE(kernel_isa_supported(kernel_isa()));
  {
    IsaGuard portable(KernelIsa::kPortable);
    EXPECT_EQ(kernel_isa(), KernelIsa::kPortable);
    const GemmPlan plan =
        KernelPlanCache::global().plan_for(GemmOp::kNN, 64, 486, 1024);
    EXPECT_EQ(plan.isa, KernelIsa::kPortable);
    EXPECT_NE(plan.to_string().find("portable"), std::string::npos)
        << plan.to_string();
  }
  if (!kernel_isa_supported(KernelIsa::kAvx2)) {
    EXPECT_THROW(set_kernel_isa(KernelIsa::kAvx2), std::invalid_argument);
  }
}

// Bitwise equality of two float buffers, any two NaNs matching.
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return false;
  }
  return true;
}

TEST(KernelIsa, PackedGemmBitIdenticalToPortable) {
  SKIP_WITHOUT_ACCELERATED_ISA();
  // n covers one panel with a tail (3), whole panels (8, 16), odd panel
  // counts with tails in either half of a two-panel step (17, 23, 47);
  // m covers MR tails; kc = 16 puts several KC blocks in every k >= 17,
  // and nc = 2 * NR several NC blocks in every n > 16.
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{1, 7, 3},   {5, 37, 19},  {4, 16, 16}, {7, 81, 23},
                {13, 40, 8}, {33, 65, 47}, {9, 17, 17}, {64, 162, 64}};
  Rng rng(71);
  for (KernelIsa isa : accelerated_isas()) {
    for (GemmOp op : {GemmOp::kNN, GemmOp::kAT, GemmOp::kBT}) {
      for (const auto& s : shapes) {
        for (bool accumulate : {false, true}) {
          const std::vector<float> a =
              random_vec(static_cast<std::size_t>(s.m * s.k), rng);
          const std::vector<float> b =
              random_vec(static_cast<std::size_t>(s.k * s.n), rng);
          const std::vector<float> seed =
              random_vec(static_cast<std::size_t>(s.m * s.n), rng);
          GemmPlan plan = forced_packed_plan(op, s.m, s.k, s.n);
          plan.kc = std::min<std::int64_t>(s.k, 16);
          plan.nc = 2 * kGemmNR;
          std::vector<float> want = seed;
          plan.isa = KernelIsa::kPortable;
          gemm_packed(plan, a.data(), b.data(), want.data(), accumulate);
          std::vector<float> got = seed;
          plan.isa = isa;
          gemm_packed(plan, a.data(), b.data(), got.data(), accumulate);
          EXPECT_TRUE(same_bits(want, got))
              << plan.to_string() << " accumulate=" << accumulate;
        }
      }
    }
  }
}

TEST(KernelIsa, ReferenceKernelsBitIdenticalToPortable) {
  SKIP_WITHOUT_ACCELERATED_ISA();
  // n below, at and past a vector width; k with and without the axpy1
  // tail (k % 4); the k = 32 dX shape of RouteNet's conv3/conv4.
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{3, 5, 7},   {4, 8, 8},    {6, 3, 19},
                {9, 13, 33}, {50, 32, 77}, {2, 7, 260}};
  Rng rng(72);
  for (KernelIsa isa : accelerated_isas()) {
    for (GemmOp op : {GemmOp::kNN, GemmOp::kAT, GemmOp::kBT}) {
      for (const auto& s : shapes) {
        for (bool accumulate : {false, true}) {
          const std::vector<float> a =
              random_vec(static_cast<std::size_t>(s.m * s.k), rng);
          const std::vector<float> b =
              random_vec(static_cast<std::size_t>(s.k * s.n), rng);
          std::vector<float> want =
              random_vec(static_cast<std::size_t>(s.m * s.n), rng);
          std::vector<float> got = want;
          {
            IsaGuard guard(KernelIsa::kPortable);
            run_reference(op, a.data(), b.data(), want.data(), s.m, s.k, s.n,
                          accumulate);
          }
          {
            IsaGuard guard(isa);
            run_reference(op, a.data(), b.data(), got.data(), s.m, s.k, s.n,
                          accumulate);
          }
          EXPECT_TRUE(same_bits(want, got))
              << to_string(op) << " m=" << s.m << " k=" << s.k
              << " n=" << s.n << " accumulate=" << accumulate;
        }
      }
    }
  }
}

TEST(KernelIsa, NonFiniteValuesPropagateLikePortable) {
  SKIP_WITHOUT_ACCELERATED_ISA();
  const std::int64_t m = 9, k = 21, n = 27;
  Rng rng(73);
  std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), rng);
  std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), rng);
  a[5] = 0.0f;
  b[static_cast<std::size_t>(5 * n) + 3] = std::nanf("");  // 0 * NaN
  a[static_cast<std::size_t>(2 * k) + 20] =
      std::numeric_limits<float>::infinity();
  b[static_cast<std::size_t>(20 * n) + 26] = std::nanf("");  // tails
  for (KernelIsa isa : accelerated_isas()) {
    for (GemmOp op : {GemmOp::kNN, GemmOp::kAT, GemmOp::kBT}) {
      GemmPlan plan = forced_packed_plan(op, m, k, n);
      std::vector<float> want_packed(static_cast<std::size_t>(m * n));
      std::vector<float> got_packed = want_packed;
      std::vector<float> want_ref = want_packed;
      std::vector<float> got_ref = want_packed;
      plan.isa = KernelIsa::kPortable;
      gemm_packed(plan, a.data(), b.data(), want_packed.data(), false);
      plan.isa = isa;
      gemm_packed(plan, a.data(), b.data(), got_packed.data(), false);
      {
        IsaGuard guard(KernelIsa::kPortable);
        run_reference(op, a.data(), b.data(), want_ref.data(), m, k, n, false);
      }
      {
        IsaGuard guard(isa);
        run_reference(op, a.data(), b.data(), got_ref.data(), m, k, n, false);
      }
      EXPECT_TRUE(same_bits(want_packed, got_packed)) << plan.to_string();
      EXPECT_TRUE(same_bits(want_ref, got_ref)) << to_string(op);
      EXPECT_TRUE(std::any_of(got_packed.begin(), got_packed.end(),
                              [](float v) { return std::isnan(v); }));
    }
  }
}

// ---- Conv2d at any Cout and stride vs im2col + the planner's GEMMs ----

struct ConvCase {
  std::int64_t cin, cout, kernel, stride, pad, dilation, h, w, batch;
};

void PrintTo(const ConvCase& c, std::ostream* os) {
  *os << "cin=" << c.cin << " cout=" << c.cout << " k=" << c.kernel
      << " stride=" << c.stride << " pad=" << c.pad
      << " dilation=" << c.dilation << " " << c.h << "x" << c.w
      << " batch=" << c.batch;
}

ConvGeometry geometry_of(const ConvCase& c) {
  return ConvGeometry{c.cin,    c.h,      c.w,        c.kernel,
                      c.kernel, c.pad,    c.pad,      c.stride,
                      c.stride, c.dilation, c.dilation};
}

// The layer as the im2col lowering computes it with the dispatching
// GEMMs (the same plans Conv2d picks), including the 16 fixed dW/db
// slices of backward.
ConvResult conv_oracle(const ConvCase& c, const Tensor& w, const Tensor& b,
                       const Tensor& x, const Tensor& gy) {
  const ConvGeometry g = geometry_of(c);
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t in_stride = c.cin * c.h * c.w;
  const std::int64_t out_stride = c.cout * pixels;
  std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
  std::vector<float> dcols(cols.size());
  ConvResult r{Tensor(gy.shape()), Tensor(w.shape()), Tensor(b.shape()),
               Tensor(x.shape())};
  for (std::int64_t n = 0; n < c.batch; ++n) {
    im2col(x.data() + n * in_stride, g, cols.data());
    float* y = r.y.data() + n * out_stride;
    matmul(w.data(), cols.data(), y, c.cout, rows, pixels);
    for (std::int64_t co = 0; co < c.cout; ++co) {
      for (std::int64_t i = 0; i < pixels; ++i) y[co * pixels + i] += b[co];
    }
  }
  const std::int64_t slices = std::min<std::int64_t>(c.batch, 16);
  const std::int64_t span = (c.batch + slices - 1) / slices;
  for (std::int64_t s = 0; s < slices; ++s) {
    Tensor dw_part(w.shape());
    Tensor db_part(b.shape());
    for (std::int64_t n = s * span; n < std::min(c.batch, (s + 1) * span);
         ++n) {
      const float* dy = gy.data() + n * out_stride;
      im2col(x.data() + n * in_stride, g, cols.data());
      matmul_bt(dy, cols.data(), dw_part.data(), c.cout, pixels, rows,
                /*accumulate=*/true);
      matmul_at(w.data(), dy, dcols.data(), rows, c.cout, pixels);
      col2im(dcols.data(), g, r.dx.data() + n * in_stride);
      for (std::int64_t co = 0; co < c.cout; ++co) {
        double acc = 0.0;
        for (std::int64_t i = 0; i < pixels; ++i) acc += dy[co * pixels + i];
        db_part[co] += static_cast<float>(acc);
      }
    }
    add_inplace(r.dw, dw_part);
    add_inplace(r.db, db_part);
  }
  return r;
}

ConvResult run_conv(const ConvCase& c, const Tensor& w, const Tensor& b,
                    const Tensor& x, const Tensor& gy) {
  Conv2dOptions opts;
  opts.in_channels = c.cin;
  opts.out_channels = c.cout;
  opts.kernel = c.kernel;
  opts.stride = c.stride;
  opts.padding = c.pad;
  opts.dilation = c.dilation;
  Rng rng(0);
  Conv2d conv("c", opts, rng);
  conv.weight().value = w;
  conv.bias().value = b;
  ConvResult r;
  r.y = conv.forward(x, /*training=*/true);
  r.dx = conv.backward(gy);
  r.dw = conv.weight().grad;
  r.db = conv.bias().grad;
  return r;
}

class ConvIsa : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvIsa, EveryIsaAndPoolMatchesPortableIm2colOracle) {
  const ConvCase& c = GetParam();
  const ConvGeometry g = geometry_of(c);
  Rng rng(81);
  const Tensor w = random_tensor(Shape::of(c.cout, g.col_rows()), rng);
  const Tensor b = random_tensor(Shape::of(c.cout), rng);
  Tensor x = random_tensor(Shape::of(c.batch, c.cin, c.h, c.w), rng);
  const Tensor gy = random_tensor(
      Shape::of(c.batch, c.cout, g.out_height(), g.out_width()), rng);
  std::vector<KernelIsa> isas = accelerated_isas();
  isas.insert(isas.begin(), KernelIsa::kPortable);
  for (bool poisoned : {false, true}) {
    // A NaN pixel must poison the same outputs and gradients everywhere.
    if (poisoned) x[x.numel() / 2] = std::nanf("");
    for (PlanMode mode : {PlanMode::kAuto, PlanMode::kReference}) {
      PlanModeGuard plan_guard(mode);
      ConvResult want;
      {
        IsaGuard guard(KernelIsa::kPortable);
        want = conv_oracle(c, w, b, x, gy);
      }
      for (KernelIsa isa : isas) {
        IsaGuard guard(isa);
        for (std::size_t threads : {1u, 4u}) {
          ThreadPool::reset_global(threads);
          expect_same_bits(
              run_conv(c, w, b, x, gy), want,
              std::string(to_string(isa)) + ", pool " +
                  std::to_string(threads) + ", plan " +
                  (mode == PlanMode::kAuto ? "auto" : "reference") +
                  (poisoned ? ", NaN input" : ""));
        }
      }
    }
  }
  ThreadPool::reset_global(0);
}

// Shapes whose forward and dW GEMMs the cost model packs (so Conv2d
// packs B straight from the padded image): stride 1 with output rows
// that do and do not fill whole 8-pixel panels, stride 2 (gathered
// panels), dilation 2, and a fat RouteNet-like layer; plus one the
// planner keeps on the reference kernels and one Cout = 1 head.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvIsa,
    ::testing::Values(ConvCase{3, 8, 5, 1, 2, 1, 12, 12, 3},
                      ConvCase{3, 8, 5, 1, 2, 1, 11, 13, 2},
                      ConvCase{3, 8, 5, 2, 2, 1, 16, 16, 3},
                      ConvCase{6, 8, 3, 1, 2, 2, 10, 10, 2},
                      ConvCase{4, 9, 3, 2, 1, 2, 15, 14, 17},
                      ConvCase{8, 16, 7, 1, 3, 1, 16, 16, 2},
                      ConvCase{2, 4, 3, 1, 1, 1, 6, 6, 2},
                      ConvCase{9, 1, 3, 1, 1, 1, 9, 16, 2}));

TEST(ConvIsa, ShapeSweepCoversThePackedImplicitPath) {
  // Guards the instantiation above: its first shapes must really run
  // the implicit path (forward and dW packed) rather than im2col.
  for (const ConvCase& c : {ConvCase{3, 8, 5, 1, 2, 1, 12, 12, 3},
                            ConvCase{3, 8, 5, 2, 2, 1, 16, 16, 3},
                            ConvCase{6, 8, 3, 1, 2, 2, 10, 10, 2}}) {
    const ConvGeometry g = geometry_of(c);
    EXPECT_EQ(make_gemm_plan(GemmOp::kNN, c.cout, g.col_rows(), g.col_cols())
                  .strategy,
              GemmStrategy::kPacked);
    EXPECT_EQ(make_gemm_plan(GemmOp::kBT, c.cout, g.col_cols(), g.col_rows())
                  .strategy,
              GemmStrategy::kPacked);
  }
}

TEST(ConvIsa, DirectConvBitIdenticalToPortable) {
  SKIP_WITHOUT_ACCELERATED_ISA();
  // Cout = 1 heads: output widths on and off multiples of 4 and 8, and
  // C*k*k on and off multiples of the AVX2 dW kernel's 8-row groups;
  // plus kTileCases.
  std::vector<DirectCase> cases = {DirectCase{3, 3, 1, 1, 9, 12, 3, true},
                                   DirectCase{5, 3, 2, 2, 7, 13, 2, false},
                                   DirectCase{2, 5, 2, 1, 8, 20, 1, true}};
  cases.insert(cases.end(), std::begin(kTileCases), std::end(kTileCases));
  for (const DirectCase& c : cases) {
    Rng rng(82);
    const ConvGeometry g{c.cin, c.h, c.w, c.kernel, c.kernel, c.pad, c.pad,
                         1,     1,   c.dilation, c.dilation};
    const Tensor w = random_tensor(Shape::of(1, g.col_rows()), rng);
    const Tensor b = random_tensor(Shape::of(1), rng);
    const Tensor x = random_tensor(Shape::of(c.batch, c.cin, c.h, c.w), rng);
    const Tensor gy = random_tensor(
        Shape::of(c.batch, 1, g.out_height(), g.out_width()), rng);
    ConvResult want;
    {
      IsaGuard guard(KernelIsa::kPortable);
      want = run_conv2d(c, w, b, x, gy);
    }
    for (KernelIsa isa : accelerated_isas()) {
      IsaGuard guard(isa);
      std::ostringstream where;
      PrintTo(c, &where);
      expect_same_bits(run_conv2d(c, w, b, x, gy), want,
                       std::string(to_string(isa)) + " " + where.str());
    }
  }
}

}  // namespace
}  // namespace fleda
