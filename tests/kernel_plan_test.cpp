// Tests for the shape-keyed kernel planner and its one summation
// order. Every GEMM entry point — the dispatching matmul family, the
// reference kernels, the packed GEMM with A packed on the fly, prepacked
// or B read through implicit columns — must reproduce a scalar oracle of
// the canonical order bit for bit, on every kernel ISA the host
// supports and at pool sizes 1 and 4, across KC slice boundaries,
// accumulation, -0 rows and non-finite values. The plan cache must
// count hits/misses/evictions correctly under concurrent lookups. The
// direct kernels of the single-output-channel conv must reproduce the
// im2col + reference-GEMM lowering bit for bit on every ISA and pool
// size. Conv2d's implicit-column path must reproduce im2col + the same
// GEMMs with dW/db summed in sample order — dX at stride 1 as the
// forward conv of dy with the flipped weight, which must also match the
// col2im adjoint to within a stated rounding bound — at strides 1 and
// 2, dilation 2, pool sizes 1/2/8, top level and nested; and
// ConvTranspose2d's backward must reproduce im2col(dy) + the same
// GEMMs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "tensor/conv_direct.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// Pins the kernel ISA for one scope, then restores the host default.
struct IsaGuard {
  explicit IsaGuard(KernelIsa isa) : saved(kernel_isa()) {
    set_kernel_isa(isa);
  }
  ~IsaGuard() { set_kernel_isa(saved); }
  KernelIsa saved;
};

// Every ISA this host runs, kPortable first.
std::vector<KernelIsa> all_isas() {
  std::vector<KernelIsa> isas = {KernelIsa::kPortable};
  if (kernel_isa_supported(KernelIsa::kAvx2)) isas.push_back(KernelIsa::kAvx2);
  return isas;
}

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

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

void run_dispatch(GemmOp op, const float* a, const float* b, float* c,
                  std::int64_t m, std::int64_t k, std::int64_t n,
                  bool accumulate) {
  switch (op) {
    case GemmOp::kNN:
      matmul(a, b, c, m, k, n, accumulate);
      return;
    case GemmOp::kAT:
      matmul_at(a, b, c, m, k, n, accumulate);
      return;
    case GemmOp::kBT:
      matmul_bt(a, b, c, m, k, n, accumulate);
      return;
  }
}

// The canonical order (tensor/plan.hpp), one scalar at a time: each
// KC slice sums +0, then + a*b for p ascending, and is stored (first
// slice, not accumulating) or added.
void canonical_gemm(GemmOp op, const float* a, const float* b, float* c,
                    std::int64_t m, std::int64_t k, std::int64_t n,
                    bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float& out = c[i * n + j];
      for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
        float slice = 0.0f;
        for (std::int64_t p = pc; p < std::min(k, pc + kGemmKC); ++p) {
          const float av = op == GemmOp::kAT ? a[p * m + i] : a[i * k + p];
          const float bv = op == GemmOp::kBT ? b[j * k + p] : b[p * n + j];
          slice = slice + av * bv;
        }
        out = accumulate || pc > 0 ? out + slice : slice;
      }
    }
  }
}

// A packed plan for any shape, bypassing the cost model so the sweep
// can push degenerate shapes (m=1, n=1, tiny k) through the packed
// path that the planner would normally route to reference.
GemmPlan forced_packed_plan(GemmOp op, std::int64_t m, std::int64_t k,
                            std::int64_t n) {
  GemmPlan plan = make_gemm_plan(op, m, k, n);
  if (plan.strategy == GemmStrategy::kPacked) return plan;
  plan.strategy = GemmStrategy::kPacked;
  plan.nc = std::min<std::int64_t>((n + kGemmNR - 1) / kGemmNR * kGemmNR,
                                   8 * kGemmNR);
  plan.mc = std::min<std::int64_t>((m + kGemmMR - 1) / kGemmMR * kGemmMR, 96);
  return plan;
}

// B as implicit columns: B's stored rows, each spread to every other
// float of a NaN-filled buffer, so a panel gathers its columns and a
// stray read of a gap poisons the result.
struct SpreadB {
  std::vector<float> spread;
  std::vector<std::int64_t> row_offset, pixel_offset;

  SpreadB(GemmOp op, const std::vector<float>& b, std::int64_t k,
          std::int64_t n) {
    const std::int64_t rows = op == GemmOp::kBT ? n : k;
    const std::int64_t cols = op == GemmOp::kBT ? k : n;
    spread.assign(static_cast<std::size_t>(rows * cols * 2), std::nanf(""));
    for (std::int64_t r = 0; r < rows; ++r) {
      row_offset.push_back(r * cols * 2);
      for (std::int64_t q = 0; q < cols; ++q) {
        spread[static_cast<std::size_t>(r * cols * 2 + 2 * q)] =
            b[static_cast<std::size_t>(r * cols + q)];
      }
    }
    for (std::int64_t q = 0; q < cols; ++q) pixel_offset.push_back(2 * q);
  }

  ImplicitCols cols() const {
    return {spread.data(), row_offset.data(), pixel_offset.data()};
  }
};

TEST(GemmPacked, EveryEntryPointMatchesCanonicalOrderBitForBit) {
  // Odd sizes, tiny k, single-row/column degenerates, the k = 32 conv dX
  // shape, fat shapes the cost model itself would pack, and k on either
  // side of one and two KC slices.
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{1, 7, 33},    {5, 3, 17},   {4, 16, 16},  {7, 81, 23},
                {64, 162, 64}, {33, 65, 47}, {13, 2, 130}, {96, 100, 1},
                {1, 5184, 64}, {50, 486, 256}, {50, 32, 77}, {2, 7, 260},
                {3, 679, 21},  {6, 680, 19},  {9, 681, 17}, {5, 1361, 24}};
  static_assert(kGemmKC == 680, "the k values above straddle kGemmKC");
  Rng rng(7);
  for (GemmOp op : {GemmOp::kNN, GemmOp::kAT, GemmOp::kBT}) {
    for (const auto& s : shapes) {
      std::vector<float> a =
          random_vec(static_cast<std::size_t>(s.m * s.k), rng);
      std::vector<float> b =
          random_vec(static_cast<std::size_t>(s.k * s.n), rng);
      // Row 0 of A is -0: it must come out +0 wherever B is finite. B
      // holds an Inf at the last depth step of the first slice (column
      // n - 1) and a NaN at the last one overall (column 0).
      for (std::int64_t p = 0; p < s.k; ++p) {
        a[static_cast<std::size_t>(op == GemmOp::kAT ? p * s.m : p)] = -0.0f;
      }
      auto b_at = [&](std::int64_t p, std::int64_t j) -> float& {
        return b[static_cast<std::size_t>(op == GemmOp::kBT ? j * s.k + p
                                                            : p * s.n + j)];
      };
      b_at(std::min(s.k, kGemmKC) - 1, s.n - 1) =
          std::numeric_limits<float>::infinity();
      b_at(s.k - 1, 0) = std::nanf("");
      const std::vector<float> seed =
          random_vec(static_cast<std::size_t>(s.m * s.n), rng);
      const SpreadB spread(op, b, s.k, s.n);
      const GemmPlan forced = forced_packed_plan(op, s.m, s.k, s.n);
      for (bool accumulate : {false, true}) {
        std::vector<float> want = seed;
        canonical_gemm(op, a.data(), b.data(), want.data(), s.m, s.k, s.n,
                       accumulate);
        for (std::int64_t j = 1; j + 1 < s.n && !accumulate; ++j) {
          const float v = want[static_cast<std::size_t>(j)];
          ASSERT_TRUE(v == 0.0f && !std::signbit(v)) << "column " << j;
        }
        for (KernelIsa isa : all_isas()) {
          IsaGuard isa_guard(isa);
          GemmPlan plan = forced;
          plan.isa = isa;
          for (std::size_t threads : {1u, 4u}) {
            ThreadPool::reset_global(threads);
            const std::string where =
                std::string(to_string(op)) + " m=" + std::to_string(s.m) +
                " k=" + std::to_string(s.k) + " n=" + std::to_string(s.n) +
                " accumulate=" + std::to_string(accumulate) + " " +
                to_string(isa) + " pool " + std::to_string(threads);
            auto expect_want = [&](const char* entry,
                                   const std::function<void(float*)>& run) {
              std::vector<float> got = seed;
              run(got.data());
              EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                       want.size() * sizeof(float)))
                  << entry << ": " << where;
            };
            expect_want("reference", [&](float* c) {
              run_reference(op, a.data(), b.data(), c, s.m, s.k, s.n,
                            accumulate);
            });
            expect_want("dispatch", [&](float* c) {
              run_dispatch(op, a.data(), b.data(), c, s.m, s.k, s.n,
                           accumulate);
            });
            expect_want("gemm_packed", [&](float* c) {
              gemm_packed(plan, a.data(), b.data(), c, accumulate);
            });
            std::vector<float> apack(packed_a_elems(plan));
            pack_a(plan, a.data(), apack.data());
            expect_want("gemm_packed_prepacked_a", [&](float* c) {
              gemm_packed_prepacked_a(plan, apack.data(), b.data(), c,
                                      accumulate);
            });
            if (op == GemmOp::kAT) continue;  // no implicit kAT form
            expect_want("gemm_packed_implicit", [&](float* c) {
              gemm_packed_implicit(plan, a.data(), nullptr, spread.cols(), c,
                                   accumulate, 0, s.n);
            });
            expect_want("gemm_packed_implicit, prepacked A", [&](float* c) {
              gemm_packed_implicit(plan, nullptr, apack.data(), spread.cols(),
                                   c, accumulate, 0, s.n);
            });
            // Two column ranges split off the NR grid: the first call
            // leaves every column past it as it was.
            const std::int64_t split = std::min(s.n, s.n / 2 + 3);
            expect_want("gemm_packed_implicit, two column ranges",
                        [&](float* c) {
              gemm_packed_implicit(plan, a.data(), nullptr, spread.cols(), c,
                                   accumulate, 0, split);
              for (std::int64_t i = 0; i < s.m; ++i) {
                for (std::int64_t j = split; j < s.n; ++j) {
                  const std::size_t at = static_cast<std::size_t>(i * s.n + j);
                  ASSERT_EQ(0, std::memcmp(&c[at], &seed[at], sizeof(float)))
                      << where << ": column " << j << " written";
                }
              }
              gemm_packed_implicit(plan, a.data(), nullptr, spread.cols(), c,
                                   accumulate, split, s.n);
            });
          }
        }
      }
    }
  }
  ThreadPool::reset_global(0);
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
  // and the fixed MR row partition + sample-order dW must keep both
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
    EXPECT_EQ(plan.nc % kGemmNR, 0) << plan.to_string();
    EXPECT_EQ(plan.mc % kGemmMR, 0) << plan.to_string();
  }
}

TEST(CostModel, PackedPlanKeepsFatBlockingAndPacksSkinnyShapes) {
  // The conv GEMMs always pack: make_packed_plan gives a fat shape the
  // plan the cost model makes, and a skinny one (m = 6: a dX conv into
  // six input channels) the same blocking rule.
  const GemmPlan fat = make_gemm_plan(GemmOp::kNN, 64, 486, 1024);
  const GemmPlan same = make_packed_plan(GemmOp::kNN, 64, 486, 1024);
  EXPECT_EQ(same.strategy, GemmStrategy::kPacked);
  EXPECT_EQ(same.mc, fat.mc);
  EXPECT_EQ(same.nc, fat.nc);
  ASSERT_EQ(make_gemm_plan(GemmOp::kNN, 6, 5184, 256).strategy,
            GemmStrategy::kReference);
  const GemmPlan packed = make_packed_plan(GemmOp::kNN, 6, 5184, 256);
  EXPECT_EQ(packed.strategy, GemmStrategy::kPacked);
  EXPECT_TRUE(packed.shape == (GemmShape{GemmOp::kNN, 6, 5184, 256}));
  EXPECT_EQ(packed.mc, 8);
  EXPECT_EQ(packed.nc, 192);  // KC = 680 deep, half of L2
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
    EXPECT_EQ(again.nc, first.nc);
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
      if (plan.strategy != want.strategy ||
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
// reference kernels, dW/db added one sample at a time in sample order.
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
  for (std::int64_t n = 0; n < c.batch; ++n) {
    const float* dy = gy.data() + n * pixels;
    im2col(x.data() + n * in_stride, g, cols.data());
    matmul_bt_reference(dy, cols.data(), r.dw.data(), 1, pixels, rows,
                        /*accumulate=*/true);
    matmul_at_reference(w.data(), dy, dcols.data(), rows, 1, pixels);
    col2im(dcols.data(), g, r.dx.data() + n * in_stride);
    if (c.bias) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < pixels; ++i) acc += dy[i];
      r.db[0] += static_cast<float>(acc);
    }
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
  for (KernelIsa isa : all_isas()) {
    IsaGuard guard(isa);
    for (std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool::reset_global(threads);
      expect_same_bits(run_conv2d(c, w, b, x, gy), want,
                       std::string(to_string(isa)) + ", pool " +
                           std::to_string(threads));
    }
  }
  ThreadPool::reset_global(0);
}

// Kernels 1/3/5/9 and dilation 2; channel counts that leave every
// tail of the dW lane cascade (8, 4, 2, 1 channels); output widths on
// and off multiples of 4 and 8; valid and same padding; bias on and
// off; batch 1 and 17 (dW/db summed over many samples); more than
// kGemmKC taps (forward slices: 9*9*9 = 729) and pixels (dW slices:
// 29*31 = 899).
INSTANTIATE_TEST_SUITE_P(
    Geometries, DirectConv,
    ::testing::Values(DirectCase{3, 1, 0, 1, 6, 5, 1, true},
                      DirectCase{2, 3, 1, 1, 5, 7, 17, true},
                      DirectCase{1, 5, 2, 1, 8, 8, 1, false},
                      DirectCase{3, 3, 2, 2, 9, 6, 2, true},
                      DirectCase{4, 3, 0, 1, 10, 10, 17, false},
                      DirectCase{5, 9, 4, 1, 7, 12, 3, true},
                      DirectCase{3, 3, 1, 1, 9, 12, 3, true},
                      DirectCase{5, 3, 2, 2, 7, 13, 2, false},
                      DirectCase{2, 5, 2, 1, 8, 20, 1, true},
                      DirectCase{9, 9, 4, 1, 10, 10, 2, true},
                      DirectCase{15, 3, 1, 1, 29, 31, 1, true}));

// The heads the benchmark trains: FLNet's at the smoke grid, the
// fleet's flnet_tiny at 8x8, RouteNet's. Then: OH not a multiple of
// the 8-row tile with an OW tail past the last 8-lane vector (11x13),
// dilation 2 with such a tail (12x19), and a one-channel image whose
// dX frame outgrows padded_elems().
INSTANTIATE_TEST_SUITE_P(
    Tiles, DirectConv,
    ::testing::Values(DirectCase{64, 9, 4, 1, 16, 16, 4, true},
                      DirectCase{64, 9, 4, 1, 8, 8, 1, true},
                      DirectCase{32, 5, 2, 1, 16, 16, 4, true},
                      DirectCase{3, 3, 1, 1, 11, 13, 2, true},
                      DirectCase{4, 5, 4, 2, 12, 19, 2, false},
                      DirectCase{1, 3, 0, 1, 20, 3, 2, true}));

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
    for (KernelIsa isa : all_isas()) {
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

// W' of the stride-1 dX conv: W'[ci, (co, kh, kw)] =
// W[co, (ci, k-1-kh, k-1-kw)].
Tensor flipped(const ConvCase& c, const Tensor& w) {
  const std::int64_t taps = c.kernel * c.kernel;
  Tensor f(Shape::of(c.cin, c.cout * taps));
  for (std::int64_t co = 0; co < c.cout; ++co) {
    for (std::int64_t ci = 0; ci < c.cin; ++ci) {
      for (std::int64_t t = 0; t < taps; ++t) {
        f[(ci * c.cout + co) * taps + t] = w[(co * c.cin + ci) * taps +
                                             taps - 1 - t];
      }
    }
  }
  return f;
}

// The geometry of the stride-1 dX conv: dy, padded by d(k-1)-p.
ConvGeometry dx_geometry_of(const ConvCase& c, const ConvGeometry& g) {
  return ConvGeometry{c.cout,
                      g.out_height(),
                      g.out_width(),
                      c.kernel,
                      c.kernel,
                      c.dilation * (c.kernel - 1) - c.pad,
                      c.dilation * (c.kernel - 1) - c.pad,
                      1,
                      1,
                      c.dilation,
                      c.dilation};
}

// dX as col2im(W^T dy), the adjoint every stride used before the
// stride-1 dX became a forward conv.
void col2im_input_grad(const ConvCase& c, const Tensor& w, const Tensor& gy,
                       Tensor& dx) {
  const ConvGeometry g = geometry_of(c);
  const std::int64_t pixels = g.col_cols();
  std::vector<float> dcols(static_cast<std::size_t>(g.col_rows() * pixels));
  for (std::int64_t n = 0; n < c.batch; ++n) {
    matmul_at(w.data(), gy.data() + n * c.cout * pixels, dcols.data(),
              g.col_rows(), c.cout, pixels);
    col2im(dcols.data(), g, dx.data() + n * c.cin * c.h * c.w);
  }
}

// The layer as im2col + the dispatching GEMMs compute it (the same
// plans Conv2d picks): dW/db added one sample at a time in sample
// order, and dX at stride 1 as matmul(W', im2col(dy, g')), at other
// strides as col2im(W^T dy).
ConvResult conv_oracle(const ConvCase& c, const Tensor& w, const Tensor& b,
                       const Tensor& x, const Tensor& gy) {
  const ConvGeometry g = geometry_of(c);
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t in_stride = c.cin * c.h * c.w;
  const std::int64_t out_stride = c.cout * pixels;
  std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
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
  for (std::int64_t n = 0; n < c.batch; ++n) {
    const float* dy = gy.data() + n * out_stride;
    im2col(x.data() + n * in_stride, g, cols.data());
    matmul_bt(dy, cols.data(), r.dw.data(), c.cout, pixels, rows,
              /*accumulate=*/true);
    for (std::int64_t co = 0; co < c.cout; ++co) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < pixels; ++i) acc += dy[co * pixels + i];
      r.db[co] += static_cast<float>(acc);
    }
  }
  if (c.stride != 1 || c.cout == 1) {  // the head keeps col2im's bits
    col2im_input_grad(c, w, gy, r.dx);
    return r;
  }
  const ConvGeometry gd = dx_geometry_of(c, g);
  const Tensor wf = flipped(c, w);
  std::vector<float> dcols(
      static_cast<std::size_t>(gd.col_rows() * gd.col_cols()));
  for (std::int64_t n = 0; n < c.batch; ++n) {
    im2col(gy.data() + n * out_stride, gd, dcols.data());
    matmul(wf.data(), dcols.data(), r.dx.data() + n * in_stride, c.cin,
           gd.col_rows(), gd.col_cols());
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
  for (bool poisoned : {false, true}) {
    // A NaN pixel must poison the same outputs and gradients everywhere.
    if (poisoned) x[x.numel() / 2] = std::nanf("");
    ConvResult want;
    {
      IsaGuard guard(KernelIsa::kPortable);
      want = conv_oracle(c, w, b, x, gy);
    }
    for (KernelIsa isa : all_isas()) {
      IsaGuard guard(isa);
      for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::reset_global(threads);
        expect_same_bits(run_conv(c, w, b, x, gy), want,
                         std::string(to_string(isa)) + ", pool " +
                             std::to_string(threads) +
                             (poisoned ? ", NaN input" : ""));
      }
    }
  }
  ThreadPool::reset_global(0);
}

// Conv2d packs every GEMM's B straight from the padded image: stride 1
// with output rows that do and do not fill whole 8-pixel panels, stride
// 2 (gathered panels), dilation 2, and a fat RouteNet-like layer; one
// whose shapes make_gemm_plan would leave on the reference kernels
// (the conv GEMMs pack them anyway), and one Cout = 1 head. Then stride-1 dX convs: valid padding
// at batch 17 (dy padded by 2), padding past the kernel's reach (dy
// cropped by 1), and dilation 2 with Cout = 6 < 8.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvIsa,
    ::testing::Values(ConvCase{3, 8, 5, 1, 2, 1, 12, 12, 3},
                      ConvCase{3, 8, 5, 1, 2, 1, 11, 13, 2},
                      ConvCase{3, 8, 5, 2, 2, 1, 16, 16, 3},
                      ConvCase{6, 8, 3, 1, 2, 2, 10, 10, 2},
                      ConvCase{4, 9, 3, 2, 1, 2, 15, 14, 17},
                      ConvCase{8, 16, 7, 1, 3, 1, 16, 16, 2},
                      ConvCase{2, 4, 3, 1, 1, 1, 6, 6, 2},
                      ConvCase{9, 1, 3, 1, 1, 1, 9, 16, 2},
                      ConvCase{12, 10, 3, 1, 0, 1, 11, 9, 17},
                      ConvCase{8, 9, 3, 1, 3, 1, 7, 10, 4},
                      ConvCase{8, 6, 3, 1, 1, 2, 12, 9, 1}));

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

TEST(ConvIsa, StrideOneInputGradMatchesCol2imAdjoint) {
  // The stride-1 dX sums each element over all Cout*k*k terms in KC
  // slices; col2im(W^T dy) sums over Cout per tap, then over taps. Both
  // round differently, so they agree only to within the rounding of a
  // K-term float sum. Bound, per element with S = sum of |w * dy| over
  // its terms: |new - old| <= sqrt(K) * eps * S (eps = FLT_EPSILON),
  // the typical growth of rounding error over K terms.
  const float eps = std::numeric_limits<float>::epsilon();
  for (const ConvCase& c : {ConvCase{5, 7, 3, 1, 0, 1, 9, 12, 1},
                            ConvCase{12, 10, 3, 1, 0, 1, 11, 9, 17},
                            ConvCase{8, 9, 3, 1, 3, 1, 7, 10, 4},
                            ConvCase{8, 6, 3, 1, 1, 2, 12, 9, 4},
                            ConvCase{16, 24, 5, 1, 1, 2, 13, 10, 4},
                            ConvCase{32, 64, 7, 1, 3, 1, 16, 12, 1},
                            ConvCase{24, 20, 9, 1, 2, 1, 10, 11, 17}}) {
    std::ostringstream where;
    PrintTo(c, &where);
    const ConvGeometry g = geometry_of(c);
    Rng rng(83);
    const Tensor w = random_tensor(Shape::of(c.cout, g.col_rows()), rng);
    const Tensor b = random_tensor(Shape::of(c.cout), rng);
    const Tensor x = random_tensor(Shape::of(c.batch, c.cin, c.h, c.w), rng);
    const Tensor gy = random_tensor(
        Shape::of(c.batch, c.cout, g.out_height(), g.out_width()), rng);
    const Tensor got = run_conv(c, w, b, x, gy).dx;
    Tensor old(x.shape());
    col2im_input_grad(c, w, gy, old);
    Tensor wabs = w, gyabs = gy, scale(x.shape());
    for (std::int64_t i = 0; i < wabs.numel(); ++i) wabs[i] = std::fabs(w[i]);
    for (std::int64_t i = 0; i < gyabs.numel(); ++i) {
      gyabs[i] = std::fabs(gy[i]);
    }
    col2im_input_grad(c, wabs, gyabs, scale);
    const double bound =
        std::sqrt(static_cast<double>(c.cout * c.kernel * c.kernel)) * eps;
    double worst = 0.0;
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(got[i])) << where.str() << " at " << i;
      worst = std::max(worst, std::fabs(static_cast<double>(got[i]) - old[i]) /
                                  std::max<double>(scale[i], 1e-30));
    }
    EXPECT_LE(worst, bound) << where.str();
  }
}

TEST(ConvIsa, InfWeightMeetsDyPaddingInStrideOneInputGrad) {
  // The stride-1 dX reads dy through its zero padding with every weight,
  // so an Inf weight at tap (0, 0) of input channel 0 makes NaN at the
  // channel-0 pixels whose tap (0, 0) falls outside dy — where col2im,
  // which never applied that tap there, stays finite. Everywhere else
  // the two agree on which values are finite.
  const ConvCase c{3, 8, 5, 1, 2, 1, 12, 12, 2};
  const ConvGeometry g = geometry_of(c);
  Rng rng(84);
  Tensor w = random_tensor(Shape::of(c.cout, g.col_rows()), rng);
  w[0] = std::numeric_limits<float>::infinity();
  const Tensor b = random_tensor(Shape::of(c.cout), rng);
  const Tensor x = random_tensor(Shape::of(c.batch, c.cin, c.h, c.w), rng);
  const Tensor gy = random_tensor(
      Shape::of(c.batch, c.cout, g.out_height(), g.out_width()), rng);
  const Tensor got = run_conv(c, w, b, x, gy).dx;
  Tensor old(x.shape());
  col2im_input_grad(c, w, gy, old);
  std::int64_t border = 0;
  for (std::int64_t n = 0; n < c.batch; ++n) {
    for (std::int64_t ci = 0; ci < c.cin; ++ci) {
      for (std::int64_t h = 0; h < c.h; ++h) {
        for (std::int64_t v = 0; v < c.w; ++v) {
          const std::int64_t i = ((n * c.cin + ci) * c.h + h) * c.w + v;
          // Tap (0, 0) reads dy at (h + p, v + p).
          if (ci == 0 && (h + c.pad >= c.h || v + c.pad >= c.w)) {
            EXPECT_TRUE(std::isfinite(old[i])) << "col2im at " << i;
            EXPECT_TRUE(std::isnan(got[i])) << "conv dX at " << i;
            ++border;
          } else {
            EXPECT_EQ(std::isfinite(old[i]), std::isfinite(got[i])) << i;
          }
        }
      }
    }
  }
  EXPECT_EQ(border, c.batch * (c.h * c.w - (c.h - c.pad) * (c.w - c.pad)));
}

// Runs `layer` once (forward, then backward of gy) and returns y, dx
// and every parameter gradient, in that order.
std::vector<Tensor> forward_backward(Module& layer, const Tensor& x,
                                     const Tensor& gy) {
  layer.zero_grad();
  std::vector<Tensor> out{layer.forward(x, /*training=*/true)};
  out.push_back(layer.backward(gy));
  for (Parameter* p : layer.parameters()) out.push_back(p->grad);
  return out;
}

TEST(ConvLayers, TopLevelAndNestedCallsGiveTheSameBits) {
  // A layer called at top level splits dW across the pool by weight
  // columns; inside a parallel region (a federated round's client task)
  // it runs everything serially. Both must give the same bits: the
  // packed stride-1 conv (dX conv packed too), the head, a stride-2
  // conv and RouteNet's deconv, at pool sizes 1, 2 and 8.
  Rng rng(85);
  std::vector<std::unique_ptr<Module>> layers;
  std::vector<Shape> in_shapes, out_shapes;
  auto conv = [&](std::int64_t cin, std::int64_t cout, std::int64_t k,
                  std::int64_t stride, std::int64_t hw) {
    Conv2dOptions o;
    o.in_channels = cin;
    o.out_channels = cout;
    o.kernel = k;
    o.stride = stride;
    o.same_padding();
    auto layer = std::make_unique<Conv2d>("c", o, rng);
    const auto [oh, ow] = layer->output_hw(hw, hw);
    in_shapes.push_back(Shape::of(17, cin, hw, hw));
    out_shapes.push_back(Shape::of(17, cout, oh, ow));
    layers.push_back(std::move(layer));
  };
  conv(32, 64, 7, 1, 16);
  conv(32, 1, 5, 1, 16);
  conv(8, 16, 3, 2, 15);
  ConvTranspose2dOptions d;
  d.in_channels = d.out_channels = 32;
  d.kernel = 4;
  d.stride = 2;
  d.padding = 1;
  layers.push_back(std::make_unique<ConvTranspose2d>("d", d, rng));
  in_shapes.push_back(Shape::of(17, 32, 8, 8));
  out_shapes.push_back(Shape::of(17, 32, 16, 16));
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Tensor x = random_tensor(in_shapes[l], rng);
    const Tensor gy = random_tensor(out_shapes[l], rng);
    ThreadPool::reset_global(1);
    const std::vector<Tensor> want = forward_backward(*layers[l], x, gy);
    for (std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool::reset_global(threads);
      const std::vector<Tensor> top = forward_backward(*layers[l], x, gy);
      std::vector<Tensor> nested;
      parallel_for(2, [&](std::size_t begin, std::size_t) {
        if (begin == 0) nested = forward_backward(*layers[l], x, gy);
      });
      ASSERT_EQ(top.size(), want.size());
      ASSERT_EQ(nested.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        const std::string where = layers[l]->describe() + ", pool " +
                                  std::to_string(threads) + ", output " +
                                  std::to_string(i);
        EXPECT_TRUE(same_bits(top[i], want[i])) << where << ", top level";
        EXPECT_TRUE(same_bits(nested[i], want[i])) << where << ", nested";
      }
    }
  }
  ThreadPool::reset_global(0);
}

// ---- ConvTranspose2d backward vs im2col(dy) + the planner's GEMMs ----

struct DeconvCase {
  std::int64_t cin, cout, kernel, stride, pad, h, w, batch;
};

TEST(ConvTranspose2dLowering, BackwardBitIdenticalToIm2colOfDy) {
  // dx = W * im2col(dy) and dW += x * im2col(dy)^T sample by sample:
  // the layer reads dy's padded copy through its stride-s ConvIndex
  // instead, which packs the same panels. RouteNet's deconv (both GEMMs
  // packed), a batch-17 one, and a small one the planner keeps on the
  // reference kernels.
  for (const DeconvCase& c : {DeconvCase{32, 32, 4, 2, 1, 8, 8, 4},
                              DeconvCase{12, 9, 4, 2, 1, 5, 7, 17},
                              DeconvCase{2, 3, 3, 2, 1, 4, 5, 2}}) {
    ConvTranspose2dOptions o;
    o.in_channels = c.cin;
    o.out_channels = c.cout;
    o.kernel = c.kernel;
    o.stride = c.stride;
    o.padding = c.pad;
    const std::int64_t oh = o.out_size(c.h);
    const std::int64_t ow = o.out_size(c.w);
    const ConvGeometry g{c.cout,   oh,    ow,       c.kernel, c.kernel, c.pad,
                         c.pad,    c.stride, c.stride, 1,        1};
    Rng rng(86);
    const Tensor x = random_tensor(Shape::of(c.batch, c.cin, c.h, c.w), rng);
    const Tensor gy = random_tensor(Shape::of(c.batch, c.cout, oh, ow), rng);
    ConvTranspose2d layer("d", o, rng);
    const Tensor& w = layer.parameters()[0]->value;
    std::vector<Tensor> want{Tensor(), Tensor(x.shape()),
                             Tensor(layer.parameters()[0]->value.shape()),
                             Tensor(Shape::of(c.cout))};
    std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    for (std::int64_t n = 0; n < c.batch; ++n) {
      const float* dy = gy.data() + n * c.cout * oh * ow;
      const float* xn = x.data() + n * c.cin * c.h * c.w;
      im2col(dy, g, cols.data());
      matmul(w.data(), cols.data(), want[1].data() + n * c.cin * c.h * c.w,
             c.cin, g.col_rows(), g.col_cols());
      matmul_bt(xn, cols.data(), want[2].data(), c.cin, g.col_cols(),
                g.col_rows(), /*accumulate=*/true);
      for (std::int64_t co = 0; co < c.cout; ++co) {
        double acc = 0.0;
        for (std::int64_t i = 0; i < oh * ow; ++i) acc += dy[co * oh * ow + i];
        want[3][co] += static_cast<float>(acc);
      }
    }
    for (KernelIsa isa : all_isas()) {
      IsaGuard guard(isa);
      for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::reset_global(threads);
        const std::vector<Tensor> got = forward_backward(layer, x, gy);
        for (std::size_t i = 1; i < want.size(); ++i) {
          EXPECT_TRUE(same_bits(got[i], want[i]))
              << layer.describe() << " " << to_string(isa) << ", pool "
              << threads << ", output " << i;
        }
      }
    }
  }
  ThreadPool::reset_global(0);
}

}  // namespace
}  // namespace fleda
