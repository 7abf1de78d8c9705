// Tests for the packed GEMM's plans and its one summation order. Every
// GEMM entry point — the matmul family, the packed GEMM with A packed
// on the fly, prepacked or B read through implicit columns, and the
// weight gradient's form with A read through implicit columns and C
// stored transposed — must reproduce a scalar oracle of the canonical
// order (canonical_gemm) bit for bit, on every kernel ISA the host
// supports and at pool sizes 1 and 4, across KC slice and NC block
// boundaries, accumulation, k = 0, -0 rows and non-finite values. The
// plan cache must count hits and misses correctly under concurrent
// lookups, and the conv layers must never consult it. The direct
// forward and dW kernels of the single-output-channel conv must
// reproduce the im2col lowering with the scalar oracle's GEMMs bit for
// bit on every ISA and pool size. Conv2d's implicit-column path must
// reproduce im2col + the same GEMMs with dW/db summed in sample order,
// at strides 1 and 2, dilation 2, pool sizes 1/2/8, top level and
// nested. The conv adjoint (Conv2d's dX, ConvTranspose2d's forward)
// runs as stride-1 phase convs: it must reproduce the phase oracle
// (im2col of each phase's window + canonical_gemm) bit for bit, and the
// scalar adjoint written from the definition to within a stated
// rounding bound, at strides 1 to 3, with phases that have no tap and
// phases of unequal size. ConvTranspose2d's backward must reproduce
// im2col(dy) + the same GEMMs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "models/registry.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "tensor/conv_gemm.hpp"
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

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void run_matmul(GemmOp op, const float* a, const float* b, float* c,
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

// The canonical order (tensor/plan.hpp) in scalar code, the oracle of
// every test below: each KC slice of an element sums +0, then + a*b for
// p ascending, and is stored (first slice, not accumulating) or added.
// A row of C runs its slices side by side, so B is read along its rows.
void canonical_gemm(GemmOp op, const float* a, const float* b, float* c,
                    std::int64_t m, std::int64_t k, std::int64_t n,
                    bool accumulate) {
  std::vector<float> slice(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < m; ++i) {
    float* out = c + i * n;
    if (k == 0 && !accumulate) std::fill(out, out + n, 0.0f);  // no slice
    for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
      std::fill(slice.begin(), slice.end(), 0.0f);
      for (std::int64_t p = pc; p < std::min(k, pc + kGemmKC); ++p) {
        const float av = op == GemmOp::kAT ? a[p * m + i] : a[i * k + p];
        for (std::int64_t j = 0; j < n; ++j) {
          const float bv = op == GemmOp::kBT ? b[j * k + p] : b[p * n + j];
          slice[static_cast<std::size_t>(j)] =
              slice[static_cast<std::size_t>(j)] + av * bv;
        }
      }
      for (std::int64_t j = 0; j < n; ++j) {
        const float sum = slice[static_cast<std::size_t>(j)];
        out[j] = accumulate || pc > 0 ? out[j] + sum : sum;
      }
    }
  }
}

// B as implicit columns: B's stored rows, each spread to every other
// float of a NaN-filled buffer, so a panel gathers its columns and a
// stray read of a gap poisons the result. (Built as for kBT from A
// [m, k], with n = m, it is A's implicit columns.)
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
  // shape, fat shapes, k on either side of one and two KC slices, and
  // k = 0 (no slice at all). Each shape runs make_gemm_plan's plan and,
  // where n exceeds 8 NR, a copy of it with NC narrowed to 8 NR, so the
  // NC loop runs more than once.
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{1, 7, 33},    {5, 3, 17},   {4, 16, 16},  {7, 81, 23},
                {64, 162, 64}, {33, 65, 47}, {13, 2, 130}, {96, 100, 1},
                {1, 5184, 64}, {50, 486, 256}, {50, 32, 77}, {2, 7, 260},
                {3, 679, 21},  {6, 680, 19},  {9, 681, 17}, {5, 1361, 24},
                {3, 0, 5}};
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
      if (s.k > 0) {
        b_at(std::min(s.k, kGemmKC) - 1, s.n - 1) =
            std::numeric_limits<float>::infinity();
        b_at(s.k - 1, 0) = std::nanf("");
      }
      const std::vector<float> seed =
          random_vec(static_cast<std::size_t>(s.m * s.n), rng);
      const SpreadB spread(op, b, s.k, s.n);
      std::vector<GemmPlan> plans{make_gemm_plan(op, s.m, s.k, s.n)};
      if (s.n > 8 * kGemmNR) {
        plans.push_back(plans[0]);
        plans.back().nc = 8 * kGemmNR;
      }
      for (bool accumulate : {false, true}) {
        std::vector<float> want = seed;
        canonical_gemm(op, a.data(), b.data(), want.data(), s.m, s.k, s.n,
                       accumulate);
        for (std::int64_t j = 1; j + 1 < s.n && !accumulate; ++j) {
          const float v = want[static_cast<std::size_t>(j)];
          ASSERT_TRUE(v == 0.0f && !std::signbit(v)) << "column " << j;
        }
        for (KernelIsa isa : supported_isas()) {
          IsaGuard isa_guard(isa);
          for (std::size_t threads : {1u, 4u}) {
            for (GemmPlan plan : plans) {
              plan.isa = isa;
              ThreadPool::reset_global(threads);
              const std::string where =
                  std::string(to_string(op)) + " m=" + std::to_string(s.m) +
                  " k=" + std::to_string(s.k) + " n=" + std::to_string(s.n) +
                  " nc=" + std::to_string(plan.nc) +
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
              expect_want("matmul", [&](float* c) {
                run_matmul(op, a.data(), b.data(), c, s.m, s.k, s.n,
                           accumulate);
              });
              expect_want("gemm_packed", [&](float* c) {
                gemm_packed(plan, a.data(), b.data(), c, accumulate);
              });
              std::vector<float> apack(packed_a_elems(plan));
              pack_a(plan, a.data(), apack.data());
              if (op == GemmOp::kNN && s.k > 0) {
                // pack_a's gathered form packs the same panels: A read
                // through a reversed column table from a copy of A whose
                // rows are reversed.
                std::vector<float> reversed(a.size());
                std::vector<std::int64_t> column;
                for (std::int64_t p = 0; p < s.k; ++p) {
                  column.push_back(s.k - 1 - p);
                  for (std::int64_t i = 0; i < s.m; ++i) {
                    reversed[static_cast<std::size_t>(i * s.k + s.k - 1 - p)] =
                        a[static_cast<std::size_t>(i * s.k + p)];
                  }
                }
                std::vector<float> gathered(apack.size());
                pack_a(plan, reversed.data(), gathered.data(), column.data(),
                       s.k);
                EXPECT_EQ(0, std::memcmp(apack.data(), gathered.data(),
                                         apack.size() * sizeof(float)))
                    << "pack_a, gathered: " << where;
              }
              if (op == GemmOp::kBT) {
                // The weight gradient's form: A read in place, B packed
                // whole, C stored transposed and always accumulated.
                if (!accumulate) continue;
                const SpreadB spread_a(GemmOp::kBT, a, s.k, s.m);
                std::vector<float> bpack(packed_b_elems(plan));
                pack_b(plan, b.data(), bpack.data());
                // A row range off the kernel's row grid, then the rest.
                const std::int64_t split = std::min(s.m, s.m / 2 + 3);
                std::vector<float> ct(seed.size());
                for (std::int64_t i = 0; i < s.m; ++i) {
                  for (std::int64_t j = 0; j < s.n; ++j) {
                    ct[static_cast<std::size_t>(j * s.m + i)] =
                        seed[static_cast<std::size_t>(i * s.n + j)];
                  }
                }
                const std::vector<float> ct_seed = ct;
                gemm_packed_implicit_a(plan, spread_a.cols(), bpack.data(),
                                       ct.data(), 0, split);
                for (std::int64_t j = 0; j < s.n; ++j) {
                  for (std::int64_t i = split; i < s.m; ++i) {
                    const auto at = static_cast<std::size_t>(j * s.m + i);
                    ASSERT_EQ(0, std::memcmp(&ct[at], &ct_seed[at],
                                             sizeof(float)))
                        << where << ": row " << i << " written";
                  }
                }
                gemm_packed_implicit_a(plan, spread_a.cols(), bpack.data(),
                                       ct.data(), split, s.m);
                for (std::int64_t i = 0; i < s.m; ++i) {
                  for (std::int64_t j = 0; j < s.n; ++j) {
                    const auto at = static_cast<std::size_t>(i * s.n + j);
                    const auto at_t = static_cast<std::size_t>(j * s.m + i);
                    EXPECT_EQ(0,
                              std::memcmp(&want[at], &ct[at_t], sizeof(float)))
                        << "gemm_packed_implicit_a: " << where << " at (" << i
                        << ", " << j << ")";
                  }
                }
                continue;
              }
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
                    const auto at = static_cast<std::size_t>(i * s.n + j);
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
  }
  ThreadPool::reset_global(0);
}

TEST(GemmPacked, BitIdenticalAcrossThreadPoolSizes) {
  Rng rng(13);
  const std::int64_t m = 64, k = 162, n = 256;
  std::vector<float> a = random_vec(static_cast<std::size_t>(m * k), rng);
  std::vector<float> b = random_vec(static_cast<std::size_t>(k * n), rng);
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
  // End to end through Conv2d: the fixed MR row partition + sample-order
  // dW must keep both directions bit-identical whatever the pool size.
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

TEST(GemmPlan, BlocksInWholeMicroPanels) {
  for (const GemmPlan& plan :
       {make_gemm_plan(GemmOp::kNN, 64, 486, 1024),
        make_gemm_plan(GemmOp::kAT, 486, 64, 1024),
        make_gemm_plan(GemmOp::kBT, 64, 1024, 486),
        make_gemm_plan(GemmOp::kNN, 1, 5184, 1024)}) {
    EXPECT_EQ(plan.nc % kGemmNR, 0) << plan.to_string();
    EXPECT_EQ(plan.mc % kGemmMR, 0) << plan.to_string();
  }
  // A dX conv into six input channels: one MR panel rounded up, and NC
  // the B block of a KC = 680 slice that fills half of L2.
  const GemmPlan plan = make_gemm_plan(GemmOp::kNN, 6, 5184, 256);
  EXPECT_TRUE(plan.shape == (GemmShape{GemmOp::kNN, 6, 5184, 256}));
  EXPECT_EQ(plan.mc, 8);
  EXPECT_EQ(plan.nc, 192);
}

TEST(KernelPlanCache, CountsHitsMissesAndEntries) {
  KernelPlanCache cache;
  const GemmPlan first = cache.plan_for(GemmOp::kNN, 64, 486, 1024);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  for (int i = 0; i < 5; ++i) {
    const GemmPlan again = cache.plan_for(GemmOp::kNN, 64, 486, 1024);
    EXPECT_EQ(again.mc, first.mc);
    EXPECT_EQ(again.nc, first.nc);
  }
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.entries, 1u);
  // clear() drops the entry and zeroes the counters: the next lookup of
  // the same shape plans afresh.
  cache.clear();
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
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
      // entries it shares with the others.
      const std::int64_t m = 16 << (i % 4);
      const GemmPlan plan = cache.plan_for(GemmOp::kNN, m, 486, 1024);
      const GemmPlan want = make_gemm_plan(GemmOp::kNN, m, 486, 1024);
      if (plan.nc != want.nc || plan.mc != want.mc) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  ThreadPool::reset_global(0);
  EXPECT_EQ(bad.load(), 0);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, iterations);
  EXPECT_EQ(stats.entries, 4u);
  // A miss plans under the cache's lock, so racing first lookups of a
  // shape count one miss between them.
  EXPECT_EQ(stats.misses, 4u);
}

// ---- Conv geometry and the dX oracles ----

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

// The adjoint of the conv `g` with weight a [m, g.col_rows()], applied
// to x [batch, m, OH, OW], from the definition: image pixel (c, ih, iw)
// sums a[i, (c, kh, kw)] * x[i, oh, ow] over the terms with
// oh*s + kh*d - p = ih and ow*s + kw*d - p = iw, in double (|a * x| when
// `abs`). A term whose x pixel lies outside x is never formed.
Tensor scalar_adjoint(const ConvGeometry& g, std::int64_t m,
                      std::int64_t batch, const float* a, const float* x,
                      bool abs = false) {
  const std::int64_t oh_n = g.out_height(), ow_n = g.out_width();
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  Tensor image(Shape::of(batch, g.channels, g.height, g.width));
  float* out = image.data();
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      for (std::int64_t ih = 0; ih < g.height; ++ih) {
        for (std::int64_t iw = 0; iw < g.width; ++iw, ++out) {
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
                const double t =
                    static_cast<double>(
                        a[(i * g.channels + c) * taps + kh * g.kernel_w +
                          kw]) *
                    x[((n * m + i) * oh_n + oh) * ow_n + ow];
                acc += abs ? std::fabs(t) : t;
              }
            }
          }
          *out = static_cast<float>(acc);
        }
      }
    }
  }
  return image;
}

// dX from the definition (scalar_adjoint of the layer's conv).
Tensor scalar_input_grad(const ConvCase& c, const Tensor& w, const Tensor& gy,
                         bool abs = false) {
  return scalar_adjoint(geometry_of(c), c.cout, c.batch, w.data(), gy.data(),
                        abs);
}

// One axis of a phase of the adjoint (tensor/conv_gemm.hpp): image rows
// r, r + s, ... (count), row r + s*u reading x row u + first + j*step
// through tap taps[j], the taps kh with (r + p - kh*d) % s == 0 in
// descending order.
struct OracleAxis {
  std::int64_t r, count, first, step;
  std::vector<std::int64_t> taps;
};

std::vector<OracleAxis> oracle_axes(std::int64_t size, std::int64_t k,
                                    std::int64_t p, std::int64_t s,
                                    std::int64_t d) {
  std::vector<OracleAxis> axes;
  for (std::int64_t r = 0; r < s && r < size; ++r) {
    OracleAxis a{r, (size - r + s - 1) / s, 0, d / std::gcd(d, s), {}};
    for (std::int64_t kh = k - 1; kh >= 0; --kh) {
      if ((r + p - kh * d) % s != 0) continue;
      if (a.taps.empty()) a.first = (r + p - kh * d) / s;
      a.taps.push_back(kh);
    }
    axes.push_back(a);
  }
  return axes;
}

// The adjoint as its phases compute it, in the scalar oracle's order:
// per phase, a zero-filled copy of the x window it reads, im2col of the
// window at the phase's dilation, canonical_gemm with the phase's
// weight W_r[c, (i, jh, jw)] = a[i, (c, taps_h[jh], taps_w[jw])], and
// the block interleaved into the image (+0 for a phase with no tap).
Tensor phase_adjoint(const ConvGeometry& g, std::int64_t m,
                     std::int64_t batch, const float* a, const float* x) {
  const std::int64_t oh_n = g.out_height(), ow_n = g.out_width();
  const std::int64_t taps = g.kernel_h * g.kernel_w;
  Tensor image(Shape::of(batch, g.channels, g.height, g.width));
  for (const OracleAxis& ph : oracle_axes(g.height, g.kernel_h, g.pad_h,
                                          g.stride_h, g.dilation_h)) {
    for (const OracleAxis& pw : oracle_axes(g.width, g.kernel_w, g.pad_w,
                                            g.stride_w, g.dilation_w)) {
      const auto nh = static_cast<std::int64_t>(ph.taps.size());
      const auto nw = static_cast<std::int64_t>(pw.taps.size());
      const ConvGeometry win{m,  ph.count + std::max<std::int64_t>(nh - 1, 0) *
                                                ph.step,
                             pw.count + std::max<std::int64_t>(nw - 1, 0) *
                                            pw.step,
                             nh, nw, 0, 0, 1, 1, ph.step, pw.step};
      std::vector<float> w;
      for (std::int64_t c = 0; c < g.channels; ++c) {
        for (std::int64_t i = 0; i < m; ++i) {
          for (const std::int64_t kh : ph.taps) {
            for (const std::int64_t kw : pw.taps) {
              w.push_back(
                  a[(i * g.channels + c) * taps + kh * g.kernel_w + kw]);
            }
          }
        }
      }
      const std::int64_t pixels = ph.count * pw.count;
      std::vector<float> window(
          static_cast<std::size_t>(m * win.height * win.width));
      std::vector<float> cols(
          static_cast<std::size_t>(win.col_rows() * pixels));
      std::vector<float> block(static_cast<std::size_t>(g.channels * pixels));
      for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t y = 0; y < win.height; ++y) {
            for (std::int64_t z = 0; z < win.width; ++z) {
              const std::int64_t xh = ph.first + y, xw = pw.first + z;
              const bool inside = xh >= 0 && xh < oh_n && xw >= 0 && xw < ow_n;
              window[static_cast<std::size_t>((i * win.height + y) *
                                                  win.width +
                                              z)] =
                  inside ? x[((n * m + i) * oh_n + xh) * ow_n + xw] : 0.0f;
            }
          }
        }
        if (nh * nw > 0) im2col(window.data(), win, cols.data());
        canonical_gemm(GemmOp::kNN, w.data(), cols.data(), block.data(),
                       g.channels, win.col_rows(), pixels,
                       /*accumulate=*/false);
        for (std::int64_t c = 0; c < g.channels; ++c) {
          for (std::int64_t u = 0; u < ph.count; ++u) {
            for (std::int64_t v = 0; v < pw.count; ++v) {
              image[((n * g.channels + c) * g.height + ph.r +
                     u * g.stride_h) *
                        g.width +
                    pw.r + v * g.stride_w] =
                  block[static_cast<std::size_t>((c * ph.count + u) *
                                                     pw.count +
                                                 v)];
            }
          }
        }
      }
    }
  }
  return image;
}

// dX at stride 1 as the forward conv of dy with the flipped weight,
// W' * im2col(dy, g'), in the scalar oracle's order.
void flipped_input_grad(const ConvCase& c, const Tensor& w, const Tensor& gy,
                        Tensor& dx) {
  const ConvGeometry gd = dx_geometry_of(c, geometry_of(c));
  const Tensor wf = flipped(c, w);
  std::vector<float> dcols(
      static_cast<std::size_t>(gd.col_rows() * gd.col_cols()));
  for (std::int64_t n = 0; n < c.batch; ++n) {
    im2col(gy.data() + n * c.cout * gd.height * gd.width, gd, dcols.data());
    canonical_gemm(GemmOp::kNN, wf.data(), dcols.data(),
                   dx.data() + n * c.cin * c.h * c.w, c.cin, gd.col_rows(),
                   gd.col_cols(), /*accumulate=*/false);
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

// The Cout = 1 conv as the im2col lowering computes it with the scalar
// oracle's GEMMs, dW/db added one sample at a time in sample order, and
// dX as the flipped conv of dy, as every stride-1 Conv2d computes it.
ConvResult im2col_oracle(const DirectCase& c, const Tensor& w, const Tensor& b,
                         const Tensor& x, const Tensor& gy) {
  const ConvGeometry g{c.cin, c.h, c.w, c.kernel, c.kernel, c.pad, c.pad,
                       1,     1,   c.dilation, c.dilation};
  const std::int64_t rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  const std::int64_t in_stride = c.cin * c.h * c.w;
  std::vector<float> cols(static_cast<std::size_t>(rows * pixels));
  ConvResult r{Tensor(gy.shape()), Tensor(w.shape()), Tensor(b.shape()),
               Tensor(x.shape())};
  for (std::int64_t n = 0; n < c.batch; ++n) {
    im2col(x.data() + n * in_stride, g, cols.data());
    float* y = r.y.data() + n * pixels;
    canonical_gemm(GemmOp::kNN, w.data(), cols.data(), y, 1, rows, pixels,
                   /*accumulate=*/false);
    if (c.bias) {
      for (std::int64_t i = 0; i < pixels; ++i) y[i] += b[0];
    }
  }
  for (std::int64_t n = 0; n < c.batch; ++n) {
    const float* dy = gy.data() + n * pixels;
    im2col(x.data() + n * in_stride, g, cols.data());
    canonical_gemm(GemmOp::kBT, dy, cols.data(), r.dw.data(), 1, pixels,
                   rows, /*accumulate=*/true);
    if (c.bias) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < pixels; ++i) acc += dy[i];
      r.db[0] += static_cast<float>(acc);
    }
  }
  flipped_input_grad(
      ConvCase{c.cin, 1, c.kernel, 1, c.pad, c.dilation, c.h, c.w, c.batch},
      w, gy, r.dx);
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
  for (KernelIsa isa : supported_isas()) {
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
// tail of the dW lane cascade (16, 8, 4, 2, 1 channels: 31); output
// widths on and off multiples of 4, 8 and 16; valid and same padding;
// bias on and off; batch 1 and 17 (dW/db summed over many samples);
// more than kGemmKC taps (forward slices: 9*9*9 = 729) and pixels (dW
// slices: 29*31 = 899).
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
                      DirectCase{15, 3, 1, 1, 29, 31, 1, true},
                      DirectCase{31, 3, 1, 1, 18, 35, 2, true}));

// The heads the benchmark trains: FLNet's at the smoke grid, the
// fleet's flnet_tiny at 8x8, RouteNet's. Then: OH not a multiple of
// the 8-row tile with an OW tail past the last 8-lane vector (11x13),
// dilation 2 with such a tail (12x19), and a one-channel image, whose
// dX conv (m = Cin = 1) runs the direct forward kernel too.
INSTANTIATE_TEST_SUITE_P(
    Tiles, DirectConv,
    ::testing::Values(DirectCase{64, 9, 4, 1, 16, 16, 4, true},
                      DirectCase{64, 9, 4, 1, 8, 8, 1, true},
                      DirectCase{32, 5, 2, 1, 16, 16, 4, true},
                      DirectCase{3, 3, 1, 1, 11, 13, 2, true},
                      DirectCase{4, 5, 4, 2, 12, 19, 2, false},
                      DirectCase{1, 3, 0, 1, 20, 3, 2, true}));

TEST(DirectConv, NonFiniteValuesPoisonLikeOracle) {
  // A weight and optionally dy's top-right pixel set to `value`, under
  // every ISA, checked on the direct kernels' outputs (forward, dW and
  // db; the head's dX is the stride-1 dX conv, whose non-finite
  // contract ConvIsa.InfWeightMeetsDyPaddingInStrideOneInputGrad
  // checks):
  //  - 6x7, a NaN in the axpy1 tail row (18 = 4*4 + 2 rows), which
  //    reads every output pixel, zero padding included;
  //  - the 16x16 and 8x8 heads, an Inf at tap (c=0, kh=0, kw=0) and an
  //    Inf dy, which meets x's zero padding in dW.
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
    }
    for (KernelIsa isa : supported_isas()) {
      IsaGuard guard(isa);
      const ConvResult got = run_conv2d(c, w, b, x, gy);
      const std::string at = std::string(to_string(isa)) + " " + where.str();
      EXPECT_TRUE(same_bits(got.y, want.y)) << at << ": forward";
      EXPECT_TRUE(same_bits(got.dw, want.dw)) << at << ": dW";
      EXPECT_TRUE(same_bits(got.db, want.db)) << at << ": db";
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
  // The list runs portable first and best last; the best is the default.
  const std::vector<KernelIsa> isas = supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), KernelIsa::kPortable);
  EXPECT_EQ(kernel_isa(), isas.back());
  for (const KernelIsa isa :
       {KernelIsa::kPortable, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    const bool listed = std::find(isas.begin(), isas.end(), isa) != isas.end();
    EXPECT_EQ(kernel_isa_supported(isa), listed) << to_string(isa);
    if (!listed) {
      EXPECT_THROW(set_kernel_isa(isa), std::invalid_argument)
          << to_string(isa);
    }
  }
  // The AVX-512 bodies fall back to the AVX2 ones on narrow shapes.
  if (kernel_isa_supported(KernelIsa::kAvx512)) {
    EXPECT_TRUE(kernel_isa_supported(KernelIsa::kAvx2));
  }
}

// ---- Conv2d at any Cout and stride vs im2col + the scalar GEMMs ----

// The layer as im2col + the scalar oracle's GEMMs compute it: dW/db
// added one sample at a time in sample order, and dX at stride 1 as
// W' * im2col(dy, g'), at other strides as its phases.
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
    canonical_gemm(GemmOp::kNN, w.data(), cols.data(), y, c.cout, rows,
                   pixels, /*accumulate=*/false);
    for (std::int64_t co = 0; co < c.cout; ++co) {
      for (std::int64_t i = 0; i < pixels; ++i) y[co * pixels + i] += b[co];
    }
  }
  for (std::int64_t n = 0; n < c.batch; ++n) {
    const float* dy = gy.data() + n * out_stride;
    im2col(x.data() + n * in_stride, g, cols.data());
    canonical_gemm(GemmOp::kBT, dy, cols.data(), r.dw.data(), c.cout,
                   pixels, rows, /*accumulate=*/true);
    for (std::int64_t co = 0; co < c.cout; ++co) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < pixels; ++i) acc += dy[co * pixels + i];
      r.db[co] += static_cast<float>(acc);
    }
  }
  if (c.stride == 1) {
    flipped_input_grad(c, w, gy, r.dx);
  } else {
    r.dx = phase_adjoint(g, c.cout, c.batch, w.data(), gy.data());
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

TEST_P(ConvIsa, EveryIsaAndPoolMatchesIm2colOracle) {
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
    const ConvResult want = conv_oracle(c, w, b, x, gy);
    for (KernelIsa isa : supported_isas()) {
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
// 2 (gathered panels), dilation 2, and a fat RouteNet-like layer; a
// small one (2 -> 4 channels at 6x6), and one Cout = 1 head. Then
// stride-1 dX convs: valid padding at batch 17 (dy padded by 2),
// padding past the kernel's reach (dy cropped by 1), and dilation 2
// with Cout = 6 < 8. Last, RouteNet's
// conv2 (B read in place, in joined pairs on AVX-512, forward and dX)
// and a k = 1 conv (in place too, each weight row a single tap). Then
// a 900-pixel conv: dW sums each sample over two KC slices. Last, the
// heads the benchmark trains (forward and dW direct, dX the m = Cin
// flipped conv): FLNet's 64 -> 1 9x9 at grids 16 and 8, and RouteNet's
// 32 -> 1 5x5.
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
                      ConvCase{8, 6, 3, 1, 1, 2, 12, 9, 1},
                      ConvCase{32, 64, 7, 1, 3, 1, 16, 16, 2},
                      ConvCase{4, 8, 1, 1, 0, 1, 8, 8, 1},
                      ConvCase{2, 5, 3, 1, 1, 1, 30, 30, 2},
                      ConvCase{64, 1, 9, 1, 4, 1, 16, 16, 4},
                      ConvCase{64, 1, 9, 1, 4, 1, 8, 8, 1},
                      ConvCase{32, 1, 5, 1, 2, 1, 16, 16, 4}));

TEST(ConvIsa, ShapeSweepCoversThePackedImplicitPath) {
  // Guards the instantiation above: its first shapes must really run
  // dW as cols * dy^T with the column matrix read in place as A
  // (gemm_packed_implicit_a) over more than one block of weight columns
  // at stride 1 and 2 and dilation 2, and the 900-pixel shape across two
  // KC slices.
  for (const ConvCase& c : {ConvCase{3, 8, 5, 1, 2, 1, 12, 12, 3},
                            ConvCase{3, 8, 5, 2, 2, 1, 16, 16, 3},
                            ConvCase{6, 8, 3, 1, 2, 2, 10, 10, 2},
                            ConvCase{2, 5, 3, 1, 1, 1, 30, 30, 2}}) {
    std::ostringstream where;
    PrintTo(c, &where);
    const ConvGeometry g = geometry_of(c);
    EXPECT_GT(weight_grad_blocks(g.col_rows(), gemm_kernel_rows(kernel_isa()))
                  .count,
              1)
        << where.str();
    // conv_gemm_weight_grad is that GEMM, sample by sample.
    Rng rng(82);
    const std::vector<float> dy =
        random_vec(static_cast<std::size_t>(c.batch * c.cout * g.col_cols()),
                   rng);
    const std::vector<float> x = random_vec(
        static_cast<std::size_t>(c.batch * c.cin * c.h * c.w), rng);
    std::vector<float> got(static_cast<std::size_t>(c.cout * g.col_rows()));
    std::vector<float> want = got;
    conv_gemm_weight_grad(g, c.cout, c.batch, dy.data(), x.data(),
                          got.data());
    const GemmPlan plan =
        make_gemm_plan(GemmOp::kBT, g.col_rows(), g.col_cols(), c.cout);
    const ConvIndex ix = make_conv_index(g);
    std::vector<float> padded(static_cast<std::size_t>(ix.padded_elems()));
    std::vector<float> bpack(packed_b_elems(plan));
    for (std::int64_t n = 0; n < c.batch; ++n) {
      pad_image(x.data() + n * c.cin * c.h * c.w, g, padded.data());
      pack_b(plan, dy.data() + n * c.cout * g.col_cols(), bpack.data());
      gemm_packed_implicit_a(
          plan,
          ImplicitCols{padded.data(), ix.row_offset.data(),
                       ix.pixel_offset.data()},
          bpack.data(), want.data(), 0, g.col_rows());
    }
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(float)))
        << where.str();
  }
}

TEST(ConvIsa, StrideOneConvsWithWholePanelRowsReadBInPlace) {
  // Guards the instantiation above and the models' hot layers: a
  // stride-1 conv whose output width is a multiple of NR reads its
  // forward and dX B operand in place (RouteNet's conv2 at grid 16,
  // conv3 at 8, and the fleet FLNet's input conv at 8); an output width
  // of 12, or a stride-2 conv, packs its panels.
  const auto in_place = [](const ConvGeometry& g) {
    const ConvIndex ix = make_conv_index(g);
    const ImplicitCols cols{nullptr, ix.row_offset.data(),
                            ix.pixel_offset.data()};
    return implicit_b_in_place(cols, 0, g.col_cols());
  };
  for (const ConvCase& c : {ConvCase{32, 64, 7, 1, 3, 1, 16, 16, 4},
                            ConvCase{64, 32, 9, 1, 4, 1, 8, 8, 4},
                            ConvCase{2, 64, 9, 1, 4, 1, 8, 8, 1}}) {
    std::ostringstream where;
    PrintTo(c, &where);
    const ConvGeometry g = geometry_of(c);
    EXPECT_TRUE(in_place(g)) << where.str();
    EXPECT_TRUE(in_place(dx_geometry_of(c, g))) << where.str() << " dX";
  }
  for (const ConvCase& c : {ConvCase{3, 8, 5, 1, 2, 1, 12, 12, 3},
                            ConvCase{3, 8, 5, 2, 2, 1, 16, 16, 3},
                            ConvCase{32, 64, 3, 2, 1, 1, 8, 8, 4}}) {
    std::ostringstream where;
    PrintTo(c, &where);
    EXPECT_FALSE(in_place(geometry_of(c))) << where.str();
  }
}

TEST(ConvIsa, StrideOneInputGradMatchesScalarAdjoint) {
  // The stride-1 dX sums each element over all Cout*k*k terms in KC
  // slices, each product and sum rounded to float; the scalar adjoint
  // sums the same terms in double. So they agree only to within the
  // rounding of a K-term float sum. Bound, per element with S = sum of
  // |w * dy| over its terms: |new - exact| <= sqrt(K) * eps * S
  // (eps = FLT_EPSILON), the typical growth of rounding error over K
  // terms.
  const float eps = std::numeric_limits<float>::epsilon();
  for (const ConvCase& c : {ConvCase{5, 7, 3, 1, 0, 1, 9, 12, 1},
                            ConvCase{12, 10, 3, 1, 0, 1, 11, 9, 17},
                            ConvCase{8, 9, 3, 1, 3, 1, 7, 10, 4},
                            ConvCase{8, 6, 3, 1, 1, 2, 12, 9, 4},
                            ConvCase{16, 24, 5, 1, 1, 2, 13, 10, 4},
                            ConvCase{32, 64, 7, 1, 3, 1, 16, 12, 1},
                            ConvCase{24, 20, 9, 1, 2, 1, 10, 11, 17},
                            ConvCase{64, 1, 9, 1, 4, 1, 16, 16, 2}}) {
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
    const Tensor exact = scalar_input_grad(c, w, gy);
    const Tensor scale = scalar_input_grad(c, w, gy, /*abs=*/true);
    const double bound =
        std::sqrt(static_cast<double>(c.cout * c.kernel * c.kernel)) * eps;
    double worst = 0.0;
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(got[i])) << where.str() << " at " << i;
      worst = std::max(worst,
                       std::fabs(static_cast<double>(got[i]) - exact[i]) /
                           std::max<double>(scale[i], 1e-30));
    }
    EXPECT_LE(worst, bound) << where.str();
  }
}

// max |got - want| / max |want| over want's elements.
double max_rel_err(const Tensor& got, const Tensor& want) {
  double err = 0.0, scale = 0.0;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    err = std::max(err, std::fabs(static_cast<double>(got[i]) - want[i]));
    scale = std::max(scale, std::fabs(static_cast<double>(want[i])));
  }
  return scale > 0.0 ? err / scale : err;
}

class ConvAdjoint : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvAdjoint, PhasesMatchOraclesAtEveryIsaAndPool) {
  // ConvGemmAdjoint, the dX of Conv2d and the forward of
  // ConvTranspose2d, against the phase oracle bit for bit and against
  // the scalar adjoint to 1e-5 of its largest value, on every ISA at
  // pool sizes 1, 2 and 8 (a NaN in x poisons the same pixels). At
  // stride 1 the phase oracle is the flipped conv's.
  const ConvCase& c = GetParam();
  const ConvGeometry g = geometry_of(c);
  Rng rng(88);
  const Tensor w = random_tensor(Shape::of(c.cout, g.col_rows()), rng);
  Tensor gy = random_tensor(
      Shape::of(c.batch, c.cout, g.out_height(), g.out_width()), rng);
  if (c.stride == 1) {
    Tensor flipped_dx(Shape::of(c.batch, c.cin, c.h, c.w));
    flipped_input_grad(c, w, gy, flipped_dx);
    EXPECT_TRUE(same_bits(
        phase_adjoint(g, c.cout, c.batch, w.data(), gy.data()), flipped_dx));
  }
  const std::int64_t in_stride = c.cin * c.h * c.w;
  const std::int64_t out_stride = c.cout * g.out_height() * g.out_width();
  for (bool poisoned : {false, true}) {
    if (poisoned) gy[gy.numel() / 2] = std::nanf("");
    const Tensor want = phase_adjoint(g, c.cout, c.batch, w.data(), gy.data());
    if (!poisoned) {
      EXPECT_LE(max_rel_err(want, scalar_input_grad(c, w, gy)), 1e-5);
    }
    for (KernelIsa isa : supported_isas()) {
      IsaGuard guard(isa);
      for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::reset_global(threads);
        const ConvGemmAdjoint adjoint(g, c.cout, w.data());
        Tensor got(want.shape());
        for (std::int64_t n = 0; n < c.batch; ++n) {
          adjoint.run(gy.data() + n * out_stride, got.data() + n * in_stride);
        }
        EXPECT_TRUE(same_bits(got, want))
            << to_string(isa) << ", pool " << threads
            << (poisoned ? ", NaN in x" : "");
      }
    }
  }
  ThreadPool::reset_global(0);
}

// Stride 1 (one phase), then stride 2 with phase widths of 8 (B read in
// place); dilation 2 at stride 2, odd H (half the phases have no tap,
// widths of 7 gather B); stride 3 at odd sizes (phases of unequal
// size); k = 1 < s = 2 (three phases without a tap) and k = 2 < s = 3;
// a pad past the kernel's reach, whose x is cropped; PROS's enc2 (4-wide
// phases, gathered); RouteNet's deconv as the adjoint of its conv
// (8-wide phases, in place).
INSTANTIATE_TEST_SUITE_P(
    Phases, ConvAdjoint,
    ::testing::Values(ConvCase{3, 8, 5, 1, 2, 1, 12, 12, 2},
                      ConvCase{3, 8, 5, 2, 2, 1, 16, 16, 3},
                      ConvCase{4, 9, 3, 2, 1, 2, 15, 14, 3},
                      ConvCase{5, 7, 4, 3, 1, 1, 17, 19, 2},
                      ConvCase{6, 4, 1, 2, 0, 1, 9, 10, 2},
                      ConvCase{3, 5, 2, 3, 1, 1, 10, 11, 2},
                      ConvCase{2, 3, 1, 2, 2, 1, 4, 5, 2},
                      ConvCase{32, 64, 3, 2, 1, 1, 8, 8, 2},
                      ConvCase{32, 32, 4, 2, 1, 1, 16, 16, 2}));

TEST(ConvIsa, InfWeightMeetsDyPaddingInInputGrad) {
  // Every adjoint phase reads x (dy, or the deconv's input) through its
  // zero padding with every weight, so an Inf weight at tap (0, 0) of
  // image channel 0 makes NaN at the channel-0 pixels that tap reaches
  // (ih + p divisible by the stride, likewise iw) from outside x — where
  // the scalar adjoint, which never applies the tap there, stays finite.
  // Everywhere else the two agree on which values are finite. A packed
  // stride-1 conv, FLNet's head at the fleet's grid (its dX is that conv
  // too), a stride-2 conv, and a deconv's forward (as the adjoint of its
  // conv).
  const struct {
    ConvCase c;
    bool deconv;
  } cases[] = {{ConvCase{3, 8, 5, 1, 2, 1, 12, 12, 2}, false},
               {ConvCase{64, 1, 9, 1, 4, 1, 8, 8, 1}, false},
               {ConvCase{3, 8, 3, 2, 1, 1, 9, 10, 2}, false},
               {ConvCase{3, 4, 4, 2, 1, 1, 12, 10, 2}, true}};
  for (const auto& [c, deconv] : cases) {
    std::ostringstream where;
    PrintTo(c, &where);
    if (deconv) where << " (deconv)";
    const ConvGeometry g = geometry_of(c);
    Rng rng(84);
    Tensor w = random_tensor(Shape::of(c.cout, g.col_rows()), rng);
    w[0] = std::numeric_limits<float>::infinity();
    const Tensor b = random_tensor(Shape::of(c.cout), rng);
    const Tensor x = random_tensor(Shape::of(c.batch, c.cin, c.h, c.w), rng);
    const Tensor gy = random_tensor(
        Shape::of(c.batch, c.cout, g.out_height(), g.out_width()), rng);
    Tensor got;
    if (deconv) {
      ConvTranspose2dOptions o;
      o.in_channels = c.cout;
      o.out_channels = c.cin;
      o.kernel = c.kernel;
      o.stride = c.stride;
      o.padding = c.pad;
      ConvTranspose2d layer("d", o, rng);
      ASSERT_EQ(o.out_size(g.out_height()), c.h) << where.str();
      ASSERT_EQ(o.out_size(g.out_width()), c.w) << where.str();
      layer.parameters()[0]->value = w;
      got = layer.forward(gy, /*training=*/false);
    } else {
      got = run_conv(c, w, b, x, gy).dx;
    }
    const Tensor old = scalar_input_grad(c, w, gy);
    // Whether tap (0, 0) lands on image row (or column) i.
    const auto reached = [&](std::int64_t i) {
      return (i + c.pad) % c.stride == 0;
    };
    std::int64_t border = 0;
    for (std::int64_t n = 0; n < c.batch; ++n) {
      for (std::int64_t ci = 0; ci < c.cin; ++ci) {
        for (std::int64_t h = 0; h < c.h; ++h) {
          for (std::int64_t v = 0; v < c.w; ++v) {
            const std::int64_t i = ((n * c.cin + ci) * c.h + h) * c.w + v;
            // Tap (0, 0) reads x at ((h + p) / s, (v + p) / s).
            if (ci == 0 && reached(h) && reached(v) &&
                ((h + c.pad) / c.stride >= g.out_height() ||
                 (v + c.pad) / c.stride >= g.out_width())) {
              EXPECT_TRUE(std::isfinite(old[i]))
                  << where.str() << ": scalar adjoint at " << i;
              EXPECT_TRUE(std::isnan(got[i]))
                  << where.str() << ": phases at " << i;
              ++border;
            } else {
              EXPECT_EQ(std::isfinite(old[i]), std::isfinite(got[i]))
                  << where.str() << " at " << i;
            }
          }
        }
      }
    }
    EXPECT_GT(border, 0) << where.str();
  }
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
  // conv, RouteNet's deconv, and a small conv and head (the size of the
  // fleet's 8x8 FLNet layers), at pool sizes 1, 2 and 8.
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
  conv(2, 8, 3, 1, 6);
  conv(4, 1, 3, 1, 6);
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

TEST(ConvLayers, ModelStepsNeverConsultThePlanCache) {
  // Every conv GEMM builds its packed plan directly: a RouteNet step
  // (deconv forward included) and a PROS step (stride-2 dX included)
  // make no KernelPlanCache lookup.
  for (ModelKind kind : {ModelKind::kRouteNet, ModelKind::kPROS}) {
    Rng rng(87);
    RoutabilityModelPtr model = make_model(kind, 6, rng);
    const Tensor x = random_tensor(Shape::of(2, 6, 16, 16), rng);
    const PlanCacheStats before = KernelPlanCache::global().stats();
    const Tensor y = model->forward(x, /*training=*/true);
    model->backward(random_tensor(y.shape(), rng));
    const PlanCacheStats after = KernelPlanCache::global().stats();
    EXPECT_EQ(after.hits + after.misses, before.hits + before.misses)
        << to_string(kind);
  }
}

// ---- ConvTranspose2d vs its phases, the scalar GEMMs and im2col(dy) ----

struct DeconvCase {
  std::int64_t cin, cout, kernel, stride, pad, h, w, batch;
};

TEST(ConvTranspose2dLowering, BitIdenticalToIm2colOracle) {
  // Forward: y = the adjoint of the conv of its output geometry applied
  // to x, + b: the phase oracle's bits, and the scalar adjoint's values
  // to 1e-5 of the largest. Backward: dx = W * im2col(dy) and dW +=
  // x * im2col(dy)^T sample by sample; the layer reads dy's padded copy
  // through its stride-s ConvIndex instead, which packs the same panels.
  // RouteNet's deconv, a batch-17 one, and two small ones with
  // m = Cout*k*k = 27 (not a multiple of MR) and 45.
  for (const DeconvCase& c : {DeconvCase{32, 32, 4, 2, 1, 8, 8, 4},
                              DeconvCase{12, 9, 4, 2, 1, 5, 7, 17},
                              DeconvCase{2, 3, 3, 2, 1, 4, 5, 2},
                              DeconvCase{3, 5, 3, 2, 0, 6, 3, 3}}) {
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
    Tensor& b = layer.parameters()[1]->value;
    b = random_tensor(b.shape(), rng);
    ASSERT_EQ(g.col_cols(), c.h * c.w);
    std::vector<Tensor> want{
        phase_adjoint(g, c.cin, c.batch, w.data(), x.data()),
        Tensor(x.shape()), Tensor(w.shape()), Tensor(Shape::of(c.cout))};
    Tensor exact = scalar_adjoint(g, c.cin, c.batch, w.data(), x.data());
    for (Tensor* y : {&want[0], &exact}) {
      for (std::int64_t i = 0; i < y->numel(); ++i) {
        (*y)[i] += b[i / (oh * ow) % c.cout];
      }
    }
    EXPECT_LE(max_rel_err(want[0], exact), 1e-5) << layer.describe();
    std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    for (std::int64_t n = 0; n < c.batch; ++n) {
      const float* dy = gy.data() + n * c.cout * oh * ow;
      const float* xn = x.data() + n * c.cin * c.h * c.w;
      im2col(dy, g, cols.data());
      canonical_gemm(GemmOp::kNN, w.data(), cols.data(),
                     want[1].data() + n * c.cin * c.h * c.w, c.cin,
                     g.col_rows(), g.col_cols(), /*accumulate=*/false);
      canonical_gemm(GemmOp::kBT, xn, cols.data(), want[2].data(), c.cin,
                     g.col_cols(), g.col_rows(), /*accumulate=*/true);
      for (std::int64_t co = 0; co < c.cout; ++co) {
        double acc = 0.0;
        for (std::int64_t i = 0; i < oh * ow; ++i) acc += dy[co * oh * ow + i];
        want[3][co] += static_cast<float>(acc);
      }
    }
    for (KernelIsa isa : supported_isas()) {
      IsaGuard guard(isa);
      for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::reset_global(threads);
        const std::vector<Tensor> got = forward_backward(layer, x, gy);
        for (std::size_t i = 0; i < want.size(); ++i) {
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
