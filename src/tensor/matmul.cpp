#include "tensor/matmul.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/lanes.hpp"
#include "tensor/plan.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace fleda {
namespace {

// ---- Reference row kernels ----
//
// One row of C per call, in the canonical order of tensor/plan.hpp:
// each KC slice of every element sums +0, then + a*b for p ascending,
// and is stored (first slice, not accumulating) or added to C. A tile
// of V vectors of N adjacent columns holds its partials in registers
// across kRowDepth depth steps, parking them in a row buffer in between
// (a float stored and reloaded is the same float), so B is read in
// blocks of kRowDepth rows that stream along each row. For the k = 32
// conv shapes a slice is one block, and a 64-column row one AVX2 tile
// (a four-vector AVX-512 one).

constexpr std::int64_t kRowDepth = 64;

// Columns [0, V*N) of one row over depth [p0, p1) of a slice: A(p) =
// a[p * a_step], B(p, j) = b[p * n + j]; `part` holds the slice's
// partials unless p0 starts it; the slice ends at p1 when `last`.
template <int N, int V>
__attribute__((always_inline)) inline void row_tile(
    const float* a, std::int64_t a_step, const float* b, std::int64_t n,
    std::int64_t p0, std::int64_t p1, bool first, bool last, float* part,
    float* c, bool add) {
  typedef typename Lanes<N>::F F;
  F acc[V] = {};
  if (!first) {
    for (int v = 0; v < V; ++v) load(acc[v], part + v * N);
  }
  for (std::int64_t p = p0; p < p1; ++p) {
    // No a == 0 shortcut: 0 * NaN must stay NaN.
    F av;
    splat(av, a[p * a_step]);
    const float* brow = b + p * n;
    for (int v = 0; v < V; ++v) {
      F x;
      load(x, brow + v * N);
      acc[v] = acc[v] + av * x;
    }
  }
  for (int v = 0; v < V; ++v) {
    if (!last) {
      store(part + v * N, acc[v]);
      continue;
    }
    if (add) {
      F y;
      load(y, c + v * N);
      acc[v] = y + acc[v];
    }
    store(c + v * N, acc[v]);
  }
}

// The whole row, one depth block at a time: tiles of 8 vectors (and,
// 16 lanes wide, of 4), then single vectors, then scalars.
template <int N>
__attribute__((always_inline)) inline void row_blocks(
    const float* a, std::int64_t a_step, const float* b, std::int64_t n,
    std::int64_t k, float* part, float* c, bool accumulate) {
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t pe = std::min(k, pc + kGemmKC);
    for (std::int64_t p0 = pc; p0 < pe; p0 += kRowDepth) {
      const std::int64_t p1 = std::min(pe, p0 + kRowDepth);
      const bool first = p0 == pc;
      const bool last = p1 == pe;
      const bool add = accumulate || pc > 0;
      std::int64_t j = 0;
      for (; j + 8 * N <= n; j += 8 * N) {
        row_tile<N, 8>(a, a_step, b + j, n, p0, p1, first, last, part + j,
                       c + j, add);
      }
      if constexpr (N > 8) {
        for (; j + 4 * N <= n; j += 4 * N) {
          row_tile<N, 4>(a, a_step, b + j, n, p0, p1, first, last,
                         part + j, c + j, add);
        }
      }
      for (; j + N <= n; j += N) {
        row_tile<N, 1>(a, a_step, b + j, n, p0, p1, first, last, part + j,
                       c + j, add);
      }
      for (; j < n; ++j) {
        row_tile<1, 1>(a, a_step, b + j, n, p0, p1, first, last, part + j,
                       c + j, add);
      }
    }
  }
}

void row_portable(const float* a, std::int64_t a_step, const float* b,
                  std::int64_t n, std::int64_t k, float* part, float* c,
                  bool accumulate) {
  row_blocks<4>(a, a_step, b, n, k, part, c, accumulate);
}

#if FLEDA_X86_KERNELS
FLEDA_TARGET_AVX2 void row_avx2(const float* a, std::int64_t a_step,
                                const float* b, std::int64_t n,
                                std::int64_t k, float* part, float* c,
                                bool accumulate) {
  row_blocks<8>(a, a_step, b, n, k, part, c, accumulate);
}

FLEDA_TARGET_AVX512 void row_avx512(const float* a, std::int64_t a_step,
                                    const float* b, std::int64_t n,
                                    std::int64_t k, float* part, float* c,
                                    bool accumulate) {
  row_blocks<16>(a, a_step, b, n, k, part, c, accumulate);
}
#endif

// C[i, :] for rows i of A(i, p) = a[i * i_step + p * p_step].
void reference_rows(const float* a, std::int64_t i_step, std::int64_t p_step,
                    const float* b, float* c, std::int64_t m, std::int64_t k,
                    std::int64_t n, bool accumulate) {
  auto row = row_portable;
#if FLEDA_X86_KERNELS
  if (kernel_isa() == KernelIsa::kAvx2) row = row_avx2;
  if (kernel_isa() == KernelIsa::kAvx512) row = row_avx512;
#endif
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        float* part = k > kRowDepth ? thread_scratch(ScratchSlot::kRowPartial,
                                                     static_cast<std::size_t>(n))
                                    : nullptr;
        for (std::size_t i = begin; i < end; ++i) {
          float* crow = c + static_cast<std::int64_t>(i) * n;
          if (k == 0 && !accumulate) std::memset(crow, 0, sizeof(float) * n);
          row(a + static_cast<std::int64_t>(i) * i_step, p_step, b, n, k,
              part, crow, accumulate);
        }
      },
      /*grain=*/4);
}

// C[0, Cols) of one row of matmul_bt: Cols independent dots (add
// chains) against B rows b + j * k.
template <int Cols>
inline void dot_block(const float* arow, const float* b, std::int64_t k,
                      float* c, bool accumulate) {
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t pe = std::min(k, pc + kGemmKC);
    float acc[Cols] = {};
    for (std::int64_t p = pc; p < pe; ++p) {
      for (int j = 0; j < Cols; ++j) acc[j] = acc[j] + arow[p] * b[j * k + p];
    }
    for (int j = 0; j < Cols; ++j) {
      c[j] = accumulate || pc > 0 ? c[j] + acc[j] : acc[j];
    }
  }
}

}  // namespace

void matmul_reference(const float* a, const float* b, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n,
                      bool accumulate) {
  reference_rows(a, /*i_step=*/k, /*p_step=*/1, b, c, m, k, n, accumulate);
}

void matmul_at_reference(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         bool accumulate) {
  // A stored [k, m]: A(i, p) = a[p * m + i].
  reference_rows(a, /*i_step=*/1, /*p_step=*/m, b, c, m, k, n, accumulate);
}

void matmul_bt_reference(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         bool accumulate) {
  // C[i,j] = sum_p A[i,p] * B[j,p]: a sequential dot per KC slice.
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const float* arow = a + static_cast<std::int64_t>(i) * k;
          float* crow = c + static_cast<std::int64_t>(i) * n;
          if (k == 0 && !accumulate) std::memset(crow, 0, sizeof(float) * n);
          std::int64_t j = 0;
          for (; j + 8 <= n; j += 8) {
            dot_block<8>(arow, b + j * k, k, crow + j, accumulate);
          }
          for (; j < n; ++j) {
            dot_block<1>(arow, b + j * k, k, crow + j, accumulate);
          }
        }
      },
      /*grain=*/4);
}

// Planner dispatch: one cached-plan lookup, then the strategy the cost
// model picked for this shape.

void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n, bool accumulate) {
  const GemmPlan plan =
      KernelPlanCache::global().plan_for(GemmOp::kNN, m, k, n);
  if (plan.strategy == GemmStrategy::kPacked) {
    gemm_packed(plan, a, b, c, accumulate);
    return;
  }
  matmul_reference(a, b, c, m, k, n, accumulate);
}

void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate) {
  const GemmPlan plan =
      KernelPlanCache::global().plan_for(GemmOp::kAT, m, k, n);
  if (plan.strategy == GemmStrategy::kPacked) {
    gemm_packed(plan, a, b, c, accumulate);
    return;
  }
  matmul_at_reference(a, b, c, m, k, n, accumulate);
}

void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate) {
  const GemmPlan plan =
      KernelPlanCache::global().plan_for(GemmOp::kBT, m, k, n);
  if (plan.strategy == GemmStrategy::kPacked) {
    gemm_packed(plan, a, b, c, accumulate);
    return;
  }
  matmul_bt_reference(a, b, c, m, k, n, accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2) {
    throw std::invalid_argument("matmul: expects rank-2 tensors");
  }
  std::int64_t m = a.shape().dim(0);
  std::int64_t k = a.shape().dim(1);
  if (b.shape().dim(0) != k) {
    throw std::invalid_argument("matmul: inner dimension mismatch " +
                                a.shape().to_string() + " x " +
                                b.shape().to_string());
  }
  std::int64_t n = b.shape().dim(1);
  Tensor c(Shape::of(m, n));
  matmul(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/false);
  return c;
}

}  // namespace fleda
