#include "tensor/matmul.hpp"

#include <cstring>
#include <stdexcept>

#include "tensor/plan.hpp"
#include "util/thread_pool.hpp"

#if FLEDA_X86_KERNELS
#include <immintrin.h>
#endif

namespace fleda {
namespace {

// Inner kernel: crow[0..n) += sum_{t<4} a_t * b_t[0..n). Processing
// four B rows per pass quarters the store traffic relative to a plain
// saxpy loop, which is what limits throughput on wide rows.
inline void axpy4_portable(float* crow, const float* a4, const float* b0,
                           const float* b1, const float* b2, const float* b3,
                           std::int64_t n) {
  const float a0 = a4[0], a1 = a4[1], a2 = a4[2], a3 = a4[3];
  for (std::int64_t j = 0; j < n; ++j) {
    crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  }
}

// No a == 0 shortcut: 0 * NaN must stay NaN. Skipping the row would
// silently drop non-finite values arriving through B, and the planner's
// strategies must agree exactly on which inputs poison the output.
inline void axpy1_portable(float* crow, float a, const float* brow,
                           std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) crow[j] += a * brow[j];
}

#if FLEDA_X86_KERNELS

// The same expressions eight columns at a time: every column still
// computes crow + (((a0*b0 + a1*b1) + a2*b2) + a3*b3), each product
// rounded before its sum, so the bits match the portable loops, which
// also finish the last n % 8 columns.
FLEDA_TARGET_AVX2 void axpy4_avx2(float* crow, const float* a4,
                                  const float* b0, const float* b1,
                                  const float* b2, const float* b3,
                                  std::int64_t n) {
  const float a0 = a4[0], a1 = a4[1], a2 = a4[2], a3 = a4[3];
  const __m256 v0 = _mm256_set1_ps(a0), v1 = _mm256_set1_ps(a1),
               v2 = _mm256_set1_ps(a2), v3 = _mm256_set1_ps(a3);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 s = _mm256_mul_ps(v0, _mm256_loadu_ps(b0 + j));
    s = _mm256_add_ps(s, _mm256_mul_ps(v1, _mm256_loadu_ps(b1 + j)));
    s = _mm256_add_ps(s, _mm256_mul_ps(v2, _mm256_loadu_ps(b2 + j)));
    s = _mm256_add_ps(s, _mm256_mul_ps(v3, _mm256_loadu_ps(b3 + j)));
    _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j), s));
  }
  axpy4_portable(crow + j, a4, b0 + j, b1 + j, b2 + j, b3 + j, n - j);
}

FLEDA_TARGET_AVX2 void axpy1_avx2(float* crow, float a, const float* brow,
                                  std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(brow + j));
    _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j), prod));
  }
  axpy1_portable(crow + j, a, brow + j, n - j);
}

#endif  // FLEDA_X86_KERNELS

inline void axpy4(KernelIsa isa, float* crow, const float* a4, const float* b0,
                  const float* b1, const float* b2, const float* b3,
                  std::int64_t n) {
#if FLEDA_X86_KERNELS
  if (isa == KernelIsa::kAvx2) {
    axpy4_avx2(crow, a4, b0, b1, b2, b3, n);
    return;
  }
#endif
  (void)isa;
  axpy4_portable(crow, a4, b0, b1, b2, b3, n);
}

inline void axpy1(KernelIsa isa, float* crow, float a, const float* brow,
                  std::int64_t n) {
#if FLEDA_X86_KERNELS
  if (isa == KernelIsa::kAvx2) {
    axpy1_avx2(crow, a, brow, n);
    return;
  }
#endif
  (void)isa;
  axpy1_portable(crow, a, brow, n);
}

}  // namespace

void matmul_reference(const float* a, const float* b, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n,
                      bool accumulate) {
  const KernelIsa isa = kernel_isa();
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          float* crow = c + i * n;
          if (!accumulate) std::memset(crow, 0, sizeof(float) * n);
          const float* arow = a + i * k;
          std::int64_t p = 0;
          for (; p + 4 <= k; p += 4) {
            axpy4(isa, crow, arow + p, b + p * n, b + (p + 1) * n,
                  b + (p + 2) * n, b + (p + 3) * n, n);
          }
          for (; p < k; ++p) axpy1(isa, crow, arow[p], b + p * n, n);
        }
      },
      /*grain=*/4);
}

void matmul_at_reference(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         bool accumulate) {
  // C[i,j] = sum_p A[p,i] * B[p,j] with A stored [k,m].
  const KernelIsa isa = kernel_isa();
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          float* crow = c + i * n;
          if (!accumulate) std::memset(crow, 0, sizeof(float) * n);
          std::int64_t p = 0;
          for (; p + 4 <= k; p += 4) {
            const float a4[4] = {
                a[p * m + static_cast<std::int64_t>(i)],
                a[(p + 1) * m + static_cast<std::int64_t>(i)],
                a[(p + 2) * m + static_cast<std::int64_t>(i)],
                a[(p + 3) * m + static_cast<std::int64_t>(i)]};
            axpy4(isa, crow, a4, b + p * n, b + (p + 1) * n, b + (p + 2) * n,
                  b + (p + 3) * n, n);
          }
          for (; p < k; ++p) {
            axpy1(isa, crow, a[p * m + static_cast<std::int64_t>(i)],
                  b + p * n, n);
          }
        }
      },
      /*grain=*/4);
}

void matmul_bt_reference(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         bool accumulate) {
  // C[i,j] = sum_p A[i,p] * B[j,p]; contiguous dot products with four
  // independent accumulators for instruction-level parallelism.
  parallel_for(
      static_cast<std::size_t>(m),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const float* arow = a + i * k;
          float* crow = c + i * n;
          for (std::int64_t j = 0; j < n; ++j) {
            const float* brow = b + j * k;
            float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
            std::int64_t p = 0;
            for (; p + 4 <= k; p += 4) {
              acc0 += arow[p] * brow[p];
              acc1 += arow[p + 1] * brow[p + 1];
              acc2 += arow[p + 2] * brow[p + 2];
              acc3 += arow[p + 3] * brow[p + 3];
            }
            float acc = (acc0 + acc1) + (acc2 + acc3);
            for (; p < k; ++p) acc += arow[p] * brow[p];
            if (accumulate) {
              crow[j] += acc;
            } else {
              crow[j] = acc;
            }
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
