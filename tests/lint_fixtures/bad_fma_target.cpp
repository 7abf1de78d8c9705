// fleda-lint-fixture: expect fp-contract
// Known-bad: three ways to fuse a multiply-add in a kernel. Each rounds
// a*b + c once, so the same inputs give different bits on hosts with
// and without FMA.
#include <immintrin.h>

#include <cmath>

namespace fixture {

__attribute__((target("avx2,fma"))) void fused_axpy(float* y, const float* x,
                                                    float a, int n) {
  const __m256 va = _mm256_set1_ps(a);
  for (int i = 0; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
}

float fused_scalar(float a, float b, float c) { return std::fma(a, b, c); }

}  // namespace fixture
