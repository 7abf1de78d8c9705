// fleda-lint-fixture: expect fp-contract
// Known-bad: a kernel body that targets AVX-512 directly instead of
// through FLEDA_TARGET_AVX512. AVX-512F brings FMA, and GCC at its
// default -ffp-contract=fast fuses this mul and add into one vfmadd.
#include <immintrin.h>

namespace fixture {

__attribute__((target("avx512f"))) void axpy(float* y, const float* x,
                                             float a, int n) {
  const __m512 va = _mm512_set1_ps(a);
  for (int i = 0; i + 16 <= n; i += 16) {
    const __m512 ax = _mm512_mul_ps(va, _mm512_loadu_ps(x + i));
    _mm512_storeu_ps(y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), ax));
  }
}

}  // namespace fixture
