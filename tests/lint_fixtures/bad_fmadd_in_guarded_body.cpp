// fleda-lint-fixture: expect fp-contract
// Known-bad: the guard switches off contraction by the compiler, not
// a fused intrinsic written by hand.
#include <immintrin.h>

#define FLEDA_TARGET_AVX512 \
  __attribute__((target("avx512f"), optimize("fp-contract=off")))

namespace fixture {

FLEDA_TARGET_AVX512 __m512 fused(__m512 a, __m512 b, __m512 c) {
  return _mm512_fmadd_ps(a, b, c);
}

}  // namespace fixture
