// fleda-lint-fixture: clean
// The sanctioned way to write an AVX-512 body: through
// FLEDA_TARGET_AVX512, whose GCC form carries optimize("fp-contract=off")
// and whose Clang form follows the contract pragma. A mul followed by
// an add then stays two roundings.
#pragma once

#include <immintrin.h>

#if defined(__clang__)
#pragma clang fp contract(off)
#define FLEDA_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define FLEDA_TARGET_AVX512 \
  __attribute__((target("avx512f"), optimize("fp-contract=off")))
#endif

namespace fixture {

FLEDA_TARGET_AVX512 inline __m512 mul_add(__m512 acc, __m512 a, __m512 b) {
  return _mm512_add_ps(acc, _mm512_mul_ps(a, b));
}

}  // namespace fixture
