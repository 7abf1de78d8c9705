// N-lane float vectors for the kernels that are written once and
// instantiated per width: N = 16 inside an AVX-512 body, 8 inside an
// AVX2 body, 4 in the portable body (an SSE/NEON register), 1 for
// scalar tails. Each vector operator
// is one IEEE single-precision operation per lane (no FMA, no
// regrouping), so a lane's value never depends on N or on the ISA.
//
// Loads, stores and broadcasts go through references, so no function
// passes a wide vector by value outside an AVX2 or AVX-512 body. An
// AVX-512 body gets `acc + w * x` as a mul and an add only because
// FLEDA_TARGET_AVX512 (tensor/plan.hpp) switches contraction off.
#pragma once

#include <cstdint>
#include <cstring>

namespace fleda {

template <int N>
struct Lanes {
  typedef float F __attribute__((vector_size(4 * N)));
  typedef std::int32_t I __attribute__((vector_size(4 * N)));
};

template <class V>
__attribute__((always_inline)) inline void load(V& v, const float* p) {
  std::memcpy(&v, p, sizeof(v));
}

template <class V>
__attribute__((always_inline)) inline void store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof(v));
}

// Every lane = a. The broadcast is an integer add of zero, exact for
// any bits; a float 0 + a would turn a -0 into +0.
template <class V, class S>
__attribute__((always_inline)) inline void splat(V& v, S a) {
  static_assert(sizeof(S) == sizeof(std::int32_t), "32-bit lanes");
  typedef typename Lanes<sizeof(V) / sizeof(S)>::I I;
  std::int32_t bits;
  std::memcpy(&bits, &a, sizeof(bits));
  v = (V)(I{} + bits);
}

}  // namespace fleda
