// Dense matrix multiply on raw row-major float buffers described by
// (rows, cols). Each entry point looks its plan up in the shape-keyed
// KernelPlanCache (tensor/plan.hpp) and runs the packed GEMM. The conv
// layers call none of them: they build their plans directly
// (tensor/conv_gemm.hpp), so these serve tests, the im2col oracles and
// the kernel benches. Every plan sums in the one order of
// tensor/plan.hpp on every ISA. Any k >= 0 works: k = 0 gives +0, or
// leaves C as it was when accumulating.
#pragma once

#include <cstdint>

namespace fleda {

// C[m,n] = A[m,k] * B[k,n].  If accumulate is true, adds into C
// instead of overwriting.
void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n, bool accumulate = false);

// C[m,n] = A^T[m,k] * B[k,n] where A is stored as [k,m].
void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate = false);

// C[m,n] = A[m,k] * B^T[k,n] where B is stored as [n,k].
void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate = false);

}  // namespace fleda
