// Threaded dense matrix multiply kernels. Matrices are row-major
// float buffers described by (rows, cols), on raw pointers.
//
// The public matmul / matmul_at / matmul_bt entry points dispatch
// through the shape-keyed KernelPlanCache (tensor/plan.hpp): skinny
// shapes run the row-streaming reference kernels, fat shapes run the
// packed cache-blocked GEMM. The *_reference variants are the
// planner's baseline strategy. The conv layers call neither: they run
// the packed GEMM directly (tensor/conv_gemm.hpp), so these entry
// points serve tests, the im2col oracles and the kernel benches. Every
// strategy sums in the one order of tensor/plan.hpp on every ISA, so
// they all give the same bits. Any k >= 0 works: k = 0 gives +0, or
// leaves C as it was when accumulating.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

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

// The reference strategy's kernels, bypassing the planner.
void matmul_reference(const float* a, const float* b, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n,
                      bool accumulate = false);
void matmul_at_reference(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         bool accumulate = false);
void matmul_bt_reference(const float* a, const float* b, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t n,
                         bool accumulate = false);

// Tensor convenience wrapper: a is [m,k], b is [k,n], returns [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace fleda
