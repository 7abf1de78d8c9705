#include "tensor/matmul.hpp"

#include "tensor/plan.hpp"

namespace fleda {

void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_packed(KernelPlanCache::global().plan_for(GemmOp::kNN, m, k, n), a, b,
              c, accumulate);
}

void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_packed(KernelPlanCache::global().plan_for(GemmOp::kAT, m, k, n), a, b,
              c, accumulate);
}

void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_packed(KernelPlanCache::global().plan_for(GemmOp::kBT, m, k, n), a, b,
              c, accumulate);
}

}  // namespace fleda
