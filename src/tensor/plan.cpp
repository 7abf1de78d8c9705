#include "tensor/plan.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace fleda {
namespace {

// Blocking cache sizes. Deliberately compile-time constants (not
// probed from the host) so a plan is a pure function of the GEMM shape.
constexpr std::int64_t kL1Bytes = 32 * 1024;
static_assert((kGemmMR + kGemmNR) * kGemmKC *
                      static_cast<std::int64_t>(sizeof(float)) <=
                  kL1Bytes,
              "kGemmKC: one A plus one B micro-panel must fit in L1");
constexpr std::int64_t kL2Bytes = 1024 * 1024;

std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return (v + to - 1) / to * to;
}

std::int64_t round_down(std::int64_t v, std::int64_t to) {
  return v / to * to;
}

std::atomic<int> g_kernel_isa{-1};  // -1 = not yet probed

// __builtin_cpu_supports checks the CPUID bit and that the OS saves
// the vector state (YMM for avx2, ZMM for avx512f).
bool host_supports(KernelIsa isa) {
#if FLEDA_X86_KERNELS
  __builtin_cpu_init();
  switch (isa) {
    case KernelIsa::kPortable:
      return true;
    case KernelIsa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case KernelIsa::kAvx512:
      // Its bodies fall back to the AVX2 ones for narrow shapes.
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return isa == KernelIsa::kPortable;
#endif
}

// The ISAs this host runs, probed once, portable first.
const std::vector<KernelIsa>& host_isas() {
  static const std::vector<KernelIsa> isas = [] {
    std::vector<KernelIsa> found;
    for (const KernelIsa isa :
         {KernelIsa::kPortable, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
      if (host_supports(isa)) found.push_back(isa);
    }
    return found;
  }();
  return isas;
}

}  // namespace

const char* to_string(GemmOp op) {
  switch (op) {
    case GemmOp::kNN:
      return "nn";
    case GemmOp::kAT:
      return "at";
    case GemmOp::kBT:
      return "bt";
  }
  return "?";
}

const char* to_string(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return "portable";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

bool kernel_isa_supported(KernelIsa isa) {
  const std::vector<KernelIsa>& isas = host_isas();
  return std::find(isas.begin(), isas.end(), isa) != isas.end();
}

std::vector<KernelIsa> supported_isas() { return host_isas(); }

KernelIsa kernel_isa() {
  int isa = g_kernel_isa.load(std::memory_order_relaxed);
  if (isa < 0) {
    isa = static_cast<int>(host_isas().back());
    g_kernel_isa.store(isa, std::memory_order_relaxed);
  }
  return static_cast<KernelIsa>(isa);
}

void set_kernel_isa(KernelIsa isa) {
  if (!kernel_isa_supported(isa)) {
    throw std::invalid_argument(std::string("set_kernel_isa: ") +
                                to_string(isa) + " is not supported here");
  }
  g_kernel_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

std::int64_t kernel_lanes(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return 4;
    case KernelIsa::kAvx2:
      return 8;
    case KernelIsa::kAvx512:
      return 16;
  }
  return 1;
}

std::int64_t gemm_kernel_columns(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return kGemmNR;
    case KernelIsa::kAvx2:
      return 2 * kGemmNR;
    case KernelIsa::kAvx512:
      return 4 * kGemmNR;
  }
  return kGemmNR;
}

std::int64_t gemm_kernel_rows(KernelIsa isa) {
  return isa == KernelIsa::kAvx512 ? 2 * kGemmMR : kGemmMR;
}

std::string GemmPlan::to_string() const {
  std::string s = "gemm(";
  s += fleda::to_string(shape.op);
  s += ", m=" + std::to_string(shape.m) + ", k=" + std::to_string(shape.k) +
       ", n=" + std::to_string(shape.n) + ") -> {mc=" + std::to_string(mc) +
       ", nc=" + std::to_string(nc) + "} on ";
  s += fleda::to_string(isa);
  return s;
}

GemmPlan make_gemm_plan(GemmOp op, std::int64_t m, std::int64_t k,
                        std::int64_t n) {
  GemmPlan plan;
  plan.shape = GemmShape{op, m, k, n};
  plan.isa = kernel_isa();
  // NC: the packed B block (KC x nc floats) should occupy at most half
  // of L2, so it survives the sweep over all row panels. (k = 0 budgets
  // as k = 1: nothing is packed.)
  const std::int64_t kc = std::max<std::int64_t>(1, std::min(k, kGemmKC));
  std::int64_t nc_budget =
      (kL2Bytes / 2) / (static_cast<std::int64_t>(sizeof(float)) * kc);
  nc_budget = round_down(nc_budget, kGemmNR);
  if (nc_budget < kGemmNR) nc_budget = kGemmNR;
  plan.nc = std::min<std::int64_t>(round_up(n, kGemmNR), nc_budget);
  // MC: the row-panel span handed to one parallel_for chunk; MR-aligned
  // so partitions never split a micro-panel.
  plan.mc = std::min<std::int64_t>(round_up(m, kGemmMR), 96);
  return plan;
}

// --------------------------------------------------------------------
// KernelPlanCache

KernelPlanCache& KernelPlanCache::global() {
  static KernelPlanCache cache;
  return cache;
}

GemmPlan KernelPlanCache::plan_for(GemmOp op, std::int64_t m, std::int64_t k,
                                   std::int64_t n) {
  const GemmShape shape{op, m, k, n};
  MutexLock lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry.first == shape) {
      ++hits_;
      GemmPlan plan = entry.second;
      plan.isa = kernel_isa();
      return plan;
    }
  }
  ++misses_;
  ProfileScope planning(phase::kKernelPlan);
  entries_.emplace_back(shape, make_gemm_plan(op, m, k, n));
  return entries_.back().second;
}

PlanCacheStats KernelPlanCache::stats() const {
  MutexLock lock(mutex_);
  PlanCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.entries = entries_.size();
  return stats;
}

void KernelPlanCache::clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace fleda
