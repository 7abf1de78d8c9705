#include "tensor/plan.hpp"

#include <atomic>
#include <deque>
#include <stdexcept>

#include "obs/profiler.hpp"
#include "util/thread_safety.hpp"

namespace fleda {
namespace {

// Cost-model cache sizes. Deliberately compile-time constants (not
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

bool host_has_avx2() {
#if FLEDA_X86_KERNELS
  // Checks the CPUID bit and that the OS saves the YMM state.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
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

const char* to_string(GemmStrategy strategy) {
  switch (strategy) {
    case GemmStrategy::kReference:
      return "reference";
    case GemmStrategy::kPacked:
      return "packed";
  }
  return "?";
}

const char* to_string(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return "portable";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "?";
}

bool kernel_isa_supported(KernelIsa isa) {
  static const bool avx2 = host_has_avx2();
  return isa == KernelIsa::kPortable || (isa == KernelIsa::kAvx2 && avx2);
}

KernelIsa kernel_isa() {
  int isa = g_kernel_isa.load(std::memory_order_relaxed);
  if (isa < 0) {
    isa = static_cast<int>(kernel_isa_supported(KernelIsa::kAvx2)
                               ? KernelIsa::kAvx2
                               : KernelIsa::kPortable);
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

std::string GemmPlan::to_string() const {
  std::string s = "gemm(";
  s += fleda::to_string(shape.op);
  s += ", m=" + std::to_string(shape.m) + ", k=" + std::to_string(shape.k) +
       ", n=" + std::to_string(shape.n) + ") -> ";
  s += fleda::to_string(strategy);
  if (strategy == GemmStrategy::kPacked) {
    s += "{mc=" + std::to_string(mc) + ", nc=" + std::to_string(nc) + "}";
  }
  s += " on ";
  s += fleda::to_string(isa);
  return s;
}

GemmPlan make_gemm_plan(GemmOp op, std::int64_t m, std::int64_t k,
                        std::int64_t n) {
  GemmPlan plan;
  plan.shape = GemmShape{op, m, k, n};
  plan.flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n);
  plan.isa = kernel_isa();

  // Packing pays for itself only when the B panels are reused across
  // several MR row-panels and the accumulator tile runs long enough in
  // k. Skinny shapes (vector-matrix products, rank-1 updates, tiny
  // tails) stay on the reference row kernels, which stream those
  // shapes at close to memory speed already — and at k < ~48 the
  // reference kernels keep the whole B slab L1-resident per output row,
  // which packing cannot beat (measured: the k=32 deconv GEMM runs
  // 20% faster on reference).
  const bool fat = m >= 2 * kGemmMR && n >= 2 * kGemmNR && k >= 48 &&
                   m * k * n >= 32 * 1024;
  if (!fat) {
    plan.strategy = GemmStrategy::kReference;
    return plan;
  }

  plan.strategy = GemmStrategy::kPacked;
  // NC: the packed B block (KC x nc floats) should occupy at most half
  // of L2, so it survives the sweep over all row panels.
  const std::int64_t kc = std::min(k, kGemmKC);
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

namespace {

constexpr std::size_t kNumShards = 8;

std::size_t shard_index(const GemmShape& s) {
  // FNV-1a over the shape fields; shard by the low bits.
  std::uint64_t h = 1469598103934665603ull;
  const std::uint64_t fields[4] = {
      static_cast<std::uint64_t>(s.op), static_cast<std::uint64_t>(s.m),
      static_cast<std::uint64_t>(s.k), static_cast<std::uint64_t>(s.n)};
  for (std::uint64_t f : fields) {
    h ^= f;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % kNumShards);
}

// Per-thread memo of the most recent plans: the per-sample GEMM loops
// of a conv layer hit the same handful of shapes thousands of times,
// and this keeps even the shared-lock acquisition off that path. The
// epoch invalidates every memo when a cache is cleared.
struct PlanMemoEntry {
  const void* cache = nullptr;
  std::uint64_t epoch = 0;
  GemmShape shape;
  GemmPlan plan;
  bool valid = false;
};

constexpr std::size_t kMemoSlots = 4;

thread_local PlanMemoEntry t_plan_memo[kMemoSlots];
thread_local std::size_t t_plan_memo_next = 0;

std::atomic<std::uint64_t> g_plan_epoch{1};

}  // namespace

struct KernelPlanCache::Shard {
  mutable SharedMutex mutex;
  // Insertion-ordered (deque front = oldest) for FIFO eviction; linear
  // search is fine at these sizes (a run holds tens of shapes).
  std::deque<std::pair<GemmShape, GemmPlan>> entries FLEDA_GUARDED_BY(mutex);
  // Stats are atomics precisely so the read paths can bump them under
  // only the shared (reader) lock.
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
};

KernelPlanCache::KernelPlanCache(std::size_t capacity_per_shard)
    : shards_(new Shard[kNumShards]),
      capacity_per_shard_(capacity_per_shard > 0 ? capacity_per_shard : 1) {}

KernelPlanCache::~KernelPlanCache() {
  delete[] shards_;
  // A later cache may reuse this address; the epoch bump keeps stale
  // thread-local memo entries from answering for it.
  g_plan_epoch.fetch_add(1, std::memory_order_acq_rel);
}

KernelPlanCache& KernelPlanCache::global() {
  static KernelPlanCache cache;
  return cache;
}

GemmPlan KernelPlanCache::lookup_or_plan(const GemmShape& shape) {
  Shard& shard = shards_[shard_index(shape)];
  {
    SharedReaderLock lock(shard.mutex);
    for (const auto& entry : shard.entries) {
      if (entry.first == shape) {
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        return entry.second;
      }
    }
  }
  // Miss: plan outside any lock (the cost model is pure), then insert
  // under the exclusive lock, rechecking for a racing inserter.
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  GemmPlan plan;
  {
    ProfileScope planning(phase::kKernelPlan);
    plan = make_gemm_plan(shape.op, shape.m, shape.k, shape.n);
  }
  SharedWriterLock lock(shard.mutex);
  for (const auto& entry : shard.entries) {
    if (entry.first == shape) return entry.second;
  }
  shard.entries.emplace_back(shape, plan);
  while (shard.entries.size() > capacity_per_shard_) {
    shard.entries.pop_front();
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return plan;
}

GemmPlan KernelPlanCache::plan_for(GemmOp op, std::int64_t m, std::int64_t k,
                                   std::int64_t n) {
  GemmPlan plan = cached_plan(GemmShape{op, m, k, n});
  plan.isa = kernel_isa();
  return plan;
}

GemmPlan KernelPlanCache::cached_plan(const GemmShape& shape) {
  const std::uint64_t epoch = g_plan_epoch.load(std::memory_order_acquire);
  for (const PlanMemoEntry& memo : t_plan_memo) {
    if (memo.valid && memo.cache == this && memo.epoch == epoch &&
        memo.shape == shape) {
      // A memo hit is logically a cache hit; one relaxed add keeps the
      // stats honest without taking any lock.
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      return memo.plan;
    }
  }
  GemmPlan plan = lookup_or_plan(shape);
  PlanMemoEntry& slot = t_plan_memo[t_plan_memo_next];
  t_plan_memo_next = (t_plan_memo_next + 1) % kMemoSlots;
  slot.cache = this;
  slot.epoch = epoch;
  slot.shape = shape;
  slot.plan = plan;
  slot.valid = true;
  return plan;
}

PlanCacheStats KernelPlanCache::stats() const {
  PlanCacheStats stats;
  stats.hits = memo_hits_.load(std::memory_order_relaxed);
  for (std::size_t s = 0; s < kNumShards; ++s) {
    const Shard& shard = shards_[s];
    stats.hits += shard.hits.load(std::memory_order_relaxed);
    stats.misses += shard.misses.load(std::memory_order_relaxed);
    stats.evictions += shard.evictions.load(std::memory_order_relaxed);
    SharedReaderLock lock(shard.mutex);
    stats.entries += shard.entries.size();
  }
  return stats;
}

void KernelPlanCache::clear() {
  for (std::size_t s = 0; s < kNumShards; ++s) {
    Shard& shard = shards_[s];
    SharedWriterLock lock(shard.mutex);
    shard.entries.clear();
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.evictions.store(0, std::memory_order_relaxed);
  }
  memo_hits_.store(0, std::memory_order_relaxed);
  g_plan_epoch.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace fleda
