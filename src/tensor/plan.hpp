// Shape-keyed kernel planner for the dense GEMM family.
//
// Every matmul / matmul_at / matmul_bt call consults a KernelPlanCache
// keyed by (op, m, k, n): the first call for a shape runs a small cost
// model (shape vs the L1/L2 working sets) and decides between the
// row-streaming kernels ("reference" — best for skinny shapes) and a
// packed cache-blocked GEMM ("packed" — B panels packed into aligned
// scratch, a register-tiled MR x NR micro-kernel, and MC/KC/NC cache
// blocking). The decision is cached and reused for the rest of the
// process, which is the poplibs ConvPlan/ConvReuse pattern: conv layer
// shapes never change across a federated run, so the planning cost is
// paid once per shape, not once per step.
//
// One summation order: every strategy — packed, reference, and the
// direct conv kernels (tensor/conv_direct.hpp) — computes each output
// element the same way. k is split into slices of KC = min(k, kGemmKC);
// each slice sums +0, then + a*b for p ascending, one rounded product
// per step (mul then add, never a fused multiply-add); the first slice
// is stored (or added, when accumulating) and each later slice is added
// in ascending order. So the strategy a plan picks changes speed, never
// bits.
//
// Instruction set: every float kernel (the packed micro-kernel, the
// reference row kernels, the direct conv kernels, the sort_lanes
// network) has a portable body and, on x86, an AVX2 body; kernel_isa()
// picks one at run time from the host's CPUID, once per process. The
// AVX2 bodies are compiled with target("avx2") and never with "fma",
// and they keep the order above, so the ISA changes speed, never bits.
// Non-x86 builds compile only the portable bodies.
//
// Determinism contract: a plan is a pure function of the shape (never
// of the thread-pool size), and no kernel's order depends on how its
// rows are partitioned — so results are bit-identical across
// thread-pool sizes, instruction sets and strategies.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define FLEDA_X86_KERNELS 1
// An AVX2 kernel body. Never add "fma": contraction would change bits.
#define FLEDA_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define FLEDA_X86_KERNELS 0
#endif

namespace fleda {

// Which logical GEMM a plan serves. The operand layout is implied:
//   kNN: C[m,n] = A[m,k]   * B[k,n]    (A row-major [m,k], B [k,n])
//   kAT: C[m,n] = A^T      * B[k,n]    (A stored [k,m],    B [k,n])
//   kBT: C[m,n] = A[m,k]   * B^T       (A row-major [m,k], B stored [n,k])
enum class GemmOp : std::uint8_t { kNN = 0, kAT = 1, kBT = 2 };
const char* to_string(GemmOp op);

enum class GemmStrategy : std::uint8_t { kReference = 0, kPacked = 1 };
const char* to_string(GemmStrategy strategy);

// The instruction set the float kernels run. kAvx2 needs an x86 host
// whose CPU (and OS) support AVX2; everything else runs kPortable.
enum class KernelIsa : std::uint8_t { kPortable = 0, kAvx2 = 1 };
const char* to_string(KernelIsa isa);
bool kernel_isa_supported(KernelIsa isa);  // by this host and build
// The best supported ISA, probed once; set_kernel_isa() overrides it.
KernelIsa kernel_isa();
// Test seam: pins the ISA (e.g. kPortable to compare against AVX2).
// Throws std::invalid_argument for an ISA this host cannot run.
void set_kernel_isa(KernelIsa isa);

// Register micro-tile of the packed kernel: MR rows x NR columns of C
// held in accumulators across a whole KC slice.
inline constexpr std::int64_t kGemmMR = 4;
inline constexpr std::int64_t kGemmNR = 8;
// Depth of one summation slice, for every strategy (see above). One A
// micro-panel plus one B micro-panel, (MR + NR) * KC floats, fills the
// 32 KiB L1 the packed kernel is blocked for. Part of the bits: changing
// it changes results.
inline constexpr std::int64_t kGemmKC = 680;

struct GemmShape {
  GemmOp op = GemmOp::kNN;
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;

  bool operator==(const GemmShape& other) const {
    return op == other.op && m == other.m && k == other.k && n == other.n;
  }
};

struct GemmPlan {
  GemmShape shape;
  GemmStrategy strategy = GemmStrategy::kReference;
  // Cache blocking (packed strategy only): MR/NR multiples. The depth
  // blocking is kGemmKC for every plan.
  std::int64_t mc = 0;
  std::int64_t nc = 0;
  double flops = 0.0;  // 2*m*k*n, for bench reporting
  // The ISA the kernels run under; stamped from kernel_isa() whenever a
  // plan is made or handed out, so it is not part of the cached choice.
  KernelIsa isa = KernelIsa::kPortable;

  std::string to_string() const;
};

// The cost model: pure function of shape (and compile-time cache-size
// constants), never of thread count or environment. Exposed so tests
// and benches can force strategies without going through the cache.
GemmPlan make_gemm_plan(GemmOp op, std::int64_t m, std::int64_t k,
                        std::int64_t n);

// The packed plan for a shape, with the blocking make_gemm_plan gives
// the shapes it packs, whatever the cost model would choose; also a
// pure function of shape, and not cached. The conv GEMMs whose B is
// read in place from a padded image (ImplicitCols, tensor/conv_gemm.hpp)
// always pack: the reference strategy would first have to write the
// whole column matrix, which costs what packing it does, and then
// stream it once per row of C. Same bits either way.
GemmPlan make_packed_plan(GemmOp op, std::int64_t m, std::int64_t k,
                          std::int64_t n);

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

// Sharded, read-mostly plan cache. Lookups take a shared lock on one
// shard (readers never serialize each other) after a thread-local memo
// of the most recent shapes, so the per-matmul overhead in a
// parallel_for worker is a handful of loads. Plans are returned by
// value — eviction can never dangle a caller's plan.
class KernelPlanCache {
 public:
  // `capacity_per_shard` bounds each shard; the oldest entry is evicted
  // (FIFO) when a shard overflows. The default is far above what any
  // real model needs (a run has tens of distinct GEMM shapes).
  explicit KernelPlanCache(std::size_t capacity_per_shard = 64);
  ~KernelPlanCache();

  KernelPlanCache(const KernelPlanCache&) = delete;
  KernelPlanCache& operator=(const KernelPlanCache&) = delete;

  static KernelPlanCache& global();

  // The plan for a shape under the current KernelIsa: consults the
  // cache and runs the cost model on a miss (inside a kernel/plan
  // profiler span).
  GemmPlan plan_for(GemmOp op, std::int64_t m, std::int64_t k,
                    std::int64_t n);

  PlanCacheStats stats() const;

  // Drops every entry and zeroes the stats; invalidates the per-thread
  // memos via an epoch bump. Not for hot paths.
  void clear();

 private:
  struct Shard;
  GemmPlan cached_plan(const GemmShape& shape);
  GemmPlan lookup_or_plan(const GemmShape& shape);

  Shard* shards_;
  std::size_t capacity_per_shard_;
  std::atomic<std::uint64_t> memo_hits_{0};
};

// ---------------------------------------------------------------------
// Packed kernel entry points (gemm_packed.cpp). All of them require
// plan.strategy == kPacked and operate on the layouts implied by
// plan.shape.op.

// Elements (floats) of a fully packed A operand for `plan` — the
// zero-padded MR micro-panel layout reused across many GEMM calls
// (conv packs its weight matrix once per step and shares the panels
// across the whole batch).
std::size_t packed_a_elems(const GemmPlan& plan);

// Packs the whole A operand into `apack` (packed_a_elems floats,
// ideally 64-byte aligned). Rows beyond m inside the last MR panel are
// zero-filled.
void pack_a(const GemmPlan& plan, const float* a, float* apack);

// C = A*B (+C when accumulate) under `plan`. Packs B panels into the
// calling thread's aligned scratch and A micro-panels on the fly.
void gemm_packed(const GemmPlan& plan, const float* a, const float* b,
                 float* c, bool accumulate);

// Same, but A was packed up front with pack_a (shared, read-only —
// safe to use concurrently from batch-parallel workers).
void gemm_packed_prepacked_a(const GemmPlan& plan, const float* apack,
                             const float* b, float* c, bool accumulate);

// A conv's column matrix, read in place from one zero-padded sample:
//   cols(r, q) = padded[row_offset[r] + pixel_offset[q]]
// for weight row r = (c, kh, kw) and output pixel q. That is im2col's
// cols[r][q], so packing B panels from here gives the panels — and the
// bits — that packing a materialized cols would, without writing it.
// ConvIndex (tensor/im2col.hpp) builds the two tables.
struct ImplicitCols {
  const float* padded = nullptr;
  const std::int64_t* row_offset = nullptr;
  const std::int64_t* pixel_offset = nullptr;
};

// The two conv GEMMs whose B is the column matrix: the forward
// (kNN, B = cols [rows, pixels]) and the weight gradient (kBT,
// B stored [n, k] = cols). A is either raw (`a`, packed on the fly) or
// prepacked with pack_a (`apack`); pass nullptr for the other.
// Only C's columns [col_begin, col_end) are computed and written (pass
// 0, n for all of C); a C element's bits do not depend on the range
// it was computed in, so a weight gradient can be split across the
// pool by columns. Throws std::invalid_argument for kAT plans and for
// a range outside [0, n].
void gemm_packed_implicit(const GemmPlan& plan, const float* a,
                          const float* apack, const ImplicitCols& b,
                          float* c, bool accumulate, std::int64_t col_begin,
                          std::int64_t col_end);

}  // namespace fleda
