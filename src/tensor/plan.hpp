// Shape-keyed plans for the packed GEMM, the one dense GEMM driver.
//
// make_gemm_plan gives a shape its cache blocking: B packed into
// aligned NR-wide micro-panels, a register-tiled MR x NR micro-kernel,
// and MC/KC/NC blocks (tensor/gemm_packed.cpp). Every GEMM of the conv
// layers runs one, built per call inside their lowering
// (tensor/conv_gemm.hpp). Their weight gradient runs as cols * dy^T,
// the column matrix read in place as the A operand
// (gemm_packed_implicit_a), so at stride 1 no conv GEMM gathers its B
// operand. matmul / matmul_at / matmul_bt (tensor/matmul.hpp) look the
// same plans up in a KernelPlanCache keyed by (op, m, k, n).
//
// One summation order: the packed GEMM and the direct conv kernels
// (tensor/conv_direct.hpp) compute each output element the same way.
// k is split into slices of KC = min(k, kGemmKC); each slice sums +0,
// then + a*b for p ascending, one rounded product per step (mul then
// add, never a fused multiply-add); the first slice is stored (or
// added, when accumulating) and each later slice is added in ascending
// order. So the blocking a plan picks, and the operand
// form a conv GEMM reads, change speed, never bits.
//
// Instruction set: every float kernel (the packed micro-kernel, the
// direct conv kernels, the sort_lanes network) has a portable body
// and, on x86, an AVX2 and an AVX-512 body; kernel_isa() picks the
// best one the host runs (avx512, else avx2, else portable) from its
// CPUID, once per process. Every body keeps the order above with one
// IEEE operation per lane, and none contracts a multiply and an add
// into a fused multiply-add, so the ISA changes speed, never bits.
// AVX2 cannot contract: its bodies are compiled with target("avx2"),
// which brings no FMA. AVX-512F does bring FMA, and GCC at its default
// -ffp-contract=fast turns
// _mm512_add_ps(c, _mm512_mul_ps(a, b)) — or c + a * b on vector
// types — into vfmadd. So every AVX-512 body goes through
// FLEDA_TARGET_AVX512, which switches contraction off in the source:
// optimize("fp-contract=off") on GCC, a file-scope FP_CONTRACT pragma
// on Clang (which ignores optimize). The no_fused_instructions ctest
// (ci/no_fused_instructions.py) disassembles the built library and
// fails on any fused multiply-add instruction in it.
// Non-x86 builds compile only the portable bodies.
//
// Determinism contract: a plan is a pure function of the shape (never
// of the thread-pool size), and no kernel's order depends on how its
// rows are partitioned — so results are bit-identical across
// thread-pool sizes and instruction sets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_safety.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FLEDA_X86_KERNELS 1
// An AVX2 kernel body. Never add "fma": contraction would change bits.
#define FLEDA_TARGET_AVX2 __attribute__((target("avx2")))
// An AVX-512 kernel body: AVX-512F implies FMA, so contraction is
// switched off with it. The only sanctioned way to target AVX-512
// (ci/fleda_lint.py's fp-contract rule rejects a bare target).
#if defined(__clang__)
// Clang ignores optimize(...); the pragma holds to the end of every
// translation unit that includes this header.
#pragma clang fp contract(off)
#define FLEDA_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define FLEDA_TARGET_AVX512 \
  __attribute__((target("avx512f"), optimize("fp-contract=off")))
#endif
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

// The instruction set the float kernels run. kAvx2 and kAvx512 need an
// x86 host whose CPU (and OS) support AVX2 or AVX-512F; everything
// else runs kPortable.
enum class KernelIsa : std::uint8_t { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };
const char* to_string(KernelIsa isa);
bool kernel_isa_supported(KernelIsa isa);  // by this host and build
// Every ISA this host and build run, kPortable first, best last.
std::vector<KernelIsa> supported_isas();
// The best supported ISA, probed once; set_kernel_isa() overrides it.
KernelIsa kernel_isa();
// Test seam: pins the ISA (e.g. kPortable to compare against AVX2).
// Throws std::invalid_argument for an ISA this host cannot run.
void set_kernel_isa(KernelIsa isa);
// Floats per vector of an ISA's kernels: 4 portable (one SSE/NEON
// register), 8 avx2, 16 avx512. The direct conv's dW runs its lanes
// across that many channels.
std::int64_t kernel_lanes(KernelIsa isa);
// Columns of C one packed micro-kernel call steps under an ISA: NR
// portable, 2 NR avx2, 4 NR avx512; and rows: MR portable and avx2,
// 2 MR avx512.
std::int64_t gemm_kernel_columns(KernelIsa isa);
std::int64_t gemm_kernel_rows(KernelIsa isa);

// Micro-panels of the packed kernel: A is packed MR rows and B NR
// columns wide. A micro-kernel call holds a register tile of C, one or
// more micro-panels each way (see gemm_kernel_columns), in accumulators
// across a whole KC slice. Layout, not bits.
inline constexpr std::int64_t kGemmMR = 4;
inline constexpr std::int64_t kGemmNR = 8;
// Depth of one summation slice, for every kernel (see above). One A
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
  // Cache blocking: MR/NR multiples. The depth blocking is kGemmKC for
  // every plan.
  std::int64_t mc = 0;
  std::int64_t nc = 0;
  // The ISA the kernels run under; stamped from kernel_isa() whenever a
  // plan is made or handed out, so it is not part of the cached choice.
  KernelIsa isa = KernelIsa::kPortable;

  std::string to_string() const;
};

// The packed plan for a shape: a pure function of the shape (and
// compile-time cache-size constants), never of thread count or
// environment. Any k >= 0 works; at k = 0 the packed GEMM stores +0
// (or leaves C as it was, when accumulating).
GemmPlan make_gemm_plan(GemmOp op, std::int64_t m, std::int64_t k,
                        std::int64_t n);

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
};

// make_gemm_plan's plans, kept by shape. Only matmul, matmul_at and
// matmul_bt look plans up here; the conv layers build their plans
// directly. So a run holds a handful of shapes, and one mutex over a
// short vector serves them. Plans are returned by value.
class KernelPlanCache {
 public:
  KernelPlanCache() = default;
  KernelPlanCache(const KernelPlanCache&) = delete;
  KernelPlanCache& operator=(const KernelPlanCache&) = delete;

  static KernelPlanCache& global();

  // The plan for a shape under the current KernelIsa: consults the
  // cache and runs make_gemm_plan on a miss (inside a kernel/plan
  // profiler span).
  GemmPlan plan_for(GemmOp op, std::int64_t m, std::int64_t k,
                    std::int64_t n);

  PlanCacheStats stats() const;

  // Drops every entry and zeroes the stats.
  void clear();

 private:
  mutable Mutex mutex_;
  std::vector<std::pair<GemmShape, GemmPlan>> entries_
      FLEDA_GUARDED_BY(mutex_);
  std::uint64_t hits_ FLEDA_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ FLEDA_GUARDED_BY(mutex_) = 0;
};

// ---------------------------------------------------------------------
// Packed kernel entry points (gemm_packed.cpp). All of them operate on
// the layouts implied by plan.shape.op.

// Elements (floats) of a fully packed A operand for `plan` — the
// zero-padded MR micro-panel layout reused across many GEMM calls
// (conv packs its weight matrix once per step and shares the panels
// across the whole batch).
std::size_t packed_a_elems(const GemmPlan& plan);

// Packs the whole A operand into `apack` (packed_a_elems floats,
// ideally 64-byte aligned). Rows beyond m inside the last MR panel are
// zero-filled. Given `column`, A is gathered as it is packed, A(i, p)
// = a[i * row_stride + column[p]], whatever the plan's op.
void pack_a(const GemmPlan& plan, const float* a, float* apack,
            const std::int64_t* column = nullptr,
            std::int64_t row_stride = 0);

// C = A*B (+C when accumulate) under `plan`. Packs B panels into the
// calling thread's aligned scratch and A micro-panels on the fly.
void gemm_packed(const GemmPlan& plan, const float* a, const float* b,
                 float* c, bool accumulate);

// A conv's column matrix, read in place from one zero-padded sample:
//   cols(r, q) = padded[row_offset[r] + pixel_offset[q]]
// for weight row r = (c, kh, kw) and output pixel q. That is im2col's
// cols[r][q], so an operand taken from here — a B panel packed or read
// where it lies, or A read in place — holds the values, and gives the
// bits, that a materialized cols would, without writing it. ConvIndex
// (tensor/im2col.hpp) builds the two tables; pixel_offset strictly
// increases with q.
struct ImplicitCols {
  const float* padded = nullptr;
  const std::int64_t* row_offset = nullptr;
  const std::int64_t* pixel_offset = nullptr;
};

// Whether gemm_packed_implicit reads B over C's columns
// [col_begin, col_end) in place instead of packing it: every kGemmNR
// column panel of the range is a run of adjacent pixels
// (pixel_offset[j0 + NR - 1] - pixel_offset[j0] == NR - 1). Holds for a
// stride-1 conv whose output width is a multiple of kGemmNR; a stride-2
// conv, or an output width like 12, gathers its panels.
bool implicit_b_in_place(const ImplicitCols& b, std::int64_t col_begin,
                         std::int64_t col_end);

// The conv GEMM of the forward's form (kNN, B = cols [rows, pixels];
// read in place when implicit_b_in_place, else gathered into packed
// panels): the forward, a stride-1 dX and the deconv's dX. A is either
// raw (`a`, packed on the fly) or prepacked with pack_a (`apack`); pass
// nullptr for the other.
// Only C's columns [col_begin, col_end) are computed and written (pass
// 0, n for all of C); a C element's bits do not depend on the range
// it was computed in. Throws std::invalid_argument for a plan that is
// not kNN and for a range outside [0, n].
void gemm_packed_implicit(const GemmPlan& plan, const float* a,
                          const float* apack, const ImplicitCols& b,
                          float* c, bool accumulate, std::int64_t col_begin,
                          std::int64_t col_end);

// Elements (floats) of a kBT plan's B operand packed whole, every KC
// slice of it, by pack_b: slice pc's micro-panels, in pairs of two
// NR-wide panels (2 NR floats per depth step, zero-padded past n), start
// at bpack + pc * round_up(n, 2 NR).
std::size_t packed_b_elems(const GemmPlan& plan);

// Packs a kBT plan's whole B operand (stored [n, k]) into `bpack`
// (packed_b_elems floats), on the calling thread. Throws
// std::invalid_argument for any other plan.
void pack_b(const GemmPlan& plan, const float* b, float* bpack);

// The conv weight gradient's GEMM, with a column matrix as A: under a
// kBT plan (m = rows, k = pixels, n = channels),
//   C += cols[m, k] * B^T,   B stored [n, k], packed with pack_b,
// with cols read in place from `a` (A(i, p) = cols(i, p), at any stride
// and width: the micro-kernel broadcasts A one scalar at a time, so it
// needs no contiguity) and C stored transposed, C(i, j) at c[j * m + i]
// (the weight gradient [n, m]). Every KC slice is added to C, in
// ascending order; the bits are those of accumulating
// B * cols^T into c with gemm_packed. Only C's rows
// [row_begin, row_end) are computed, on the calling thread; a C
// element's bits do not depend on the range. Throws
// std::invalid_argument for a plan that is not kBT and for a range
// outside [0, m].
void gemm_packed_implicit_a(const GemmPlan& plan, const ImplicitCols& a,
                            const float* bpack, float* c,
                            std::int64_t row_begin, std::int64_t row_end);

}  // namespace fleda
