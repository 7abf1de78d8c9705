// Packed cache-blocked GEMM — the planner's "fat shape" strategy.
//
// Classic three-loop blocking (the BLIS/poplibs structure):
//
//   for jc over n in NC columns:                 L2-resident B block
//     for pc over k in KC = kGemmKC depth slices:
//       pack B(pc:kc, jc:nc) into NR-wide micro-panels (aligned scratch)
//       parallel_for over MR row panels:         deterministic partition
//         pack A(panel, pc:kc) into an MR-wide micro-panel
//         for each B micro-panel: MR x NR register tile over kc,
//           then store (pc == 0) or accumulate (pc > 0) into C
//
// B comes either from memory in the plan's layout or, for the conv
// GEMMs, straight from a padded image through ImplicitCols: both pack
// the same panels, so the column matrix never has to exist.
//
// Micro-kernels: a portable one (scalar C++ left to the compiler's
// vectorizer) and, on x86 hosts with AVX2, one that holds each tile row
// in a __m256 and steps two B micro-panels per call (eight independent
// accumulators hide the add latency). Both compute each KC slice of a
// C element as +0, then + a*b for p ascending, each product rounded
// before the sum (mul then add, never a fused multiply-add), and add
// the slices in ascending pc order: the one order of tensor/plan.hpp,
// so the results are the reference kernels' bits at every thread-pool
// size and kernel ISA.
//
// Zero-padding contract: the packing routines zero-fill the MR/NR
// tails, so the micro-kernel always runs full tiles; only the valid
// mr x nr region is written back to C.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/profiler.hpp"
#include "tensor/plan.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

#if FLEDA_X86_KERNELS
#include <immintrin.h>
#endif

namespace fleda {
namespace {

constexpr std::int64_t MR = kGemmMR;
constexpr std::int64_t NR = kGemmNR;

// A(i, p) under the plan's A layout.
inline std::int64_t a_index(GemmOp op, std::int64_t m, std::int64_t k,
                            std::int64_t i, std::int64_t p) {
  return op == GemmOp::kAT ? p * m + i : i * k + p;
}

// Packs A rows [i0, i0 + mr) x depth [pc, pc + kc) into an MR-wide
// micro-panel: dst[p * MR + r] = A(i0 + r, pc + p), zero-padded rows.
void pack_a_panel(GemmOp op, const float* a, std::int64_t m, std::int64_t k,
                  std::int64_t i0, std::int64_t mr, std::int64_t pc,
                  std::int64_t kc, float* dst) {
  if (op == GemmOp::kAT) {
    // A stored [k, m]: one contiguous MR run per depth step.
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* src = a + (pc + p) * m + i0;
      float* out = dst + p * MR;
      std::int64_t r = 0;
      for (; r < mr; ++r) out[r] = src[r];
      for (; r < MR; ++r) out[r] = 0.0f;
    }
    return;
  }
  // A stored [m, k]: one contiguous kc run per row.
  for (std::int64_t r = 0; r < mr; ++r) {
    const float* src = a + (i0 + r) * k + pc;
    for (std::int64_t p = 0; p < kc; ++p) dst[p * MR + r] = src[p];
  }
  for (std::int64_t r = mr; r < MR; ++r) {
    for (std::int64_t p = 0; p < kc; ++p) dst[p * MR + r] = 0.0f;
  }
}

// Packs B depth [pc, pc + kc) x columns [j0, j0 + nr) into an NR-wide
// micro-panel: dst[p * NR + j] = B(pc + p, j0 + j), zero-padded cols.
void pack_b_panel(GemmOp op, const float* b, std::int64_t k, std::int64_t n,
                  std::int64_t pc, std::int64_t kc, std::int64_t j0,
                  std::int64_t nr, float* dst) {
  if (op == GemmOp::kBT) {
    // B stored [n, k]: one contiguous kc run per column.
    for (std::int64_t j = 0; j < nr; ++j) {
      const float* src = b + (j0 + j) * k + pc;
      for (std::int64_t p = 0; p < kc; ++p) dst[p * NR + j] = src[p];
    }
    for (std::int64_t j = nr; j < NR; ++j) {
      for (std::int64_t p = 0; p < kc; ++p) dst[p * NR + j] = 0.0f;
    }
    return;
  }
  // B stored [k, n]: one contiguous NR run per depth step.
  (void)k;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* src = b + (pc + p) * n + j0;
    float* out = dst + p * NR;
    std::int64_t j = 0;
    for (; j < nr; ++j) out[j] = src[j];
    for (; j < NR; ++j) out[j] = 0.0f;
  }
}

// The same panel as pack_b_panel would pack from a materialized column
// matrix, gathered from the padded image instead.
void pack_b_panel_implicit(GemmOp op, const ImplicitCols& b, std::int64_t pc,
                           std::int64_t kc, std::int64_t j0, std::int64_t nr,
                           float* dst) {
  if (op == GemmOp::kBT) {
    // B(p, j) = cols(j0 + j, pc + p): one weight row per column. The
    // panel is written in order, one depth step of NR floats at a time
    // (~3x faster than a column at a time, whose stores stride by NR);
    // a full panel gets a fixed-width inner loop the compiler unrolls.
    const std::int64_t* px = b.pixel_offset + pc;
    const float* src[NR];
    for (std::int64_t j = 0; j < nr; ++j) {
      src[j] = b.padded + b.row_offset[j0 + j];
    }
    if (nr == NR) {
      for (std::int64_t p = 0; p < kc; ++p) {
        for (std::int64_t j = 0; j < NR; ++j) dst[p * NR + j] = src[j][px[p]];
      }
      return;
    }
    for (std::int64_t p = 0; p < kc; ++p) {
      std::int64_t j = 0;
      for (; j < nr; ++j) dst[p * NR + j] = src[j][px[p]];
      for (; j < NR; ++j) dst[p * NR + j] = 0.0f;
    }
    return;
  }
  // B(p, j) = cols(pc + p, j0 + j): one weight row per depth step. A
  // full panel of pixels on one output row at stride 1 is a contiguous
  // run of the padded row (offsets strictly increase along a row).
  const std::int64_t* px = b.pixel_offset + j0;
  const bool run = nr == NR && px[NR - 1] - px[0] == NR - 1;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* src = b.padded + b.row_offset[pc + p];
    float* out = dst + p * NR;
    if (run) {
      std::memcpy(out, src + px[0], sizeof(float) * NR);
      continue;
    }
    std::int64_t j = 0;
    for (; j < nr; ++j) out[j] = src[px[j]];
    for (; j < NR; ++j) out[j] = 0.0f;
  }
}

// One micro-kernel call covers `panels` consecutive B micro-panels
// (panel t at bp + t * kc * NR) against one A micro-panel, writing the
// valid mr x nr region of C (nr <= panels * NR).
struct MicroKernel {
  void (*run)(const float* ap, const float* bp, std::int64_t kc, float* c,
              std::int64_t ldc, std::int64_t mr, std::int64_t nr,
              bool accumulate);
  std::int64_t panels;
};

// MR x NR register tile: acc += sum_p apanel[p][*] (x) bpanel[p][*],
// then stored or accumulated into the valid mr x nr region of C.
void micro_kernel_portable(const float* __restrict ap,
                           const float* __restrict bp, std::int64_t kc,
                           float* __restrict c, std::int64_t ldc,
                           std::int64_t mr, std::int64_t nr, bool accumulate) {
  float acc[MR * NR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict arow = ap + p * MR;
    const float* __restrict brow = bp + p * NR;
    for (std::int64_t r = 0; r < MR; ++r) {
      const float av = arow[r];
      float* __restrict accrow = acc + r * NR;
      for (std::int64_t j = 0; j < NR; ++j) accrow[j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* accrow = acc + r * NR;
    if (accumulate) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += accrow[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = accrow[j];
    }
  }
}

#if FLEDA_X86_KERNELS

// Writes the first `nr` (<= NR) lanes of one accumulator row to C.
FLEDA_TARGET_AVX2 inline void store_row_avx2(float* crow, __m256 acc,
                                             std::int64_t nr,
                                             bool accumulate) {
  if (nr == NR) {
    if (accumulate) acc = _mm256_add_ps(_mm256_loadu_ps(crow), acc);
    _mm256_storeu_ps(crow, acc);
    return;
  }
  alignas(32) float lanes[NR];
  _mm256_store_ps(lanes, acc);
  if (accumulate) {
    for (std::int64_t j = 0; j < nr; ++j) crow[j] += lanes[j];
  } else {
    for (std::int64_t j = 0; j < nr; ++j) crow[j] = lanes[j];
  }
}

// MR x 2NR tile (two B micro-panels) in eight __m256 accumulators;
// a single-panel call (nr <= NR) runs the MR x NR half alone. The
// accumulators are named locals, not arrays: indexing an array by the
// runtime mr at write-back makes the compiler store every accumulator
// on every depth step.
FLEDA_TARGET_AVX2 void micro_kernel_avx2(const float* ap, const float* bp,
                                         std::int64_t kc, float* c,
                                         std::int64_t ldc, std::int64_t mr,
                                         std::int64_t nr, bool accumulate) {
  static_assert(MR == 4, "one named accumulator per tile row");
  if (nr <= NR) {
    __m256 c0 = _mm256_setzero_ps(), c1 = c0, c2 = c0, c3 = c0;
    for (std::int64_t p = 0; p < kc; ++p) {
      const __m256 b = _mm256_loadu_ps(bp + p * NR);
      const float* a = ap + p * MR;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(a), b));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(a + 1), b));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(a + 2), b));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(a + 3), b));
    }
    const __m256 rows[MR] = {c0, c1, c2, c3};
    for (std::int64_t r = 0; r < mr; ++r) {
      store_row_avx2(c + r * ldc, rows[r], nr, accumulate);
    }
    return;
  }
  const float* bp1 = bp + kc * NR;
  __m256 c0 = _mm256_setzero_ps(), c1 = c0, c2 = c0, c3 = c0;
  __m256 d0 = c0, d1 = c0, d2 = c0, d3 = c0;
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * NR);
    const __m256 b1 = _mm256_loadu_ps(bp1 + p * NR);
    const float* a = ap + p * MR;
    __m256 av = _mm256_broadcast_ss(a);
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, b0));
    d0 = _mm256_add_ps(d0, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a + 1);
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(av, b0));
    d1 = _mm256_add_ps(d1, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a + 2);
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(av, b0));
    d2 = _mm256_add_ps(d2, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a + 3);
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(av, b0));
    d3 = _mm256_add_ps(d3, _mm256_mul_ps(av, b1));
  }
  const __m256 left[MR] = {c0, c1, c2, c3};
  const __m256 right[MR] = {d0, d1, d2, d3};
  for (std::int64_t r = 0; r < mr; ++r) {
    store_row_avx2(c + r * ldc, left[r], NR, accumulate);
    store_row_avx2(c + r * ldc + NR, right[r], nr - NR, accumulate);
  }
}

#endif  // FLEDA_X86_KERNELS

MicroKernel micro_kernel_for(KernelIsa isa) {
#if FLEDA_X86_KERNELS
  if (isa == KernelIsa::kAvx2) return {micro_kernel_avx2, 2};
#endif
  (void)isa;
  return {micro_kernel_portable, 1};
}

// Exactly one of `b` (the plan's memory layout) and `implicit` (a conv
// column matrix read from its padded image) is set.
// Only C's columns [col_begin, col_end) are computed and written.
void gemm_packed_impl(const GemmPlan& plan, const float* a,
                      const float* apack_full, const float* b,
                      const ImplicitCols* implicit, float* c, bool accumulate,
                      std::int64_t col_begin, std::int64_t col_end) {
  const GemmOp op = plan.shape.op;
  const std::int64_t m = plan.shape.m;
  const std::int64_t k = plan.shape.k;
  const std::int64_t n = plan.shape.n;
  const std::int64_t kc_max = std::min(k, kGemmKC);
  const std::int64_t nc_max = plan.nc;
  const MicroKernel kernel = micro_kernel_for(plan.isa);

  // Shared packed-B block: panels are written disjointly by the packing
  // parallel_for and read-only during compute, all through the calling
  // thread's persistent aligned scratch.
  const std::size_t bpack_elems = static_cast<std::size_t>(
      ((nc_max + NR - 1) / NR) * NR * kc_max);
  float* bpack = thread_scratch_aligned(ScratchSlot::kPackB, bpack_elems);

  const std::int64_t mpanels = (m + MR - 1) / MR;
  const std::size_t mc_grain =
      static_cast<std::size_t>(std::max<std::int64_t>(1, plan.mc / MR));

  for (std::int64_t jc = col_begin; jc < col_end; jc += nc_max) {
    const std::int64_t nc = std::min(nc_max, col_end - jc);
    const std::int64_t npanels = (nc + NR - 1) / NR;
    for (std::int64_t pc = 0; pc < k; pc += kc_max) {
      const std::int64_t kc = std::min(kc_max, k - pc);
      {
        ProfileScope pack(phase::kKernelPack);
        parallel_for(
            static_cast<std::size_t>(npanels),
            [&](std::size_t begin, std::size_t end) {
              for (std::size_t jp = begin; jp < end; ++jp) {
                const std::int64_t j0 =
                    jc + static_cast<std::int64_t>(jp) * NR;
                const std::int64_t nr =
                    std::min<std::int64_t>(NR, jc + nc - j0);
                float* dst = bpack + static_cast<std::int64_t>(jp) * kc * NR;
                if (implicit != nullptr) {
                  pack_b_panel_implicit(op, *implicit, pc, kc, j0, nr, dst);
                } else {
                  pack_b_panel(op, b, k, n, pc, kc, j0, nr, dst);
                }
              }
            },
            /*grain=*/4);
      }
      const bool acc_c = accumulate || pc > 0;
      parallel_for(
          static_cast<std::size_t>(mpanels),
          [&](std::size_t begin, std::size_t end) {
            float* apanel = thread_scratch_aligned(
                ScratchSlot::kPackA, static_cast<std::size_t>(kc_max * MR));
            for (std::size_t ip = begin; ip < end; ++ip) {
              const std::int64_t i0 = static_cast<std::int64_t>(ip) * MR;
              const std::int64_t mr = std::min<std::int64_t>(MR, m - i0);
              const float* ap;
              if (apack_full != nullptr) {
                ap = apack_full + static_cast<std::int64_t>(ip) * k * MR +
                     pc * MR;
              } else {
                pack_a_panel(op, a, m, k, i0, mr, pc, kc, apanel);
                ap = apanel;
              }
              for (std::int64_t jp = 0; jp < npanels; jp += kernel.panels) {
                const std::int64_t j0 = jc + jp * NR;
                kernel.run(ap, bpack + jp * kc * NR, kc, c + i0 * n + j0, n,
                           mr,
                           std::min<std::int64_t>(kernel.panels * NR,
                                                  jc + nc - j0),
                           acc_c);
              }
            }
          },
          mc_grain);
    }
  }
}

}  // namespace

std::size_t packed_a_elems(const GemmPlan& plan) {
  const std::int64_t mpanels = (plan.shape.m + MR - 1) / MR;
  return static_cast<std::size_t>(mpanels * plan.shape.k * MR);
}

void pack_a(const GemmPlan& plan, const float* a, float* apack) {
  const std::int64_t m = plan.shape.m;
  const std::int64_t k = plan.shape.k;
  const std::int64_t mpanels = (m + MR - 1) / MR;
  ProfileScope pack(phase::kKernelPack);
  parallel_for(
      static_cast<std::size_t>(mpanels),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t ip = begin; ip < end; ++ip) {
          const std::int64_t i0 = static_cast<std::int64_t>(ip) * MR;
          pack_a_panel(plan.shape.op, a, m, k, i0,
                       std::min<std::int64_t>(MR, m - i0), 0, k,
                       apack + static_cast<std::int64_t>(ip) * k * MR);
        }
      },
      /*grain=*/4);
}

void gemm_packed(const GemmPlan& plan, const float* a, const float* b,
                 float* c, bool accumulate) {
  gemm_packed_impl(plan, a, /*apack_full=*/nullptr, b, /*implicit=*/nullptr,
                   c, accumulate, 0, plan.shape.n);
}

void gemm_packed_prepacked_a(const GemmPlan& plan, const float* apack,
                             const float* b, float* c, bool accumulate) {
  gemm_packed_impl(plan, /*a=*/nullptr, apack, b, /*implicit=*/nullptr, c,
                   accumulate, 0, plan.shape.n);
}

void gemm_packed_implicit(const GemmPlan& plan, const float* a,
                          const float* apack, const ImplicitCols& b,
                          float* c, bool accumulate, std::int64_t col_begin,
                          std::int64_t col_end) {
  if (plan.shape.op == GemmOp::kAT) {
    throw std::invalid_argument("gemm_packed_implicit: no kAT form");
  }
  if (col_begin < 0 || col_begin > col_end || col_end > plan.shape.n) {
    throw std::invalid_argument("gemm_packed_implicit: bad column range");
  }
  gemm_packed_impl(plan, a, apack, /*b=*/nullptr, &b, c, accumulate,
                   col_begin, col_end);
}

}  // namespace fleda
