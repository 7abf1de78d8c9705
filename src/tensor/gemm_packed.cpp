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
// GEMMs, straight from a padded image through ImplicitCols, so the
// column matrix never has to exist. A conv GEMM of the forward's form
// (kNN) whose every NR-column panel is a run of NR adjacent pixels (a
// stride-1 conv whose output width is a multiple of NR) is not packed
// at all: depth step p of panel t is read in place, as the NR floats at
// padded + pixel_offset[j0 + t * NR] + row_offset[pc + p]. That call
// has no B block and no NC loop: each row panel sweeps all its columns
// per KC slice. Every other call packs, the weight gradient's (kBT)
// included.
//
// Micro-kernels: one body per ISA, each a template over the B operand
// (a packed block, or the image in place). A portable one (scalar C++
// left to the compiler's vectorizer) and, on x86, an AVX2 one that
// holds each tile row in a __m256 and steps two B micro-panels per call
// (eight independent accumulators hide the add latency), and an AVX-512
// one that steps two A and four B micro-panels, joining pairs of B
// panels into __m512 rows (sixteen accumulators). All compute each KC
// slice of a C element as +0, then + a*b for p ascending, each product
// rounded before the sum (mul then add, never a fused multiply-add),
// and add the slices in ascending pc order: the one order of
// tensor/plan.hpp, so the results are the reference kernels' bits at
// every thread-pool size, kernel ISA and B operand form.
//
// Zero-padding contract: the packing routines zero-fill the MR/NR
// tails, so the micro-kernel always runs full tiles; only the valid
// mr x nr region is written back to C. (B read in place has no tail:
// its panels are all full.)
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

// The B operand of one micro-kernel call: row(t, p) is depth step p of
// its micro-panel t, NR contiguous floats.
//
// A packed block (panel t at bp + t * kc * NR).
struct PackedB {
  static constexpr bool kJoined = false;
  const float* bp;
  std::int64_t panel;  // kc * NR
  const float* row(std::int64_t t, std::int64_t p) const {
    return bp + t * panel + p * NR;
  }
};

// A conv's column matrix read in place, every panel a run of NR
// pixels: panel t starts at padded + pixel_offset[t * NR] (the table
// advanced to the call's first column), and depth step p adds
// row_offset[p] (the table advanced to the slice's first row). When
// kPairs, each pair of panels a call joins (t even, t + 1) is one run
// of 2 NR pixels too.
template <bool kPairs>
struct InPlaceB {
  static constexpr bool kJoined = kPairs;
  const float* padded;
  const std::int64_t* pixel_offset;
  const std::int64_t* row_offset;
  const float* row(std::int64_t t, std::int64_t p) const {
    return padded + pixel_offset[t * NR] + row_offset[p];
  }
};

// One micro-kernel call covers `panels` consecutive B micro-panels
// against `a_panels` A micro-panels (panel t at ap + t * a_next),
// writing the valid mr x nr region of C (mr <= a_panels * MR,
// nr <= panels * NR).
template <class B>
struct MicroKernel {
  void (*run)(const float* ap, std::int64_t a_next, const B& b,
              std::int64_t kc, float* c, std::int64_t ldc, std::int64_t mr,
              std::int64_t nr, bool accumulate);
  std::int64_t panels;
  std::int64_t a_panels;
};

// MR x NR register tile: acc += sum_p apanel[p][*] (x) bpanel[p][*],
// then stored or accumulated into the valid mr x nr region of C.
template <class B>
void micro_kernel_portable(const float* __restrict ap, std::int64_t,
                           const B& b, std::int64_t kc, float* __restrict c,
                           std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                           bool accumulate) {
  float acc[MR * NR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict arow = ap + p * MR;
    const float* __restrict brow = b.row(0, p);
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
template <class B>
FLEDA_TARGET_AVX2 void micro_kernel_avx2(const float* ap, std::int64_t,
                                         const B& b, std::int64_t kc,
                                         float* c, std::int64_t ldc,
                                         std::int64_t mr, std::int64_t nr,
                                         bool accumulate) {
  static_assert(MR == 4, "one named accumulator per tile row");
  if (nr <= NR) {
    __m256 c0 = _mm256_setzero_ps(), c1 = c0, c2 = c0, c3 = c0;
    for (std::int64_t p = 0; p < kc; ++p) {
      const __m256 b0 = _mm256_loadu_ps(b.row(0, p));
      const float* a = ap + p * MR;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(a), b0));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(a + 1), b0));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(a + 2), b0));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(a + 3), b0));
    }
    const __m256 rows[MR] = {c0, c1, c2, c3};
    for (std::int64_t r = 0; r < mr; ++r) {
      store_row_avx2(c + r * ldc, rows[r], nr, accumulate);
    }
    return;
  }
  __m256 c0 = _mm256_setzero_ps(), c1 = c0, c2 = c0, c3 = c0;
  __m256 d0 = c0, d1 = c0, d2 = c0, d3 = c0;
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b.row(0, p));
    const __m256 b1 = _mm256_loadu_ps(b.row(1, p));
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

// Writes the first `nr` (<= 2 NR) lanes of one accumulator row to C.
FLEDA_TARGET_AVX512 inline void store_row_avx512(float* crow, __m512 acc,
                                                 std::int64_t nr,
                                                 bool accumulate) {
  const __mmask16 lanes = static_cast<__mmask16>(
      nr >= 2 * NR ? 0xFFFFu : (1u << nr) - 1u);
  if (accumulate) acc = _mm512_add_ps(_mm512_maskz_loadu_ps(lanes, crow), acc);
  _mm512_mask_storeu_ps(crow, lanes, acc);
}

// Depth step p of two adjacent B micro-panels joined into one 16-lane
// row (panel t in the low half, panel t + 1 in the high half), or of
// panel t alone, zero-extended, when t + 1 lies past the call. Masked
// loads: a lane a mask leaves out reads no memory. (GCC 12 flags the
// _mm512_undefined_* inside the insert intrinsics as uninitialized.) A
// joined pair that is one run in memory takes one 16-lane load: next to
// two masked loads, ~13% off a 16-wide stride-1 conv's forward and
// 7.3% off paper_routenet's table_s (10 paired runs, 4-vCPU AVX-512
// Xeon).
template <bool kTwo, class B>
FLEDA_TARGET_AVX512 inline __m512 load_b_avx512(const B& b, std::int64_t t,
                                                std::int64_t p) {
  if constexpr (kTwo && B::kJoined) {
    return _mm512_loadu_ps(b.row(t, p));
  } else {
    const __m512 lo = _mm512_maskz_loadu_ps(0x00FF, b.row(t, p));
    if constexpr (!kTwo) return lo;
    return _mm512_mask_loadu_ps(lo, 0xFF00, b.row(t + 1, p) - NR);
  }
}

// kRows (MR or 2 MR) x kPanels NR tile (kPanels in 1..4) in __m512
// accumulators: acc[r] holds columns [0, 2 NR) of row r, acc[kRows + r]
// columns [2 NR, 4 NR). Rows [MR, 2 MR) come from the A micro-panel at
// ap + a_next. Every loop over the tile has a constant trip count and
// is unrolled whole, so each accumulator stays in a register (an index
// the compiler cannot resolve would park the tile in memory).
template <class B, int kPanels, int kRows>
FLEDA_TARGET_AVX512 void micro_kernel_avx512_tile(
    const float* ap, std::int64_t a_next, const B& b, std::int64_t kc,
    float* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
    bool accumulate) {
  constexpr int kHalves = kPanels > 2 ? 2 : 1;
  __m512 acc[kHalves * kRows];
#pragma GCC unroll 16
  for (int t = 0; t < kHalves * kRows; ++t) acc[t] = _mm512_setzero_ps();
  for (std::int64_t p = 0; p < kc; ++p) {
    __m512 bv[kHalves];
    bv[0] = load_b_avx512<(kPanels >= 2)>(b, 0, p);
    if constexpr (kHalves == 2) {
      bv[1] = load_b_avx512<(kPanels == 4)>(b, 2, p);
    }
    const float* a = ap + p * MR;
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const __m512 av =
          _mm512_set1_ps(r < MR ? a[r] : a[a_next + r - MR]);
#pragma GCC unroll 2
      for (int h = 0; h < kHalves; ++h) {
        acc[h * kRows + r] =
            _mm512_add_ps(acc[h * kRows + r], _mm512_mul_ps(av, bv[h]));
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    if (r >= mr) break;
    float* crow = c + r * ldc;
    store_row_avx512(crow, acc[r], std::min(nr, 2 * NR), accumulate);
    if constexpr (kHalves == 2) {
      store_row_avx512(crow + 2 * NR, acc[kRows + r], nr - 2 * NR,
                       accumulate);
    }
  }
}

template <class B, int kRows>
FLEDA_TARGET_AVX512 void micro_kernel_avx512_rows(
    const float* ap, std::int64_t a_next, const B& b, std::int64_t kc,
    float* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
    bool accumulate) {
  switch ((nr + NR - 1) / NR) {
    case 1:
      return micro_kernel_avx512_tile<B, 1, kRows>(ap, a_next, b, kc, c,
                                                   ldc, mr, nr, accumulate);
    case 2:
      return micro_kernel_avx512_tile<B, 2, kRows>(ap, a_next, b, kc, c,
                                                   ldc, mr, nr, accumulate);
    case 3:
      return micro_kernel_avx512_tile<B, 3, kRows>(ap, a_next, b, kc, c,
                                                   ldc, mr, nr, accumulate);
    default:
      return micro_kernel_avx512_tile<B, 4, kRows>(ap, a_next, b, kc, c,
                                                   ldc, mr, nr, accumulate);
  }
}

// 2 MR x 4 NR: two A micro-panels against four B micro-panels per
// call, the B panels joined in pairs; a call with fewer rows or panels
// left runs the tile that covers just them.
template <class B>
FLEDA_TARGET_AVX512 void micro_kernel_avx512(
    const float* ap, std::int64_t a_next, const B& b, std::int64_t kc,
    float* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
    bool accumulate) {
  if (mr > MR) {
    micro_kernel_avx512_rows<B, 2 * MR>(ap, a_next, b, kc, c, ldc, mr, nr,
                                        accumulate);
  } else {
    micro_kernel_avx512_rows<B, MR>(ap, a_next, b, kc, c, ldc, mr, nr,
                                    accumulate);
  }
}

#endif  // FLEDA_X86_KERNELS

// Steps gemm_kernel_columns(isa) columns of C per call.
template <class B>
MicroKernel<B> micro_kernel_for(KernelIsa isa) {
  MicroKernel<B> kernel{micro_kernel_portable<B>,
                        gemm_kernel_columns(isa) / NR, 1};
#if FLEDA_X86_KERNELS
  if (isa == KernelIsa::kAvx2) kernel.run = micro_kernel_avx2<B>;
  if (isa == KernelIsa::kAvx512) {
    kernel.run = micro_kernel_avx512<B>;
    kernel.a_panels = 2;
  }
#endif
  return kernel;
}

// C's rows x columns [jc, jc + nc) over the KC slice [pc, pc + kc),
// stored (or added, when `accumulate`): a parallel_for over MR row
// panels, each packing its A panels (unless A came prepacked in
// apack_full) and calling the micro-kernel along the columns with
// b_at(jp), the B operand of the call that starts at panel jp.
template <class B, class BAt>
void multiply_slice(const GemmPlan& plan, const float* a,
                    const float* apack_full, std::int64_t pc,
                    std::int64_t kc, std::int64_t jc, std::int64_t nc,
                    const BAt& b_at, float* c, bool accumulate) {
  const MicroKernel<B> kernel = micro_kernel_for<B>(plan.isa);
  const std::int64_t m = plan.shape.m;
  const std::int64_t k = plan.shape.k;
  const std::int64_t n = plan.shape.n;
  const std::int64_t kc_max = std::min(k, kGemmKC);
  const std::int64_t npanels = (nc + NR - 1) / NR;
  const std::int64_t mpanels = (m + MR - 1) / MR;
  const std::size_t mc_grain =
      static_cast<std::size_t>(std::max<std::int64_t>(1, plan.mc / MR));
  parallel_for(
      static_cast<std::size_t>(mpanels),
      [&](std::size_t begin, std::size_t end) {
        float* apanel = thread_scratch_aligned(
            ScratchSlot::kPackA,
            static_cast<std::size_t>(kernel.a_panels * kc_max * MR));
        for (std::size_t ip = begin; ip < end;
             ip += static_cast<std::size_t>(kernel.a_panels)) {
          const std::int64_t a_panels = std::min<std::int64_t>(
              kernel.a_panels, static_cast<std::int64_t>(end - ip));
          const std::int64_t i0 = static_cast<std::int64_t>(ip) * MR;
          const std::int64_t mr =
              std::min<std::int64_t>(a_panels * MR, m - i0);
          const float* ap;
          std::int64_t a_next;
          if (apack_full != nullptr) {
            ap = apack_full + static_cast<std::int64_t>(ip) * k * MR +
                 pc * MR;
            a_next = k * MR;
          } else {
            for (std::int64_t t = 0; t < a_panels; ++t) {
              const std::int64_t it = i0 + t * MR;
              pack_a_panel(plan.shape.op, a, m, k, it,
                           std::min<std::int64_t>(MR, m - it), pc, kc,
                           apanel + t * kc * MR);
            }
            ap = apanel;
            a_next = kc * MR;
          }
          for (std::int64_t jp = 0; jp < npanels; jp += kernel.panels) {
            const std::int64_t j0 = jc + jp * NR;
            kernel.run(ap, a_next, b_at(jp), kc, c + i0 * n + j0, n, mr,
                       std::min<std::int64_t>(kernel.panels * NR,
                                              jc + nc - j0),
                       accumulate);
          }
        }
      },
      mc_grain);
}

// Whether [col_begin, col_end) splits into blocks of `width` columns
// that are each a run of adjacent pixels (pixel offsets strictly
// increase, so the ends of a block tell).
bool pixel_runs(const std::int64_t* pixel_offset, std::int64_t col_begin,
                std::int64_t col_end, std::int64_t width) {
  if ((col_end - col_begin) % width != 0) return false;
  for (std::int64_t j0 = col_begin; j0 < col_end; j0 += width) {
    if (pixel_offset[j0 + width - 1] - pixel_offset[j0] != width - 1) {
      return false;
    }
  }
  return true;
}

// The in-place form of the slice loop below: each slice reads its B
// rows straight from the image, in the packed path's slice order
// (dropping its NC loop moves no C element's sum).
template <bool kPairs>
void multiply_in_place(const GemmPlan& plan, const float* a,
                       const float* apack_full, const ImplicitCols& b,
                       float* c, bool accumulate, std::int64_t col_begin,
                       std::int64_t col_end) {
  const std::int64_t k = plan.shape.k;
  const std::int64_t kc_max = std::min(k, kGemmKC);
  for (std::int64_t pc = 0; pc < k; pc += kc_max) {
    const std::int64_t kc = std::min(kc_max, k - pc);
    const auto b_at = [&](std::int64_t jp) {
      return InPlaceB<kPairs>{b.padded, b.pixel_offset + col_begin + jp * NR,
                              b.row_offset + pc};
    };
    multiply_slice<InPlaceB<kPairs>>(plan, a, apack_full, pc, kc, col_begin,
                                     col_end - col_begin, b_at, c,
                                     accumulate || pc > 0);
  }
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
  if (k == 0) {
    // No slice to sum: C is +0, or stays as it was when accumulating.
    for (std::int64_t i = 0; i < m && !accumulate; ++i) {
      std::fill(c + i * n + col_begin, c + i * n + col_end, 0.0f);
    }
    return;
  }
  const std::int64_t kc_max = std::min(k, kGemmKC);

  if (implicit != nullptr && op == GemmOp::kNN &&
      implicit_b_in_place(*implicit, col_begin, col_end)) {
    // AVX-512 joins panels in pairs; where every pair is a run as well
    // (an output width that is a multiple of 2 NR), it reads each pair
    // with one load.
    if (plan.isa == KernelIsa::kAvx512 &&
        pixel_runs(implicit->pixel_offset, col_begin, col_end, 2 * NR)) {
      multiply_in_place<true>(plan, a, apack_full, *implicit, c, accumulate,
                              col_begin, col_end);
    } else {
      multiply_in_place<false>(plan, a, apack_full, *implicit, c,
                               accumulate, col_begin, col_end);
    }
    return;
  }

  // Shared packed-B block: panels are written disjointly by the packing
  // parallel_for and read-only during compute, all through the calling
  // thread's persistent aligned scratch.
  const std::int64_t nc_max = plan.nc;
  const std::size_t bpack_elems = static_cast<std::size_t>(
      ((nc_max + NR - 1) / NR) * NR * kc_max);
  float* bpack = thread_scratch_aligned(ScratchSlot::kPackB, bpack_elems);

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
      const auto b_at = [&](std::int64_t jp) {
        return PackedB{bpack + jp * kc * NR, kc * NR};
      };
      multiply_slice<PackedB>(plan, a, apack_full, pc, kc, jc, nc, b_at, c,
                              accumulate || pc > 0);
    }
  }
}

}  // namespace

bool implicit_b_in_place(const ImplicitCols& b, std::int64_t col_begin,
                         std::int64_t col_end) {
  return pixel_runs(b.pixel_offset, col_begin, col_end, NR);
}

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
