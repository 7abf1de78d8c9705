// Packed cache-blocked GEMM — the one dense GEMM driver; every GEMM
// runs it under a make_gemm_plan plan.
//
// Classic three-loop blocking (the BLIS/poplibs structure):
//
//   for jc over n in NC columns:                 L2-resident B block
//     for pc over k in KC = kGemmKC depth slices:
//       pack B(pc:kc, jc:nc) into pairs of NR-wide micro-panels
//         (aligned scratch)
//       parallel_for over MR row panels:         deterministic partition
//         pack A(panel, pc:kc) into an MR-wide micro-panel
//         for each B micro-panel: MR x NR register tile over kc,
//           then store (pc == 0) or accumulate (pc > 0) into C
//
// B comes either from memory in the plan's layout or, for the conv
// GEMMs of the forward's form (kNN), straight from a padded image
// through ImplicitCols, so the column matrix never has to exist. Such a
// GEMM whose every NR-column panel is a run of NR adjacent pixels (a
// stride-1 conv whose output width is a multiple of NR) is not packed
// at all: depth step p of panel t is read in place, as the NR floats at
// padded + pixel_offset[j0 + t * NR] + row_offset[pc + p]. That call
// has no B block and no NC loop: each row panel sweeps all its columns
// per KC slice. At other strides and widths the B panels are gathered.
//
// The weight gradient swaps the roles: C^T[taps, m] += cols * dy^T, so
// the column matrix is its A operand, read in place (the micro-kernel
// only broadcasts A, one scalar at a time, so A needs no contiguity:
// A(r, p) = padded[row_offset[r] + pixel_offset[p]] at every stride,
// dilation and width), and dy is a small B packed once per sample. Its
// tile is stored transposed, into the weight gradient [m, taps]. No
// conv GEMM gathers B at stride 1.
//
// Micro-kernels: one body per ISA, each a template over the A operand
// (packed micro-panels, or the column matrix in place) and the B
// operand (a packed block, or the image in place). A portable one
// (scalar C++ left to the compiler's vectorizer) and, on x86, an AVX2
// one that holds each tile row in a __m256 and steps two B micro-panels
// per call (eight independent accumulators hide the add latency), and
// an AVX-512 one that steps two A and four B micro-panels, joining
// pairs of B panels into __m512 rows (sixteen accumulators). All
// compute each KC slice of a C element as +0, then + a*b for p
// ascending, each product rounded before the sum (mul then add, never a
// fused multiply-add), and add the slices in ascending pc order: the
// one order of tensor/plan.hpp, so the results are the same bits at
// every thread-pool size, kernel ISA and operand form (a*b = b*a
// exactly, so swapping the operands moves no bit either).
//
// Zero-padding contract: the packing routines zero-fill the MR/NR
// tails, so the micro-kernel always runs full tiles; only the valid
// mr x nr region is written back to C. (B read in place has no tail:
// its panels are all full. A read in place repeats its first row in
// the tail, whose products are never stored.)
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

// B micro-panels are packed in pairs (see PairedB): depth step p of a
// panel is NR floats at dst + p * kPairRow, the other panel of its pair
// interleaved between them.
constexpr std::int64_t kPairRow = 2 * NR;

// Panel jp of a slice packed in pairs, kc deep.
template <class T>
T* paired_panel(T* slice, std::int64_t jp, std::int64_t kc) {
  return slice + jp / 2 * kc * kPairRow + jp % 2 * NR;
}

// Columns of PairedB's packing: n rounded up to whole pairs of panels.
std::int64_t paired_cols(std::int64_t n) {
  return (n + kPairRow - 1) / kPairRow * kPairRow;
}

// Packs B depth [pc, pc + kc) x columns [j0, j0 + nr) into an NR-wide
// micro-panel of a pair: dst[p * kPairRow + j] = B(pc + p, j0 + j),
// zero-padded cols.
void pack_b_panel(GemmOp op, const float* b, std::int64_t k, std::int64_t n,
                  std::int64_t pc, std::int64_t kc, std::int64_t j0,
                  std::int64_t nr, float* dst) {
  if (op == GemmOp::kBT) {
    // B stored [n, k]: one contiguous kc run per column.
    for (std::int64_t j = 0; j < nr; ++j) {
      const float* src = b + (j0 + j) * k + pc;
      for (std::int64_t p = 0; p < kc; ++p) dst[p * kPairRow + j] = src[p];
    }
    for (std::int64_t j = nr; j < NR; ++j) {
      for (std::int64_t p = 0; p < kc; ++p) dst[p * kPairRow + j] = 0.0f;
    }
    return;
  }
  // B stored [k, n]: one contiguous NR run per depth step.
  (void)k;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* src = b + (pc + p) * n + j0;
    float* out = dst + p * kPairRow;
    std::int64_t j = 0;
    for (; j < nr; ++j) out[j] = src[j];
    for (; j < NR; ++j) out[j] = 0.0f;
  }
}

// The kNN panel pack_b_panel would pack from a materialized column
// matrix, gathered from the padded image instead: B(p, j) =
// cols(pc + p, j0 + j), one weight row per depth step. A full panel of
// pixels on one output row at stride 1 is a contiguous run of the
// padded row (offsets strictly increase along a row).
void pack_b_panel_implicit(const ImplicitCols& b, std::int64_t pc,
                           std::int64_t kc, std::int64_t j0, std::int64_t nr,
                           float* dst) {
  const std::int64_t* px = b.pixel_offset + j0;
  const bool run = nr == NR && px[NR - 1] - px[0] == NR - 1;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* src = b.padded + b.row_offset[pc + p];
    float* out = dst + p * kPairRow;
    if (run) {
      std::memcpy(out, src + px[0], sizeof(float) * NR);
      continue;
    }
    std::int64_t j = 0;
    for (; j < nr; ++j) out[j] = src[px[j]];
    for (; j < NR; ++j) out[j] = 0.0f;
  }
}

// The A operand of one micro-kernel call: at(r, p) points at row r of
// its tile at depth step p.
//
// Packed micro-panels: rows [0, MR) at ap, rows [MR, 2 MR) at
// ap + a_next.
struct PackedA {
  static constexpr bool kTransposedC = false;
  const float* ap;
  std::int64_t a_next;
  const float* at(int r, std::int64_t p) const {
    return ap + r / MR * a_next + p * MR + r % MR;
  }
};

// A conv's column matrix read in place, the weight gradient's A: row r
// of the tile starts at row[r] (padded + row_offset of the row; a row
// past the call's mr repeats row 0) and depth step p adds
// pixel_offset[p] (the table advanced to the slice's first pixel). Its
// C is the weight gradient, [n, m]: the tile is stored transposed,
// C(r, j) at c[j * ldc + r].
struct InPlaceA {
  static constexpr bool kTransposedC = true;
  const float* row[2 * MR];
  const std::int64_t* pixel_offset;
  const float* at(int r, std::int64_t p) const {
    return row[r] + pixel_offset[p];
  }
};

// The B operand of one micro-kernel call: row(t, p) is depth step p of
// its micro-panel t, NR contiguous floats.
//
// Packed panels in pairs: pair q of a KC slice holds panels 2q and
// 2q + 1 as kc rows of 2 NR floats (panel 2q in the low half), so each
// pair's depth step is one run, which the AVX-512 tile reads with one
// load. Against two merge-masked loads, micro_kernels dw_ms on a
// 4-vCPU AVX-512 EPYC read RouteNet conv2 1.29-1.39 -> 0.81-0.85 ms and
// conv3 0.53 -> 0.40 ms; against two 256-bit loads, RouteNet's deconv
// forward (then a kAT GEMM of the generic path) read 0.1035 -> 0.096 ms
// (medians of 8 runs). So every packed B takes this layout: the
// whole-operand pack_b and the block of the generic packed path. bp
// points at the call's first panel; only a one-panel call (portable)
// starts on an odd one.
struct PairedB {
  static constexpr bool kJoined = true;
  const float* bp;
  std::int64_t kc;
  const float* row(std::int64_t t, std::int64_t p) const {
    return paired_panel(bp, t, kc) + p * kPairRow;
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
// against up to `a_panels` A micro-panels, writing the valid mr x nr
// region of C (mr <= a_panels * MR, nr <= panels * NR), C(r, j) at
// c[r * ldc + j] (c[j * ldc + r] when A::kTransposedC).
template <class A, class B>
struct MicroKernel {
  void (*run)(const A& a, const B& b, std::int64_t kc, float* c,
              std::int64_t ldc, std::int64_t mr, std::int64_t nr,
              bool accumulate);
  std::int64_t panels;
  std::int64_t a_panels;
};

// MR x NR register tile: acc += sum_p apanel[p][*] (x) bpanel[p][*],
// then stored or accumulated into the valid mr x nr region of C.
template <class A, class B>
void micro_kernel_portable(const A& a, const B& b, std::int64_t kc,
                           float* __restrict c, std::int64_t ldc,
                           std::int64_t mr, std::int64_t nr,
                           bool accumulate) {
  float acc[MR * NR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    // The step's A values go to a local row first: read through the
    // accessor inside the loop below, they left GCC's vectorizer out
    // and the kernel ran ~2.4x slower.
    float arow[MR];
    for (int r = 0; r < MR; ++r) arow[r] = *a.at(r, p);
    const float* __restrict brow = b.row(0, p);
    for (std::int64_t r = 0; r < MR; ++r) {
      const float av = arow[r];
      float* __restrict accrow = acc + r * NR;
      for (std::int64_t j = 0; j < NR; ++j) accrow[j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    const float* accrow = acc + r * NR;
    if constexpr (A::kTransposedC) {
      for (std::int64_t j = 0; j < nr; ++j) {
        float& out = c[j * ldc + r];
        out = accumulate ? out + accrow[j] : accrow[j];
      }
      continue;
    }
    float* crow = c + r * ldc;
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

// Writes the valid mr x nr region of an MR x NR block (row r in
// rows[r]) to C, transposed when A::kTransposedC: a 4 x 8 in-register
// transpose, then one 4-float run per column.
template <class A>
FLEDA_TARGET_AVX2 inline void store_block_avx2(const __m256 (&rows)[MR],
                                               float* c, std::int64_t ldc,
                                               std::int64_t mr,
                                               std::int64_t nr,
                                               bool accumulate) {
  if constexpr (!A::kTransposedC) {
    for (std::int64_t r = 0; r < mr; ++r) {
      store_row_avx2(c + r * ldc, rows[r], nr, accumulate);
    }
  } else {
    const __m256 t0 = _mm256_unpacklo_ps(rows[0], rows[1]);
    const __m256 t1 = _mm256_unpackhi_ps(rows[0], rows[1]);
    const __m256 t2 = _mm256_unpacklo_ps(rows[2], rows[3]);
    const __m256 t3 = _mm256_unpackhi_ps(rows[2], rows[3]);
    // cols[q] holds column q (rows 0..3) in its low 128 bits and
    // column q + 4 in its high 128 bits.
    const __m256 cols[4] = {
        _mm256_shuffle_ps(t0, t2, 0x44), _mm256_shuffle_ps(t0, t2, 0xEE),
        _mm256_shuffle_ps(t1, t3, 0x44), _mm256_shuffle_ps(t1, t3, 0xEE)};
#pragma GCC unroll 8
    for (int j = 0; j < NR; ++j) {
      if (j >= nr) break;
      __m128 v = j < 4 ? _mm256_castps256_ps128(cols[j])
                       : _mm256_extractf128_ps(cols[j - 4], 1);
      float* out = c + j * ldc;
      if (mr == MR) {
        if (accumulate) v = _mm_add_ps(_mm_loadu_ps(out), v);
        _mm_storeu_ps(out, v);
        continue;
      }
      alignas(16) float lanes[MR];
      _mm_store_ps(lanes, v);
      for (std::int64_t r = 0; r < mr; ++r) {
        out[r] = accumulate ? out[r] + lanes[r] : lanes[r];
      }
    }
  }
}

// MR x 2NR tile (two B micro-panels) in eight __m256 accumulators;
// a single-panel call (nr <= NR) runs the MR x NR half alone. The
// accumulators are named locals, not arrays: indexing an array by the
// runtime mr at write-back makes the compiler store every accumulator
// on every depth step.
template <class A, class B>
FLEDA_TARGET_AVX2 void micro_kernel_avx2(const A& a, const B& b,
                                         std::int64_t kc, float* c,
                                         std::int64_t ldc, std::int64_t mr,
                                         std::int64_t nr, bool accumulate) {
  static_assert(MR == 4, "one named accumulator per tile row");
  if (nr <= NR) {
    __m256 c0 = _mm256_setzero_ps(), c1 = c0, c2 = c0, c3 = c0;
    for (std::int64_t p = 0; p < kc; ++p) {
      const __m256 b0 = _mm256_loadu_ps(b.row(0, p));
      __m256 av = _mm256_broadcast_ss(a.at(0, p));
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, b0));
      av = _mm256_broadcast_ss(a.at(1, p));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(av, b0));
      av = _mm256_broadcast_ss(a.at(2, p));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(av, b0));
      av = _mm256_broadcast_ss(a.at(3, p));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(av, b0));
    }
    store_block_avx2<A>({c0, c1, c2, c3}, c, ldc, mr, nr, accumulate);
    return;
  }
  __m256 c0 = _mm256_setzero_ps(), c1 = c0, c2 = c0, c3 = c0;
  __m256 d0 = c0, d1 = c0, d2 = c0, d3 = c0;
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b.row(0, p));
    const __m256 b1 = _mm256_loadu_ps(b.row(1, p));
    __m256 av = _mm256_broadcast_ss(a.at(0, p));
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, b0));
    d0 = _mm256_add_ps(d0, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a.at(1, p));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(av, b0));
    d1 = _mm256_add_ps(d1, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a.at(2, p));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(av, b0));
    d2 = _mm256_add_ps(d2, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a.at(3, p));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(av, b0));
    d3 = _mm256_add_ps(d3, _mm256_mul_ps(av, b1));
  }
  store_block_avx2<A>({c0, c1, c2, c3}, c, ldc, mr, NR, accumulate);
  store_block_avx2<A>({d0, d1, d2, d3},
                      A::kTransposedC ? c + NR * ldc : c + NR, ldc, mr,
                      nr - NR, accumulate);
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

// Writes lanes [0, 2 MR) of v to column jl of a transposed C (row r at
// c[jl * ldc + r]) and lanes [2 MR, 4 MR) to column jh, the rows in
// `row_lanes`, skipping a column at or past nr.
FLEDA_TARGET_AVX512 inline void store_column_pair_avx512(
    __m512 v, float* c, std::int64_t ldc, std::int64_t jl, std::int64_t jh,
    unsigned row_lanes, std::int64_t nr, bool accumulate) {
  const __mmask16 lo = static_cast<__mmask16>(jl < nr ? row_lanes : 0u);
  const __mmask16 hi =
      static_cast<__mmask16>(jh < nr ? row_lanes << (2 * MR) : 0u);
  float* lo_at = c + jl * ldc;
  float* hi_at = c + jh * ldc - 2 * MR;  // lane 2 MR + r lands on row r
  if (accumulate) {
    v = _mm512_add_ps(
        _mm512_mask_loadu_ps(_mm512_maskz_loadu_ps(lo, lo_at), hi, hi_at),
        v);
  }
  _mm512_mask_storeu_ps(lo_at, lo, v);
  _mm512_mask_storeu_ps(hi_at, hi, v);
}

// Writes the valid mr x nr region (nr <= 2 NR) of a 2 MR x 2 NR block
// (row r in rows[r]) to C transposed, C(r, j) at c[j * ldc + r]: an
// 8 x 16 in-register transpose (24 shuffles), then each pair of
// columns' 8-row runs through one masked load and two masked stores.
FLEDA_TARGET_AVX512 inline void store_block_transposed_avx512(
    const __m512 (&rows)[2 * MR], float* c, std::int64_t ldc,
    std::int64_t mr, std::int64_t nr, bool accumulate) {
  // t: rows interleaved in pairs; u[q] (u[4 + q]): in 128-bit lane L,
  // column 4 L + q of rows 0..3 (rows 4..7). (The unpacks take their
  // all-lanes mask form: GCC 12 flags the _mm512_undefined_ps inside
  // the plain ones as uninitialized.)
  __m512 t[2 * MR], u[2 * MR];
#pragma GCC unroll 4
  for (int i = 0; i < MR; ++i) {
    const __m512 even = rows[2 * i], odd = rows[2 * i + 1];
    t[2 * i] = _mm512_mask_unpacklo_ps(even, 0xFFFF, even, odd);
    t[2 * i + 1] = _mm512_mask_unpackhi_ps(even, 0xFFFF, even, odd);
  }
#pragma GCC unroll 2
  for (int h = 0; h < 2; ++h) {
    const __m512* th = t + MR * h;
    u[MR * h + 0] = _mm512_shuffle_ps(th[0], th[2], 0x44);
    u[MR * h + 1] = _mm512_shuffle_ps(th[0], th[2], 0xEE);
    u[MR * h + 2] = _mm512_shuffle_ps(th[1], th[3], 0x44);
    u[MR * h + 3] = _mm512_shuffle_ps(th[1], th[3], 0xEE);
  }
  // Column q's 8 rows in the low half and column q + 4's in the high
  // half (`low`), or columns q + 8 and q + 12 (`high`).
  const __m512i low = _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 4, 5,
                                        6, 7, 20, 21, 22, 23);
  const __m512i high = _mm512_setr_epi32(8, 9, 10, 11, 24, 25, 26, 27, 12,
                                         13, 14, 15, 28, 29, 30, 31);
  const unsigned row_lanes = (1u << mr) - 1u;
#pragma GCC unroll 4
  for (int q = 0; q < MR; ++q) {
    store_column_pair_avx512(_mm512_permutex2var_ps(u[q], low, u[MR + q]),
                             c, ldc, q, q + 4, row_lanes, nr, accumulate);
    store_column_pair_avx512(_mm512_permutex2var_ps(u[q], high, u[MR + q]),
                             c, ldc, q + 8, q + 12, row_lanes, nr,
                             accumulate);
  }
}

// Depth step p of two adjacent B micro-panels joined into one 16-lane
// row (panel t in the low half, panel t + 1 in the high half), or of
// panel t alone, zero-extended, when t + 1 lies past the call. A joined
// pair that is one run in memory takes one 16-lane load: next to two
// masked loads, ~13% off a 16-wide stride-1 conv's forward and 7.3% off
// paper_routenet's table_s (10 paired runs, 4-vCPU AVX-512 Xeon). Any
// other panel is read with an 8-lane load: a masked 16-lane load spans
// 64 bytes around the panel's 32, so it crosses a cache line where the
// 32-byte-aligned packed panels never do. Both halves go in by masked
// inserts: the unmasked one's _mm512_undefined_pd (also inside
// _mm512_zextps256_ps512) trips GCC 12's uninitialized warning.
template <bool kTwo, class B>
FLEDA_TARGET_AVX512 inline __m512 load_b_avx512(const B& b, std::int64_t t,
                                                std::int64_t p) {
  if constexpr (kTwo && B::kJoined) {
    return _mm512_loadu_ps(b.row(t, p));
  } else {
    const __m512d lo = _mm512_maskz_insertf64x4(
        0xFF, _mm512_setzero_pd(),
        _mm256_castps_pd(_mm256_loadu_ps(b.row(t, p))), 0);
    if constexpr (!kTwo) return _mm512_castpd_ps(lo);
    return _mm512_castpd_ps(_mm512_mask_insertf64x4(
        lo, 0xFF, lo, _mm256_castps_pd(_mm256_loadu_ps(b.row(t + 1, p))), 1));
  }
}

// kRows (MR or 2 MR) x kPanels NR tile (kPanels in 1..4) in __m512
// accumulators: acc[r] holds columns [0, 2 NR) of row r, acc[kRows + r]
// columns [2 NR, 4 NR). Every loop over the tile has a constant trip
// count and is unrolled whole, so each accumulator stays in a register
// (an index the compiler cannot resolve would park the tile in memory).
template <class A, class B, int kPanels, int kRows>
FLEDA_TARGET_AVX512 void micro_kernel_avx512_tile(
    const A& a, const B& b, std::int64_t kc, float* c, std::int64_t ldc,
    std::int64_t mr, std::int64_t nr, bool accumulate) {
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
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const __m512 av = _mm512_set1_ps(*a.at(r, p));
#pragma GCC unroll 2
      for (int h = 0; h < kHalves; ++h) {
        acc[h * kRows + r] =
            _mm512_add_ps(acc[h * kRows + r], _mm512_mul_ps(av, bv[h]));
      }
    }
  }
  if constexpr (A::kTransposedC) {
#pragma GCC unroll 2
    for (int h = 0; h < kHalves; ++h) {
      __m512 rows[2 * MR];
#pragma GCC unroll 8
      for (int r = 0; r < 2 * MR; ++r) {
        rows[r] = r < kRows ? acc[h * kRows + r] : _mm512_setzero_ps();
      }
      store_block_transposed_avx512(rows, c + h * 2 * NR * ldc, ldc, mr,
                                    std::min(nr - h * 2 * NR, 2 * NR),
                                    accumulate);
    }
  } else {
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
}

template <class A, class B, int kRows>
FLEDA_TARGET_AVX512 void micro_kernel_avx512_rows(
    const A& a, const B& b, std::int64_t kc, float* c, std::int64_t ldc,
    std::int64_t mr, std::int64_t nr, bool accumulate) {
  switch ((nr + NR - 1) / NR) {
    case 1:
      return micro_kernel_avx512_tile<A, B, 1, kRows>(a, b, kc, c, ldc, mr,
                                                      nr, accumulate);
    case 2:
      return micro_kernel_avx512_tile<A, B, 2, kRows>(a, b, kc, c, ldc, mr,
                                                      nr, accumulate);
    case 3:
      return micro_kernel_avx512_tile<A, B, 3, kRows>(a, b, kc, c, ldc, mr,
                                                      nr, accumulate);
    default:
      return micro_kernel_avx512_tile<A, B, 4, kRows>(a, b, kc, c, ldc, mr,
                                                      nr, accumulate);
  }
}

// 2 MR x 4 NR: two A micro-panels against four B micro-panels per
// call, the B panels joined in pairs; a call with fewer rows or panels
// left runs the tile that covers just them.
template <class A, class B>
FLEDA_TARGET_AVX512 void micro_kernel_avx512(const A& a, const B& b,
                                             std::int64_t kc, float* c,
                                             std::int64_t ldc,
                                             std::int64_t mr, std::int64_t nr,
                                             bool accumulate) {
  if (mr > MR) {
    micro_kernel_avx512_rows<A, B, 2 * MR>(a, b, kc, c, ldc, mr, nr,
                                           accumulate);
  } else {
    micro_kernel_avx512_rows<A, B, MR>(a, b, kc, c, ldc, mr, nr, accumulate);
  }
}

#endif  // FLEDA_X86_KERNELS

// Steps gemm_kernel_rows(isa) rows and gemm_kernel_columns(isa) columns
// of C per call.
template <class A, class B>
MicroKernel<A, B> micro_kernel_for(KernelIsa isa) {
  MicroKernel<A, B> kernel{micro_kernel_portable<A, B>,
                           gemm_kernel_columns(isa) / NR,
                           gemm_kernel_rows(isa) / MR};
#if FLEDA_X86_KERNELS
  if (isa == KernelIsa::kAvx2) kernel.run = micro_kernel_avx2<A, B>;
  if (isa == KernelIsa::kAvx512) kernel.run = micro_kernel_avx512<A, B>;
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
  const MicroKernel<PackedA, B> kernel =
      micro_kernel_for<PackedA, B>(plan.isa);
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
            kernel.run(PackedA{ap, a_next}, b_at(jp), kc, c + i0 * n + j0, n,
                       mr,
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

// Exactly one of `b` (the plan's memory layout) and `implicit` (a kNN
// conv column matrix read from its padded image) is set.
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

  if (implicit != nullptr &&
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

  // Shared packed-B block, its panels in pairs: panels are written
  // disjointly by the packing parallel_for and read-only during compute,
  // all through the calling thread's persistent aligned scratch.
  const std::int64_t nc_max = plan.nc;
  const std::size_t bpack_elems =
      static_cast<std::size_t>(paired_cols(nc_max) * kc_max);
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
                float* dst =
                    paired_panel(bpack, static_cast<std::int64_t>(jp), kc);
                if (implicit != nullptr) {
                  pack_b_panel_implicit(*implicit, pc, kc, j0, nr, dst);
                } else {
                  pack_b_panel(op, b, k, n, pc, kc, j0, nr, dst);
                }
              }
            },
            /*grain=*/4);
      }
      const auto b_at = [&](std::int64_t jp) {
        return PairedB{paired_panel(bpack, jp, kc), kc};
      };
      multiply_slice<PairedB>(plan, a, apack_full, pc, kc, jc, nc, b_at, c,
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

void pack_a(const GemmPlan& plan, const float* a, float* apack,
            const std::int64_t* column, std::int64_t row_stride) {
  const std::int64_t m = plan.shape.m;
  const std::int64_t k = plan.shape.k;
  const std::int64_t mpanels = (m + MR - 1) / MR;
  ProfileScope pack(phase::kKernelPack);
  parallel_for(
      static_cast<std::size_t>(mpanels),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t ip = begin; ip < end; ++ip) {
          const std::int64_t i0 = static_cast<std::int64_t>(ip) * MR;
          const std::int64_t mr = std::min<std::int64_t>(MR, m - i0);
          float* dst = apack + static_cast<std::int64_t>(ip) * k * MR;
          if (column == nullptr) {
            pack_a_panel(plan.shape.op, a, m, k, i0, mr, 0, k, dst);
            continue;
          }
          for (std::int64_t p = 0; p < k; ++p) {
            for (std::int64_t r = 0; r < MR; ++r) {
              dst[p * MR + r] =
                  r < mr ? a[(i0 + r) * row_stride + column[p]] : 0.0f;
            }
          }
        }
      },
      /*grain=*/4);
}

void gemm_packed(const GemmPlan& plan, const float* a, const float* b,
                 float* c, bool accumulate) {
  gemm_packed_impl(plan, a, /*apack_full=*/nullptr, b, /*implicit=*/nullptr,
                   c, accumulate, 0, plan.shape.n);
}

void gemm_packed_implicit(const GemmPlan& plan, const float* a,
                          const float* apack, const ImplicitCols& b,
                          float* c, bool accumulate, std::int64_t col_begin,
                          std::int64_t col_end) {
  if (plan.shape.op != GemmOp::kNN) {
    throw std::invalid_argument("gemm_packed_implicit: kNN plans only");
  }
  if (col_begin < 0 || col_begin > col_end || col_end > plan.shape.n) {
    throw std::invalid_argument("gemm_packed_implicit: bad column range");
  }
  gemm_packed_impl(plan, a, apack, /*b=*/nullptr, &b, c, accumulate,
                   col_begin, col_end);
}

std::size_t packed_b_elems(const GemmPlan& plan) {
  return static_cast<std::size_t>(paired_cols(plan.shape.n) * plan.shape.k);
}

void pack_b(const GemmPlan& plan, const float* b, float* bpack) {
  if (plan.shape.op != GemmOp::kBT) {
    throw std::invalid_argument("pack_b: kBT plans only");
  }
  const std::int64_t k = plan.shape.k;
  const std::int64_t n = plan.shape.n;
  const std::int64_t kc_max = std::min(k, kGemmKC);
  const std::int64_t cols = paired_cols(n);
  ProfileScope pack(phase::kKernelPack);
  for (std::int64_t pc = 0; pc < k; pc += kc_max) {
    const std::int64_t kc = std::min(kc_max, k - pc);
    for (std::int64_t j = 0; j < cols; ++j) {
      // Column j % NR of panel j / NR, one float per depth row.
      float* dst = paired_panel(bpack + pc * cols, j / NR, kc) + j % NR;
      for (std::int64_t p = 0; p < kc; ++p) {
        dst[p * kPairRow] = j < n ? b[j * k + pc + p] : 0.0f;
      }
    }
  }
}

void gemm_packed_implicit_a(const GemmPlan& plan, const ImplicitCols& a,
                            const float* bpack, float* c,
                            std::int64_t row_begin, std::int64_t row_end) {
  if (plan.shape.op != GemmOp::kBT) {
    throw std::invalid_argument("gemm_packed_implicit_a: kBT plans only");
  }
  if (row_begin < 0 || row_begin > row_end || row_end > plan.shape.m) {
    throw std::invalid_argument("gemm_packed_implicit_a: bad row range");
  }
  const MicroKernel<InPlaceA, PairedB> kernel =
      micro_kernel_for<InPlaceA, PairedB>(plan.isa);
  const std::int64_t m = plan.shape.m;
  const std::int64_t k = plan.shape.k;
  const std::int64_t n = plan.shape.n;
  const std::int64_t kc_max = std::min(k, kGemmKC);
  const std::int64_t npanels = (n + NR - 1) / NR;
  const std::int64_t call_rows = kernel.a_panels * MR;
  for (std::int64_t pc = 0; pc < k; pc += kc_max) {
    const std::int64_t kc = std::min(kc_max, k - pc);
    const float* slice = bpack + pc * paired_cols(n);
    for (std::int64_t i0 = row_begin; i0 < row_end; i0 += call_rows) {
      const std::int64_t mr = std::min(call_rows, row_end - i0);
      InPlaceA tile;
      for (std::int64_t r = 0; r < 2 * MR; ++r) {
        tile.row[r] = a.padded + a.row_offset[i0 + (r < mr ? r : 0)];
      }
      tile.pixel_offset = a.pixel_offset + pc;
      for (std::int64_t jp = 0; jp < npanels; jp += kernel.panels) {
        const PairedB panels{paired_panel(slice, jp, kc), kc};
        kernel.run(tile, panels, kc, c + jp * NR * m + i0, m, mr,
                   std::min(kernel.panels * NR, n - jp * NR),
                   /*accumulate=*/true);
      }
    }
  }
}

}  // namespace fleda
