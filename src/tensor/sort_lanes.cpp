#include "tensor/sort_lanes.hpp"

#include <cstring>
#include <memory>

#include "tensor/plan.hpp"

#if FLEDA_X86_KERNELS
#include <immintrin.h>
#endif

namespace fleda {
namespace {

// Each comparator is a lane-wise min/max of two rows. The rows are
// copied to locals first: with no possible aliasing between them, the
// compiler vectorizes the fixed-width lane loop on any ISA.
void sort_lanes_portable(const SortNetwork& net, std::int32_t* block) {
  for (const SortNetwork::Comparator& c : net.comparators()) {
    std::int32_t* lo = block + c.lo * kSortLanes;
    std::int32_t* hi = block + c.hi * kSortLanes;
    std::int32_t a[kSortLanes], b[kSortLanes];
    std::memcpy(a, lo, sizeof(a));
    std::memcpy(b, hi, sizeof(b));
    for (std::size_t l = 0; l < kSortLanes; ++l) {
      // swap = all ones when the pair is out of order: a branch-free
      // compare-exchange that SSE2 already vectorizes.
      const std::int32_t swap = -static_cast<std::int32_t>(b[l] < a[l]);
      const std::int32_t d = (a[l] ^ b[l]) & swap;
      a[l] ^= d;
      b[l] ^= d;
    }
    std::memcpy(lo, a, sizeof(a));
    std::memcpy(hi, b, sizeof(b));
  }
}

#if FLEDA_X86_KERNELS

static_assert(kSortLanes == 16,
              "a row is two AVX2 vectors, one AVX-512 vector");

FLEDA_TARGET_AVX2 void sort_lanes_avx2(const SortNetwork& net,
                                       std::int32_t* block) {
  auto* rows = reinterpret_cast<__m256i*>(block);
  for (const SortNetwork::Comparator& c : net.comparators()) {
    __m256i* lo = rows + 2 * c.lo;
    __m256i* hi = rows + 2 * c.hi;
    const __m256i a0 = _mm256_loadu_si256(lo);
    const __m256i a1 = _mm256_loadu_si256(lo + 1);
    const __m256i b0 = _mm256_loadu_si256(hi);
    const __m256i b1 = _mm256_loadu_si256(hi + 1);
    _mm256_storeu_si256(lo, _mm256_min_epi32(a0, b0));
    _mm256_storeu_si256(lo + 1, _mm256_min_epi32(a1, b1));
    _mm256_storeu_si256(hi, _mm256_max_epi32(a0, b0));
    _mm256_storeu_si256(hi + 1, _mm256_max_epi32(a1, b1));
  }
}

// A row of kSortLanes int32 keys is one __m512i. The min/max run in
// their masked forms under a full mask: the plain intrinsics pass an
// _mm512_undefined_epi32() that GCC 12 flags as uninitialized.
FLEDA_TARGET_AVX512 void sort_lanes_avx512(const SortNetwork& net,
                                           std::int32_t* block) {
  constexpr __mmask16 kAll = 0xFFFF;
  auto* rows = reinterpret_cast<__m512i*>(block);
  for (const SortNetwork::Comparator& c : net.comparators()) {
    const __m512i a = _mm512_loadu_si512(rows + c.lo);
    const __m512i b = _mm512_loadu_si512(rows + c.hi);
    _mm512_storeu_si512(rows + c.lo, _mm512_mask_min_epi32(a, kAll, a, b));
    _mm512_storeu_si512(rows + c.hi, _mm512_mask_max_epi32(a, kAll, a, b));
  }
}

#endif  // FLEDA_X86_KERNELS

}  // namespace

SortNetwork::SortNetwork(std::size_t n) : n_(n) {
  // The iterative form of Batcher's odd-even merge sort: pass p merges
  // sorted runs of length p into runs of 2p; sub-pass k compares rows k
  // apart that fall in the same 2p-run. The loop bounds stop at n, which
  // is exactly the pruning of the next power of two's network.
  for (std::size_t p = 1; p < n; p *= 2) {
    for (std::size_t k = p; k >= 1; k /= 2) {
      for (std::size_t j = k % p; j + k < n; j += 2 * k) {
        for (std::size_t i = 0; i < k && i + j + k < n; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            comparators_.push_back({static_cast<std::uint32_t>(i + j),
                                    static_cast<std::uint32_t>(i + j + k)});
          }
        }
      }
    }
  }
}

std::int32_t* aligned_block(std::vector<std::int32_t>& storage,
                            std::size_t rows) {
  constexpr std::size_t kLine = kSortLanes * sizeof(std::int32_t);
  static_assert(kLine == 64, "a row is one cache line");
  storage.assign((rows + 1) * kSortLanes, 0);  // one spare row to align
  void* start = storage.data();
  std::size_t space = storage.size() * sizeof(std::int32_t);
  return static_cast<std::int32_t*>(
      std::align(kLine, rows * kLine, start, space));
}

void sort_lanes(const SortNetwork& net, std::int32_t* block) {
#if FLEDA_X86_KERNELS
  switch (kernel_isa()) {
    case KernelIsa::kAvx2:
      return sort_lanes_avx2(net, block);
    case KernelIsa::kAvx512:
      return sort_lanes_avx512(net, block);
    case KernelIsa::kPortable:
      break;
  }
#endif
  sort_lanes_portable(net, block);
}

}  // namespace fleda
