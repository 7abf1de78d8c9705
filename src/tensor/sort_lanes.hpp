// Lane-parallel sorting of many short columns at once, the kernel behind
// the rank-based aggregation rules (coordinate median, trimmed mean).
//
// A block holds n rows of kSortLanes keys: row r starts at
// block + r * kSortLanes, and lane l (one column) is the n keys
// block[r * kSortLanes + l]. sort_lanes() sorts every lane ascending by
// running one sorting network over the rows: each comparator (lo, hi)
// is an element-wise min into row lo and max into row hi across all
// lanes, so the work has no data-dependent branch and vectorizes whole.
//
// Keys are floats mapped by sort_key() onto int32 so that signed
// integer order is the IEEE 754 total order: -0 sorts before +0, and
// equal floats have equal keys. For finite values that is the order of
// `<`, with ±0 ties broken canonically, so a lane sorted here matches
// std::sort of the same floats value for value. Precondition: finite
// input. NaNs would still sort deterministically (by sign, then
// payload), but no longer match what `<` would do.
//
// Like the other float kernels (tensor/plan.hpp) there is a portable
// body and, on x86, an AVX2 body picked by kernel_isa(); both apply the
// same comparators, so the result does not depend on the ISA.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace fleda {

inline constexpr std::size_t kSortLanes = 16;

// The int32 key whose signed order is the IEEE total order of `x`:
// non-negative floats keep their bits, negative ones flip their
// magnitude bits so that larger magnitudes sort lower. The map is its
// own inverse, so from_sort_key() applies it again.
inline std::int32_t sort_key(float x) {
  std::int32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits ^ (bits < 0 ? 0x7FFFFFFF : 0);
}

inline float from_sort_key(std::int32_t key) {
  const std::int32_t bits = key ^ (key < 0 ? 0x7FFFFFFF : 0);
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

// Batcher's odd-even merge sorting network for n keys. It is the
// network for the next power of two with every comparator that touches
// a row >= n dropped: those rows act as +inf padding, which no
// min-low/max-high comparator ever moves. O(n log^2 n) comparators,
// built in microseconds, so a caller builds one per cohort it sorts.
class SortNetwork {
 public:
  struct Comparator {
    std::uint32_t lo;
    std::uint32_t hi;  // lo < hi; min goes to lo, max to hi
  };

  explicit SortNetwork(std::size_t n);

  std::size_t size() const { return n_; }
  const std::vector<Comparator>& comparators() const { return comparators_; }

 private:
  std::size_t n_;
  std::vector<Comparator> comparators_;
};

// Sorts each of the kSortLanes lanes of `block` (net.size() rows)
// ascending in place. Any int32 alignment is correct; a block from
// aligned_block() is fastest.
void sort_lanes(const SortNetwork& net, std::int32_t* block);

// Sizes `storage` for a block of `rows` rows and returns the block's
// start inside it, 64-byte aligned: each row of kSortLanes keys is then
// exactly one cache line, so no vector load or store straddles two.
std::int32_t* aligned_block(std::vector<std::int32_t>& storage,
                            std::size_t rows);

}  // namespace fleda
