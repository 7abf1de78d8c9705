// Tests for the lane-parallel sorting kernel (tensor/sort_lanes.hpp):
// the sort key is the IEEE total order, the pruned Batcher network
// sorts every input (0-1 principle, all n <= 20), and sort_lanes()
// matches std::sort on every ISA this host can run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/plan.hpp"
#include "tensor/sort_lanes.hpp"
#include "util/rng.hpp"

namespace fleda {
namespace {

// Restores the probed ISA when a test that pins one ends.
struct IsaGuard {
  KernelIsa saved = kernel_isa();
  ~IsaGuard() { set_kernel_isa(saved); }
};

TEST(SortKey, SignedKeyOrderIsTheIeeeTotalOrder) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  // Strictly ascending in the total order.
  const std::vector<float> ascending = {
      -inf, -FLT_MAX, -1.5f, -FLT_MIN, -denorm, -0.0f, 0.0f,
      denorm, FLT_MIN, 1.0f, 1.5f, FLT_MAX, inf};
  for (std::size_t i = 0; i + 1 < ascending.size(); ++i) {
    EXPECT_LT(sort_key(ascending[i]), sort_key(ascending[i + 1]))
        << ascending[i] << " vs " << ascending[i + 1];
  }
  for (const float x : ascending) {
    const float back = from_sort_key(sort_key(x));
    EXPECT_EQ(std::signbit(back), std::signbit(x));
    EXPECT_EQ(back, x);
  }
}

TEST(SortNetwork, PrunedNetworkSortsEveryZeroOneInputUpTo20) {
  // 0-1 principle: a comparator network sorts every input iff it sorts
  // every 0/1 input. Bit b of word w is input number 64 * w + b, and a
  // comparator on bit-sliced rows is (lo & hi, lo | hi).
  for (std::size_t n = 1; n <= 20; ++n) {
    const SortNetwork net(n);
    const std::uint64_t inputs = std::uint64_t{1} << n;
    const std::uint64_t words = (inputs + 63) / 64;
    std::vector<std::uint64_t> rows(n);
    for (std::uint64_t w = 0; w < words; ++w) {
      for (std::size_t r = 0; r < n; ++r) {
        std::uint64_t bits = 0;
        for (std::uint64_t b = 0; b < 64 && 64 * w + b < inputs; ++b) {
          bits |= ((64 * w + b) >> r & 1u) << b;
        }
        rows[r] = bits;
      }
      for (const SortNetwork::Comparator& c : net.comparators()) {
        ASSERT_LT(c.lo, c.hi);
        ASSERT_LT(c.hi, n);
        const std::uint64_t lo = rows[c.lo];
        const std::uint64_t hi = rows[c.hi];
        rows[c.lo] = lo & hi;
        rows[c.hi] = lo | hi;
      }
      // Sorted ascending: once a row holds a 1, every later row does.
      for (std::size_t r = 0; r + 1 < n; ++r) {
        ASSERT_EQ(rows[r] & ~rows[r + 1], 0u)
            << "n=" << n << " rows " << r << "," << r + 1 << " word " << w;
      }
    }
  }
}

TEST(SortNetwork, SizesMatchBatcher) {
  // Batcher's odd-even merge sort of 2^k keys has
  // (k^2 - k + 4) 2^(k-2) - 1 comparators; pruning only removes some.
  for (std::size_t k = 1; k <= 9; ++k) {
    const std::size_t n = std::size_t{1} << k;
    const std::size_t expected = (k * k - k + 4) * n / 4 - 1;
    EXPECT_EQ(SortNetwork(n).comparators().size(), expected) << "n=" << n;
    EXPECT_LT(SortNetwork(n - 1).comparators().size(), expected);
  }
  EXPECT_TRUE(SortNetwork(0).comparators().empty());
  EXPECT_TRUE(SortNetwork(1).comparators().empty());
}

TEST(SortLanes, ZeroOneInputsThroughTheKernelOnEveryIsa) {
  IsaGuard guard;
  for (const KernelIsa isa : supported_isas()) {
    set_kernel_isa(isa);
    for (std::size_t n = 1; n <= 12; ++n) {
      const SortNetwork net(n);
      std::vector<std::int32_t> block(n * kSortLanes);
      for (std::uint32_t first = 0; first < (1u << n); first += kSortLanes) {
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t l = 0; l < kSortLanes; ++l) {
            const std::uint32_t input = (first + l) & ((1u << n) - 1);
            const float bit = (input >> r & 1u) ? 1.0f : 0.0f;
            block[r * kSortLanes + l] = sort_key(bit);
          }
        }
        sort_lanes(net, block.data());
        for (std::size_t l = 0; l < kSortLanes; ++l) {
          for (std::size_t r = 0; r + 1 < n; ++r) {
            ASSERT_LE(block[r * kSortLanes + l],
                      block[(r + 1) * kSortLanes + l])
                << to_string(isa) << " n=" << n;
          }
        }
      }
    }
  }
}

TEST(SortLanes, MatchesStdSortOnEveryIsa) {
  IsaGuard guard;
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {0.0f,   -0.0f,   FLT_MAX, -FLT_MAX,
                                       denorm, -denorm, FLT_MIN, 1.0f,
                                       1.0f,   -1.0f};
  Rng rng(17);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 16u, 17u, 31u, 200u, 257u}) {
    const SortNetwork net(n);
    std::vector<std::int32_t> input(n * kSortLanes);
    for (std::int32_t& key : input) {
      key = sort_key(rng.bernoulli(0.3)
                         ? specials[rng.uniform_int(specials.size())]
                         : static_cast<float>(rng.uniform(-2.0, 2.0)));
    }
    std::vector<std::vector<std::int32_t>> expected(kSortLanes);
    for (std::size_t l = 0; l < kSortLanes; ++l) {
      for (std::size_t r = 0; r < n; ++r) {
        expected[l].push_back(input[r * kSortLanes + l]);
      }
      std::sort(expected[l].begin(), expected[l].end());
    }
    for (const KernelIsa isa : supported_isas()) {
      set_kernel_isa(isa);
      std::vector<std::int32_t> storage;
      std::int32_t* block = aligned_block(storage, n);
      ASSERT_EQ(reinterpret_cast<std::uintptr_t>(block) % 64, 0u);
      ASSERT_LE(block + n * kSortLanes, storage.data() + storage.size());
      std::copy(input.begin(), input.end(), block);
      sort_lanes(net, block);
      for (std::size_t l = 0; l < kSortLanes; ++l) {
        for (std::size_t r = 0; r < n; ++r) {
          ASSERT_EQ(block[r * kSortLanes + l], expected[l][r])
              << to_string(isa) << " n=" << n << " lane " << l << " row " << r;
        }
      }
    }
  }
  if (!kernel_isa_supported(KernelIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2 not available on this host: portable body only";
  }
}

}  // namespace
}  // namespace fleda
