#include "support/math_util.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rfc::support {
namespace {

TEST(FloorLog2, KnownValues) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(floor_log2(~0ull), 63u);
}

TEST(CeilLog2, KnownValues) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1ull << 40), 40u);
  EXPECT_EQ(ceil_log2((1ull << 40) + 1), 41u);
}

TEST(BitWidthForDomain, NeverZero) {
  EXPECT_EQ(bit_width_for_domain(1), 1u);
  EXPECT_EQ(bit_width_for_domain(2), 1u);
  EXPECT_EQ(bit_width_for_domain(3), 2u);
  EXPECT_EQ(bit_width_for_domain(256), 8u);
  EXPECT_EQ(bit_width_for_domain(257), 9u);
}

// The widths are still usable in constant expressions.
static_assert(floor_log2(1024) == 10);
static_assert(ceil_log2(1025) == 11);
static_assert(bit_width_for_domain(1) == 1);

/// The shift loop the widths replaced, as the reference.
std::uint32_t reference_floor_log2(std::uint64_t x) {
  std::uint32_t r = 0;
  while (x >>= 1) ++r;
  return r;
}

std::uint32_t reference_ceil_log2(std::uint64_t x) {
  return x <= 1 ? 0 : reference_floor_log2(x - 1) + 1;
}

TEST(BitWidths, MatchTheReferenceLoopAroundEveryPowerOfTwo) {
  for (std::uint32_t k = 0; k <= 63; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    for (const std::uint64_t x : {p - 1, p, p + 1}) {
      if (x == 0) continue;
      SCOPED_TRACE(x);
      EXPECT_EQ(floor_log2(x), reference_floor_log2(x));
      EXPECT_EQ(ceil_log2(x), reference_ceil_log2(x));
      const std::uint32_t domain = reference_ceil_log2(x);
      EXPECT_EQ(bit_width_for_domain(x), domain == 0 ? 1u : domain);
    }
  }
  EXPECT_EQ(floor_log2(~0ull), reference_floor_log2(~0ull));
  EXPECT_EQ(ceil_log2(~0ull), reference_ceil_log2(~0ull));
}

TEST(Cube, MatchesMultiplication) {
  EXPECT_EQ(cube(1), 1u);
  EXPECT_EQ(cube(10), 1000u);
  EXPECT_EQ(cube(1u << 21), 1ull << 63);  // The domain boundary for m = n^3.
}

TEST(RoundCount, MatchesCeilGammaLnN) {
  EXPECT_EQ(round_count(4.0, 1024),
            static_cast<std::uint32_t>(std::ceil(4.0 * std::log(1024.0))));
  EXPECT_EQ(round_count(1.0, 2), 1u);
}

TEST(RoundCount, AtLeastOne) {
  EXPECT_GE(round_count(0.01, 2), 1u);
  EXPECT_GE(round_count(0.5, 1), 1u);
}

TEST(RoundCount, MonotoneInGammaAndN) {
  EXPECT_LE(round_count(2.0, 100), round_count(4.0, 100));
  EXPECT_LE(round_count(4.0, 100), round_count(4.0, 10'000));
}

}  // namespace
}  // namespace rfc::support
