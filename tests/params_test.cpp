#include "core/params.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>

namespace rfc::core {
namespace {

TEST(ProtocolParams, BasicDerivation) {
  const auto p = ProtocolParams::make(1024, 4.0);
  EXPECT_EQ(p.n, 1024u);
  EXPECT_EQ(p.m, 1024ull * 1024 * 1024);
  EXPECT_EQ(p.q, static_cast<std::uint32_t>(
                     std::ceil(4.0 * std::log(1024.0))));
  EXPECT_TRUE(p.strict_verification);
}

TEST(ProtocolParams, ValidationErrors) {
  EXPECT_THROW(ProtocolParams::make(0), std::invalid_argument);
  EXPECT_THROW(ProtocolParams::make(100, 0.0), std::invalid_argument);
  EXPECT_THROW(ProtocolParams::make(100, -1.0), std::invalid_argument);
  EXPECT_THROW(ProtocolParams::make((1u << 21) + 1), std::invalid_argument);
  EXPECT_NO_THROW(ProtocolParams::make(1u << 21));
}

TEST(ProtocolParams, PhaseBoundaries) {
  const auto p = ProtocolParams::make(256, 2.0);
  const std::uint64_t q = p.q;
  EXPECT_EQ(p.phase_of_round(0), Phase::kCommitment);
  EXPECT_EQ(p.phase_of_round(q - 1), Phase::kCommitment);
  EXPECT_EQ(p.phase_of_round(q), Phase::kVoting);
  EXPECT_EQ(p.phase_of_round(2 * q - 1), Phase::kVoting);
  EXPECT_EQ(p.phase_of_round(2 * q), Phase::kFindMin);
  EXPECT_EQ(p.phase_of_round(3 * q - 1), Phase::kFindMin);
  EXPECT_EQ(p.phase_of_round(3 * q), Phase::kCoherence);
  EXPECT_EQ(p.phase_of_round(4 * q - 1), Phase::kCoherence);
  EXPECT_EQ(p.phase_of_round(4 * q), Phase::kFinished);
  EXPECT_EQ(p.phase_of_round(4 * q + 100), Phase::kFinished);
}

TEST(ProtocolParams, RoundInPhaseWraps) {
  const auto p = ProtocolParams::make(256, 2.0);
  EXPECT_EQ(p.round_in_phase(0), 0u);
  EXPECT_EQ(p.round_in_phase(p.q), 0u);
  EXPECT_EQ(p.round_in_phase(p.q + 3), 3u);
  EXPECT_EQ(p.round_in_phase(3ull * p.q + (p.q - 1)), p.q - 1);
}

TEST(ProtocolParams, RoundInPhaseIsTheModulusThroughoutAndPastTheSchedule) {
  // (2, 0.1) gives q = 1, the degenerate schedule.
  const std::pair<std::uint32_t, double> cases[] = {
      {1, 4.0}, {2, 0.1}, {3, 1.0}, {256, 2.0}, {2048, 4.0}, {1u << 20, 1.0}};
  for (const auto& [n, gamma] : cases) {
    const auto p = ProtocolParams::make(n, gamma);
    SCOPED_TRACE(p.q);
    for (std::uint64_t r = 0; r <= 4ull * p.q + 16; ++r) {
      ASSERT_EQ(p.round_in_phase(r), r % p.q) << "round " << r;
    }
  }
  EXPECT_EQ(ProtocolParams::make(2, 0.1).q, 1u);
}

TEST(ProtocolParams, TotalRounds) {
  const auto p = ProtocolParams::make(100, 3.0);
  EXPECT_EQ(p.communication_rounds(), 4ull * p.q);
  EXPECT_EQ(p.total_rounds(), 4ull * p.q + 1);
}

TEST(ProtocolParams, BitWidths) {
  const auto p = ProtocolParams::make(1024, 4.0);
  EXPECT_EQ(p.label_bits(), 10u);
  EXPECT_EQ(p.value_bits(), 30u);  // log2(1024^3).
  EXPECT_EQ(p.color_bits(), 10u);
  EXPECT_GE(p.round_bits(), 1u);
}

TEST(ProtocolParams, TinyNetworksStillValid) {
  const auto p = ProtocolParams::make(1, 4.0);
  EXPECT_GE(p.q, 1u);
  EXPECT_EQ(p.m, 1u);
  const auto p2 = ProtocolParams::make(2, 0.1);
  EXPECT_GE(p2.q, 1u);
}

TEST(ProtocolParams, MessageSizeIsPolylog) {
  // The certificate budget the paper quotes: q * (value + label) bits for
  // intentions must be O(log^2 n).
  for (const std::uint32_t n : {256u, 4096u, 65536u}) {
    const auto p = ProtocolParams::make(n, 4.0);
    const double log2n = std::log2(static_cast<double>(n));
    const double intention_bits =
        static_cast<double>(p.q) * (p.value_bits() + p.label_bits());
    EXPECT_LT(intention_bits, 40.0 * log2n * log2n);
  }
}

}  // namespace
}  // namespace rfc::core
