#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "rational/strategies.hpp"

namespace rfc::core {
namespace {

TEST(SplitColors, FractionsRespected) {
  const auto colors = split_colors(10, {0.5, 0.3, 0.2});
  EXPECT_EQ(std::count(colors.begin(), colors.end(), 0), 5);
  EXPECT_EQ(std::count(colors.begin(), colors.end(), 1), 3);
  EXPECT_EQ(std::count(colors.begin(), colors.end(), 2), 2);
}

TEST(SplitColors, UnnormalizedFractions) {
  const auto colors = split_colors(8, {1.0, 1.0});
  EXPECT_EQ(std::count(colors.begin(), colors.end(), 0), 4);
  EXPECT_EQ(std::count(colors.begin(), colors.end(), 1), 4);
}

TEST(SplitColors, EmptyFractionsAllZero) {
  const auto colors = split_colors(5, {});
  EXPECT_EQ(std::count(colors.begin(), colors.end(), 0), 5);
}

TEST(LeaderElectionColors, OnePerLabel) {
  const auto colors = leader_election_colors(6);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(colors[i], static_cast<Color>(i));
  }
}

TEST(RunProtocol, ReachesConsensusFaultFree) {
  RunConfig cfg;
  cfg.n = 128;
  cfg.gamma = 4.0;
  cfg.seed = 5;
  cfg.colors = split_colors(cfg.n, {0.5, 0.5});
  const RunResult r = run_protocol(cfg);
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.winner == 0 || r.winner == 1);
  EXPECT_EQ(r.honest_failures, 0u);
  EXPECT_EQ(r.num_active, 128u);
}

TEST(RunProtocol, ValidityWinnerIsInitiallySupported) {
  RunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 4.0;
  cfg.colors = split_colors(cfg.n, {0.9, 0.1});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.seed = seed;
    const RunResult r = run_protocol(cfg);
    ASSERT_FALSE(r.failed());
    EXPECT_TRUE(r.winner == 0 || r.winner == 1);
  }
}

TEST(RunProtocol, RoundsMatchSchedule) {
  RunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 2.0;
  const auto params = ProtocolParams::make(cfg.n, cfg.gamma);
  const RunResult r = run_protocol(cfg);
  EXPECT_EQ(r.rounds, params.total_rounds());
}

TEST(RunProtocol, WinnerAgentSupportsWinnerColor) {
  RunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 4.0;
  cfg.seed = 17;
  const RunResult r = run_protocol(cfg);  // Leader election colors.
  ASSERT_FALSE(r.failed());
  EXPECT_EQ(r.winner, static_cast<Color>(r.winner_agent));
}

TEST(RunProtocol, FaultyAgentNeverWinsLeaderElection) {
  RunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 6.0;
  cfg.num_faulty = 32;
  cfg.placement = sim::FaultPlacement::kPrefix;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    cfg.seed = seed;
    const RunResult r = run_protocol(cfg);
    ASSERT_FALSE(r.failed()) << "seed " << seed;
    EXPECT_GE(r.winner, 32);  // Labels 0..31 are dead.
    EXPECT_EQ(r.num_active, 32u);
  }
}

TEST(RunProtocol, SurvivesEveryPlacementAtAlphaHalf) {
  for (const auto placement : sim::all_fault_placements()) {
    if (placement == sim::FaultPlacement::kNone) continue;
    RunConfig cfg;
    cfg.n = 64;
    cfg.gamma = 6.0;
    cfg.num_faulty = 32;
    cfg.placement = placement;
    cfg.seed = 3;
    const RunResult r = run_protocol(cfg);
    EXPECT_FALSE(r.failed()) << sim::to_string(placement);
  }
}

TEST(RunProtocol, ActiveColorHistogramExcludesFaulty) {
  RunConfig cfg;
  cfg.n = 20;
  cfg.gamma = 4.0;
  cfg.colors = split_colors(cfg.n, {0.5, 0.5});  // Labels 0-9: 0, 10-19: 1.
  cfg.num_faulty = 10;
  cfg.placement = sim::FaultPlacement::kPrefix;  // Kills all of color 0.
  const RunResult r = run_protocol(cfg);
  EXPECT_EQ(r.active_colors.size(), 1u);
  EXPECT_EQ(r.active_colors.at(1), 10u);
  ASSERT_FALSE(r.failed());
  EXPECT_EQ(r.winner, 1);  // Fairness degenerates to the only live color.
}

TEST(RunProtocol, GoodExecutionEventsHoldFaultFree) {
  RunConfig cfg;
  cfg.n = 128;
  cfg.gamma = 4.0;
  cfg.seed = 21;
  const RunResult r = run_protocol(cfg);
  EXPECT_GE(r.events.min_votes, 1u);
  EXPECT_TRUE(r.events.k_values_distinct);
  EXPECT_TRUE(r.events.find_min_agreement);
  EXPECT_TRUE(r.events.every_agent_audited);
  EXPECT_TRUE(r.events.every_agent_cleanly_voted);
}

TEST(RunProtocol, MetricsAreWithinModelBounds) {
  RunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 2.0;
  const RunResult r = run_protocol(cfg);
  // At most one active operation per agent per round.
  EXPECT_LE(r.metrics.active_links, r.rounds * cfg.n);
  EXPECT_GT(r.metrics.total_bits, 0u);
  EXPECT_GT(r.metrics.messages(), 0u);
  // Message size bound: certificates are O(log^2 n); sanity-cap at n bits.
  EXPECT_LT(r.metrics.max_message_bits, 64ull * 64);
}

TEST(RunProtocol, FailureCausesAreAttributed) {
  RunConfig cfg;
  cfg.n = 128;
  cfg.gamma = 4.0;
  cfg.seed = 9;
  const auto sum_of = [](const HonestFailureCauses& c) {
    std::uint32_t sum = c.coherence_or_undecided;
    for (const std::uint32_t count : c.verification) sum += count;
    return sum;
  };

  const RunResult clean = run_protocol(cfg);
  EXPECT_EQ(clean.honest_failures, 0u);
  EXPECT_EQ(sum_of(clean.failure_causes), 0u);

  // A stubborn coalition pushes its own certificates in Coherence: honest
  // receivers fail there, before Verification runs.
  const rational::CoalitionPtr coalition = rational::make_prefix_coalition(8);
  cfg.coalition = coalition->members();
  cfg.factory = rational::make_deviating_factory(
      rational::DeviationStrategy::kStubbornCert, coalition);
  const RunResult stubborn = run_protocol(cfg);
  EXPECT_GT(stubborn.failure_causes.coherence_or_undecided, 0u);
  EXPECT_EQ(sum_of(stubborn.failure_causes), stubborn.honest_failures);

  // A forged empty certificate (k = 0, W = {}) wins Find-Min everywhere;
  // honest auditors of a coalition voter then miss its declared vote.
  cfg.factory = rational::make_deviating_factory(
      rational::DeviationStrategy::kForgedEmptyCert, coalition);
  const RunResult forged = run_protocol(cfg);
  EXPECT_GT(forged.failure_causes.of(VerificationFailure::kMissingVote), 0u);
  EXPECT_EQ(forged.failure_causes.of(VerificationFailure::kNone), 0u);
  EXPECT_EQ(sum_of(forged.failure_causes), forged.honest_failures);
}

TEST(RunProtocol, CoalitionLabelsExcludedFromOutcome) {
  RunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 4.0;
  cfg.seed = 9;
  cfg.coalition = {0, 1, 2};  // Honest-behaving coalition (no factory).
  const RunResult r = run_protocol(cfg);
  EXPECT_FALSE(r.failed());
}

TEST(RunProtocol, DigestModeReachesConsensusCheaper) {
  RunConfig cfg;
  cfg.n = 128;
  cfg.gamma = 4.0;
  cfg.seed = 19;
  const RunResult full = run_protocol(cfg);
  cfg.coherence_digest = true;
  const RunResult digest = run_protocol(cfg);
  ASSERT_FALSE(full.failed());
  ASSERT_FALSE(digest.failed());
  // Same seed, same randomness: the winner is identical; only the
  // Coherence pushes shrink.
  EXPECT_EQ(full.winner, digest.winner);
  EXPECT_LT(digest.metrics.total_bits, full.metrics.total_bits);
}

TEST(RunProtocol, DigestModeStaysCorrectAcrossSeeds) {
  RunConfig cfg;
  cfg.n = 96;
  cfg.gamma = 4.0;
  cfg.coherence_digest = true;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    cfg.seed = seed;
    EXPECT_FALSE(run_protocol(cfg).failed()) << "seed " << seed;
  }
}

TEST(Certificate, DigestSeparatesDistinctCertificates) {
  const auto params = ProtocolParams::make(64, 2.0);
  Certificate a = make_certificate(params, 1, 2, {{3, 0, 10}, {4, 1, 20}});
  Certificate b = a;
  EXPECT_EQ(a.digest(), b.digest());
  b.votes[0].value += 1;
  EXPECT_NE(a.digest(), b.digest());
  Certificate c = a;
  c.color = 3;
  EXPECT_NE(a.digest(), c.digest());
  Certificate d = a;
  d.owner = 2;
  EXPECT_NE(a.digest(), d.digest());
  Certificate e = a;
  e.k += 1;
  EXPECT_NE(a.digest(), e.digest());
}

TEST(RunProtocol, LocalMemoryIsPolylog) {
  // The paper's local-memory claim: polylog per agent, dominated by L_u.
  for (const std::uint32_t n : {64u, 1024u}) {
    RunConfig cfg;
    cfg.n = n;
    cfg.gamma = 4.0;
    cfg.seed = 13;
    const RunResult r = run_protocol(cfg);
    EXPECT_GT(r.max_local_memory_bits, 0u);
    // Far below linear: n * one-label would already be n*log n bits.
    const double log2n = std::log2(static_cast<double>(n));
    EXPECT_LT(static_cast<double>(r.max_local_memory_bits),
              60.0 * log2n * log2n * log2n);
  }
}

TEST(RunProtocol, TinyNetworks) {
  for (const std::uint32_t n : {1u, 2u, 3u}) {
    RunConfig cfg;
    cfg.n = n;
    cfg.gamma = 4.0;
    cfg.seed = 2;
    const RunResult r = run_protocol(cfg);
    EXPECT_FALSE(r.failed()) << "n=" << n;
  }
}

}  // namespace
}  // namespace rfc::core
