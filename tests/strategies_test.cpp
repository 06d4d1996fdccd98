// Behavioural tests of each deviation strategy: what the attack does, and
// how Protocol P punishes it.
#include "rational/strategies.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "analysis/equilibrium.hpp"
#include "core/payloads.hpp"
#include "core/runner.hpp"
#include "end_state_digest.hpp"

namespace rfc::rational {
namespace {

/// Runs `trials` executions of strategy `s` with a coalition of size t
/// (color 1) against honest agents (color 0) and returns (wins, failures).
struct AttackOutcome {
  std::uint64_t coalition_wins = 0;
  std::uint64_t failures = 0;
  std::uint64_t trials = 0;
};

AttackOutcome run_attack(DeviationStrategy s, std::uint32_t n,
                         std::uint32_t t, std::uint64_t trials,
                         bool strict = true, double gamma = 4.0) {
  AttackOutcome outcome;
  outcome.trials = trials;
  for (std::uint64_t i = 0; i < trials; ++i) {
    core::RunConfig cfg;
    cfg.n = n;
    cfg.gamma = gamma;
    cfg.seed = 1000 + i;
    cfg.strict_verification = strict;
    cfg.colors.assign(n, 0);
    const CoalitionPtr coalition = make_prefix_coalition(t);
    for (std::uint32_t j = 0; j < t; ++j) cfg.colors[j] = 1;
    cfg.coalition = coalition->members();
    cfg.factory = make_deviating_factory(s, coalition);
    const core::RunResult r = core::run_protocol(cfg);
    if (r.failed()) {
      ++outcome.failures;
    } else if (r.winner == 1) {
      ++outcome.coalition_wins;
    }
  }
  return outcome;
}

TEST(Coalition, ConstructionAndAccessors) {
  const auto c = make_prefix_coalition(4);
  EXPECT_EQ(c->size(), 4u);
  EXPECT_EQ(c->beneficiary(), 0u);
  EXPECT_EQ(c->fixer(), 0u);
  EXPECT_TRUE(c->contains(3));
  EXPECT_FALSE(c->contains(4));
}

TEST(Coalition, BeneficiaryMustBeMember) {
  EXPECT_THROW(Coalition({1, 2}, 5), std::invalid_argument);
  EXPECT_THROW(Coalition({}, 0), std::invalid_argument);
}

TEST(Coalition, BlackboardRoundTrips) {
  const auto c = make_prefix_coalition(2);
  core::VoteIntention h(3, {7, 0});
  c->publish_intention(1, h);
  EXPECT_EQ(c->declared_intentions().at(1), h);
  c->publish_beneficiary_vote_sum(42);
  EXPECT_EQ(c->beneficiary_vote_sum(), 42u);
}

TEST(Strategies, AllHaveNamesAndFactories) {
  for (const auto s : all_deviation_strategies()) {
    EXPECT_NE(to_string(s), "unknown");
    const auto factory = make_deviating_factory(s, make_prefix_coalition(2));
    ASSERT_TRUE(factory);
    const auto params = core::ProtocolParams::make(16, 2.0);
    auto agent = factory(0, params, 1);
    if (s == DeviationStrategy::kHonest) {
      EXPECT_EQ(agent, nullptr);
    } else {
      EXPECT_NE(agent, nullptr);
    }
  }
}

TEST(Strategies, HonestControlWinsAtFairShare) {
  const auto outcome = run_attack(DeviationStrategy::kHonest, 64, 16, 60);
  EXPECT_EQ(outcome.failures, 0u);
  const double rate =
      static_cast<double>(outcome.coalition_wins) / outcome.trials;
  EXPECT_NEAR(rate, 0.25, 0.17);  // Fair share 16/64 with wide CI.
}

TEST(Strategies, SelfishVotingGainsNothing) {
  const auto outcome =
      run_attack(DeviationStrategy::kSelfishVoting, 64, 16, 60);
  // Votes stay consistent with declarations: no failures, no gain.
  EXPECT_EQ(outcome.failures, 0u);
  const double rate =
      static_cast<double>(outcome.coalition_wins) / outcome.trials;
  EXPECT_LT(rate, 0.25 + 0.17);
}

TEST(Strategies, ForgedEmptyCertIsCaughtByStrictVerification) {
  const auto outcome =
      run_attack(DeviationStrategy::kForgedEmptyCert, 64, 4, 40);
  // The forged k=0 certificate always wins Find-Min, and the completeness
  // audit then fails the protocol (votes for the beneficiary were declared
  // to honest auditors but are absent from W).
  EXPECT_EQ(outcome.coalition_wins, 0u);
  EXPECT_GT(outcome.failures, 35u);
}

TEST(Strategies, ForgedCoalitionCertCaughtStrictButWinsLax) {
  const auto strict =
      run_attack(DeviationStrategy::kForgedCoalitionCert, 64, 4, 40, true);
  EXPECT_EQ(strict.coalition_wins, 0u);
  EXPECT_GT(strict.failures, 35u);

  // Ablation: with value-only verification the same attack wins outright —
  // the completeness check is load-bearing (proof of Claim 1).
  const auto lax =
      run_attack(DeviationStrategy::kForgedCoalitionCert, 64, 4, 40, false);
  EXPECT_GT(lax.coalition_wins, 35u);
  EXPECT_EQ(lax.failures, 0u);
}

TEST(Strategies, VoteDropCaughtStrict) {
  const auto outcome = run_attack(DeviationStrategy::kVoteDrop, 64, 4, 40);
  // Whenever the dropped-vote certificate wins Find-Min, some auditor holds
  // the dropped voter's declaration and fails the protocol; the coalition
  // can never *win* with a tampered certificate.
  const double win_rate =
      static_cast<double>(outcome.coalition_wins) / outcome.trials;
  EXPECT_LT(win_rate, 4.0 / 64 + 0.15);
}

TEST(Strategies, StubbornCertForcesFailure) {
  const auto outcome =
      run_attack(DeviationStrategy::kStubbornCert, 64, 8, 40);
  // Honest agents receive mismatching certificates in Coherence: ⊥ almost
  // always (unless a coalition certificate happens to be the true min).
  EXPECT_GT(outcome.failures, 30u);
}

TEST(Strategies, SkipVerificationChangesNothing) {
  const auto outcome =
      run_attack(DeviationStrategy::kSkipVerification, 64, 16, 60);
  EXPECT_EQ(outcome.failures, 0u);
  const double rate =
      static_cast<double>(outcome.coalition_wins) / outcome.trials;
  EXPECT_NEAR(rate, 0.25, 0.17);
}

TEST(Strategies, FindMinSuppressDoesNotBlockConsensus) {
  const auto outcome =
      run_attack(DeviationStrategy::kFindMinSuppress, 64, 8, 40);
  // Honest pulls route around the suppressors w.h.p.
  EXPECT_LT(outcome.failures, 8u);
}

TEST(Strategies, PlayDeadGainsNothing) {
  const auto outcome = run_attack(DeviationStrategy::kPlayDead, 64, 8, 40);
  const double rate =
      static_cast<double>(outcome.coalition_wins) / outcome.trials;
  EXPECT_LT(rate, 8.0 / 64 + 0.18);
}

TEST(Strategies, EquivocateGainsNothing) {
  const auto outcome = run_attack(DeviationStrategy::kEquivocate, 64, 8, 40);
  const double rate =
      static_cast<double>(outcome.coalition_wins) / outcome.trials;
  EXPECT_LT(rate, 8.0 / 64 + 0.18);
}

/// An honest auditor that also keeps its own copy of the first Commitment
/// reply each peer sent it, taken while the reply's box was still live.
class RecordingAuditor final : public core::ProtocolAgent {
 public:
  struct Receipt {
    bool arena_boxed = false;
    core::VoteIntention intention;
  };

  using core::ProtocolAgent::ProtocolAgent;

  void on_pull_reply(const sim::Context& ctx, sim::AgentId target,
                     const sim::Payload& reply) override {
    if (!done() && params_.phase_of_round(ctx.round) ==
                       core::Phase::kCommitment) {
      if (const core::VoteIntention* h = core::intention_in(reply)) {
        receipts_.try_emplace(target, Receipt{reply.is_arena_boxed(), *h});
      }
    }
    core::ProtocolAgent::on_pull_reply(ctx, target, reply);
  }

  const std::map<sim::AgentId, Receipt>& receipts() const noexcept {
    return receipts_;
  }

 private:
  std::map<sim::AgentId, Receipt> receipts_;
};

TEST(Strategies, EquivocatorLiesOutliveTheirRoundArenas) {
  // Equivocators answer every Commitment pull with a fresh lie boxed in the
  // round arena, which is reset at every round barrier.  An auditor must
  // retain its own copy: after the whole protocol (4q+1 arena resets
  // later) each L_u record for a liar still equals the lie it received.
  core::RunConfig cfg;
  cfg.n = 256;
  cfg.gamma = 4.0;
  cfg.seed = 15;
  cfg.colors = core::split_colors(cfg.n, {0.5, 0.3, 0.2});
  const CoalitionPtr coalition = make_prefix_coalition(16);
  cfg.coalition = coalition->members();
  cfg.factory =
      make_deviating_factory(DeviationStrategy::kEquivocate, coalition);

  auto engine = core::build_protocol_engine(cfg);
  const core::ProtocolParams params =
      core::ProtocolParams::make(cfg.n, cfg.gamma, cfg.strict_verification);
  std::vector<const RecordingAuditor*> auditors;
  for (sim::AgentId u = 0; u < cfg.n; ++u) {
    if (coalition->contains(u)) continue;
    auto auditor = std::make_unique<RecordingAuditor>(
        params, cfg.colors.at(u));
    auditors.push_back(auditor.get());
    engine->set_agent(u, std::move(auditor));
  }
  const core::RunResult result = core::run_protocol_on(*engine, cfg);

  std::size_t lies_checked = 0;
  for (const RecordingAuditor* auditor : auditors) {
    for (const auto& [peer, record] : auditor->collected_intentions()) {
      if (!coalition->contains(peer)) continue;
      const auto receipt = auditor->receipts().find(peer);
      ASSERT_NE(receipt, auditor->receipts().end());
      EXPECT_TRUE(receipt->second.arena_boxed);
      ASSERT_FALSE(record.marked_faulty());
      ASSERT_NE(record.box(), nullptr);
      EXPECT_EQ(record.intention(), receipt->second.intention);
      ++lies_checked;
    }
  }
  EXPECT_GT(lies_checked, 100u);
  // Recording changes nothing, and neither does retaining boxes by handle:
  // this is the end state of plain honest agents against this coalition
  // with L_u holding per-record copies of every intention.
  EXPECT_EQ(rfc::testing::protocol_run_digest(*engine, cfg, result),
            0x53763cc20f358055ull);
}

/// An honest agent that notes whether its latest Find-Min adoption came
/// from an arena-boxed reply, with a copy of that certificate taken while
/// the box was live.
class ArenaAdoptionWatcher final : public core::ProtocolAgent {
 public:
  using core::ProtocolAgent::ProtocolAgent;

  void on_pull_reply(const sim::Context& ctx, sim::AgentId target,
                     const sim::Payload& reply) override {
    const core::Certificate* before = &min_certificate();
    core::ProtocolAgent::on_pull_reply(ctx, target, reply);
    if (params_.phase_of_round(ctx.round) == core::Phase::kFindMin &&
        &min_certificate() != before) {
      last_adoption_from_arena_ = reply.is_arena_boxed();
      last_adopted_ = min_certificate();
    }
  }

  bool last_adoption_from_arena() const noexcept {
    return last_adoption_from_arena_;
  }
  const core::Certificate& last_adopted() const noexcept {
    return last_adopted_;
  }

 private:
  bool last_adoption_from_arena_ = false;
  core::Certificate last_adopted_;
};

TEST(Strategies, SuppressorCertificatesOutliveTheirRoundArenas) {
  // Find-Min suppressors serve their own certificate boxed in the round
  // arena, which is reset at every round barrier.  An honest agent that
  // adopts one must hold a heap copy: rounds later its CE_min still equals
  // what it adopted, and the box it serves is not an arena box.
  core::RunConfig cfg;
  cfg.n = 256;
  cfg.gamma = 4.0;
  cfg.seed = 11;
  cfg.colors = core::split_colors(cfg.n, {0.5, 0.3, 0.2});
  const CoalitionPtr coalition = make_prefix_coalition(128);
  cfg.coalition = coalition->members();
  cfg.factory =
      make_deviating_factory(DeviationStrategy::kFindMinSuppress, coalition);

  auto engine = core::build_protocol_engine(cfg);
  const core::ProtocolParams params =
      core::ProtocolParams::make(cfg.n, cfg.gamma, cfg.strict_verification);
  std::vector<const ArenaAdoptionWatcher*> watchers;
  for (sim::AgentId u = 0; u < cfg.n; ++u) {
    if (coalition->contains(u)) continue;
    auto watcher =
        std::make_unique<ArenaAdoptionWatcher>(params, cfg.colors.at(u));
    watchers.push_back(watcher.get());
    engine->set_agent(u, std::move(watcher));
  }
  const core::RunResult result = core::run_protocol_on(*engine, cfg);
  EXPECT_FALSE(result.failed());

  std::size_t kept_from_arena = 0;
  for (const ArenaAdoptionWatcher* watcher : watchers) {
    if (!watcher->last_adoption_from_arena()) continue;
    EXPECT_FALSE(watcher->min_certificate_payload().is_arena_boxed());
    EXPECT_EQ(watcher->min_certificate(), watcher->last_adopted());
    EXPECT_FALSE(watcher->failed());
    ++kept_from_arena;
  }
  // At this seed a suppressor owns the global minimum, so honest agents
  // end Find-Min on a certificate that reached them in an arena box.
  EXPECT_GT(kept_from_arena, 5u);
}

TEST(Strategies, ForgingStillCaughtUnderDigestCoherence) {
  // The digest optimization must not weaken the audit chain: forged
  // certificates still lose under strict verification.
  std::uint64_t wins = 0, failures = 0;
  for (std::uint64_t i = 0; i < 30; ++i) {
    core::RunConfig cfg;
    cfg.n = 64;
    cfg.gamma = 4.0;
    cfg.seed = 4000 + i;
    cfg.coherence_digest = true;
    cfg.colors.assign(64, 0);
    const CoalitionPtr coalition = make_prefix_coalition(4);
    for (std::uint32_t j = 0; j < 4; ++j) cfg.colors[j] = 1;
    cfg.coalition = coalition->members();
    cfg.factory = make_deviating_factory(
        DeviationStrategy::kForgedCoalitionCert, coalition);
    const core::RunResult r = core::run_protocol(cfg);
    if (r.failed()) {
      ++failures;
    } else if (r.winner == 1) {
      ++wins;
    }
  }
  EXPECT_EQ(wins, 0u);
  EXPECT_GT(failures, 25u);
}

TEST(Strategies, AdaptiveVoteCannotBeatAudits) {
  const auto outcome =
      run_attack(DeviationStrategy::kAdaptiveVote, 64, 8, 40);
  // Voting differently from the declaration is caught whenever the forged
  // votes back the winning certificate: win rate stays at/below fair share.
  const double rate =
      static_cast<double>(outcome.coalition_wins) / outcome.trials;
  EXPECT_LT(rate, 8.0 / 64 + 0.18);
}

}  // namespace
}  // namespace rfc::rational
