// White-box behavioural tests of individual deviation agents: what exactly
// each strategy emits, checked against its specification.
#include <gtest/gtest.h>

#include <memory>

#include "core/payloads.hpp"
#include "rational/strategies.hpp"
#include "support/rng.hpp"

namespace rfc::rational {
namespace {

struct Harness {
  Harness()
      : params(core::ProtocolParams::make(64, 2.0)),
        coalition(make_prefix_coalition(4)),
        rng(11) {}

  sim::Context ctx(sim::AgentId self, std::uint64_t round = 0) {
    sim::Context c;
    c.self = self;
    c.n = params.n;
    c.round = round;
    c.rng = &rng;
    return c;
  }

  core::ProtocolParams params;
  CoalitionPtr coalition;
  rfc::support::Xoshiro256 rng;
};

TEST(SelfishVotingWhitebox, DeclaresOnlyZeroVotesAtBeneficiary) {
  Harness h;
  SelfishVotingAgent agent(h.params, 1, h.coalition);
  agent.on_start(h.ctx(2));
  ASSERT_EQ(agent.intention().size(), h.params.q);
  for (const core::VoteEntry& e : agent.intention()) {
    EXPECT_EQ(e.value, 0u);
    EXPECT_EQ(e.target, h.coalition->beneficiary());
  }
  // And the declaration is published to the blackboard.
  EXPECT_TRUE(h.coalition->declared_intentions().contains(2));
}

TEST(PlayDeadWhitebox, SilentInCommitmentButVotes) {
  Harness h;
  PlayDeadAgent agent(h.params, 1, h.coalition);
  agent.on_start(h.ctx(3));
  // Commitment pull gets silence.
  EXPECT_TRUE(agent.serve_pull(h.ctx(3, 0), 9).empty());
  // Yet the voting action is a real push at the beneficiary.
  const sim::Action a = agent.on_round(h.ctx(3, h.params.q));
  EXPECT_EQ(a.kind, sim::ActionKind::kPush);
  EXPECT_EQ(a.target, h.coalition->beneficiary());
}

TEST(EquivocateWhitebox, FreshLiePerAuditor) {
  Harness h;
  EquivocatingAgent agent(h.params, 1, h.coalition);
  agent.on_start(h.ctx(2));
  const auto r1 = agent.serve_pull(h.ctx(2, 0), 10);
  const auto r2 = agent.serve_pull(h.ctx(2, 0), 11);
  ASSERT_NE(core::intention_in(r1), nullptr);
  ASSERT_NE(core::intention_in(r2), nullptr);
  const auto& h1 = *core::intention_in(r1);
  const auto& h2 = *core::intention_in(r2);
  EXPECT_NE(h1, h2);  // Two lies; collision probability ~0.
  EXPECT_NE(h1, agent.intention());  // And neither matches the real plan.
}

TEST(ForgedEmptyCertWhitebox, BeneficiaryForgesOthersHonest) {
  Harness h;
  ForgedEmptyCertAgent beneficiary(h.params, 1, h.coalition);
  ForgedEmptyCertAgent member(h.params, 1, h.coalition);
  beneficiary.on_start(h.ctx(0));
  member.on_start(h.ctx(2));
  // Drive both to the Find-Min entry round via on_round.
  const auto find_min_round = 2ull * h.params.q;
  const sim::Action ab = beneficiary.on_round(h.ctx(0, find_min_round));
  const sim::Action am = member.on_round(h.ctx(2, find_min_round));
  EXPECT_EQ(ab.kind, sim::ActionKind::kPull);
  EXPECT_EQ(am.kind, sim::ActionKind::kPull);
  EXPECT_EQ(beneficiary.own_certificate().k, 0u);
  EXPECT_TRUE(beneficiary.own_certificate().votes.empty());
  // The non-beneficiary member built an honest (empty here, but computed)
  // certificate via the base path.
  EXPECT_EQ(member.own_certificate().k,
            member.own_certificate().vote_sum(h.params));
}

TEST(ForgedCoalitionCertWhitebox, CertContainsExactlyDeclaredVotes) {
  Harness h;
  // Two members declare; then the beneficiary forges.
  ForgedCoalitionCertAgent m1(h.params, 1, h.coalition);
  ForgedCoalitionCertAgent m2(h.params, 1, h.coalition);
  ForgedCoalitionCertAgent beneficiary(h.params, 1, h.coalition);
  m1.on_start(h.ctx(1));
  m2.on_start(h.ctx(2));
  beneficiary.on_start(h.ctx(0));
  beneficiary.on_round(h.ctx(0, 2ull * h.params.q));
  const core::Certificate& ce = beneficiary.own_certificate();
  EXPECT_EQ(ce.k, 0u);
  // Every declared (member, j) pair targeting the beneficiary appears.
  // All three declared q zero-votes each at label 0.
  EXPECT_EQ(ce.votes.size(), 3ull * h.params.q);
  for (const core::ReceivedVote& v : ce.votes) {
    EXPECT_EQ(v.value, 0u);
    EXPECT_TRUE(v.voter <= 2);
  }
}

TEST(VoteDropWhitebox, DropsVotesToMinimizeKey) {
  Harness h;
  VoteDropAgent agent(h.params, 1, h.coalition);
  agent.on_start(h.ctx(0));
  // Inject received votes by pushing during the Voting phase.
  const auto vote_round = static_cast<std::uint64_t>(h.params.q);
  const auto push = [&](sim::AgentId from, std::uint64_t value) {
    agent.on_push(h.ctx(0, vote_round), from,
                  core::make_vote_payload(value, h.params));
  };
  push(10, 100);
  push(11, 7);
  push(12, 50);
  agent.on_round(h.ctx(0, 2ull * h.params.q));  // Builds the certificate.
  // Best drop of up to two votes: remove 100 and 50, keep 7.
  EXPECT_EQ(agent.own_certificate().k, 7u);
  EXPECT_EQ(agent.own_certificate().votes.size(), 1u);
}

TEST(StubbornWhitebox, IgnoresSmallerHonestCertificates) {
  Harness h;
  StubbornCertAgent agent(h.params, 1, h.coalition);
  agent.on_start(h.ctx(0));
  // Give the agent a nonzero key so smaller certificates exist.
  agent.on_push(h.ctx(0, h.params.q), 10,
                core::make_vote_payload(500, h.params));
  agent.on_round(h.ctx(0, 2ull * h.params.q));  // Build own certificate.
  const std::uint64_t own_k = agent.min_certificate().k;
  ASSERT_EQ(own_k, 500u);

  core::Certificate honest_smaller;
  honest_smaller.k = 0;
  honest_smaller.owner = 50;  // Outside the coalition.
  agent.on_pull_reply(
      h.ctx(0, 2ull * h.params.q), 50,
      core::make_certificate_payload(honest_smaller, h.params));
  EXPECT_EQ(agent.min_certificate().k, own_k);  // Not adopted.

  core::Certificate coalition_smaller = honest_smaller;
  coalition_smaller.owner = 2;  // Coalition member.
  agent.on_pull_reply(
      h.ctx(0, 2ull * h.params.q), 2,
      core::make_certificate_payload(coalition_smaller, h.params));
  EXPECT_EQ(agent.min_certificate().owner, 2u);  // Adopted.
}

TEST(AdaptiveVoteWhitebox, FixerCancelsPublishedSum) {
  Harness h;
  // A coalition whose beneficiary (3) differs from the fixer (1).
  const auto coalition =
      std::make_shared<Coalition>(std::vector<sim::AgentId>{1, 2, 3}, 3);
  AdaptiveVoteAgent member(h.params, 1, coalition);
  member.on_start(h.ctx(1));
  coalition->publish_beneficiary_vote_sum(1000);
  // Last voting round: the fixer (label 1) votes m - 1000 at label 3.
  const sim::Action a =
      member.on_round(h.ctx(1, 2ull * h.params.q - 1));
  ASSERT_EQ(a.kind, sim::ActionKind::kPush);
  EXPECT_EQ(a.target, 3u);
  ASSERT_TRUE(core::is_vote(a.payload));
  EXPECT_EQ(core::vote_value_in(a.payload), (h.params.m - 1000) % h.params.m);
}

TEST(AdaptiveVoteWhitebox, BeneficiaryPublishesItsVoteSumAfterFindMin) {
  Harness h;
  const auto coalition =
      std::make_shared<Coalition>(std::vector<sim::AgentId>{1, 2, 3}, 3);
  AdaptiveVoteAgent adaptive(h.params, 1, coalition);
  core::ProtocolAgent& beneficiary = adaptive;  // on_push is public here.
  beneficiary.on_start(h.ctx(3));
  beneficiary.on_push(h.ctx(3, h.params.q), 10,
                      core::make_vote_payload(999, h.params));
  EXPECT_EQ(coalition->beneficiary_vote_sum(), 999u);
  // Find-Min begins: CE_u is built from W_u.  A later push (any phase)
  // republishes the sum, which must still be W_u's.
  beneficiary.on_round(h.ctx(3, 2ull * h.params.q));
  ASSERT_TRUE(beneficiary.has_own_certificate());
  beneficiary.on_push(h.ctx(3, 3ull * h.params.q), 11,
                      core::make_digest_payload(7));
  EXPECT_EQ(coalition->beneficiary_vote_sum(), 999u);
  EXPECT_EQ(beneficiary.received_votes().size(), 1u);
}

TEST(SkipVerificationWhitebox, AcceptsAnyCertificateColor) {
  Harness h;
  SkipVerificationAgent agent(h.params, 1, h.coalition);
  agent.on_start(h.ctx(2));
  agent.on_push(h.ctx(2, h.params.q), 10,
                core::make_vote_payload(999, h.params));
  agent.on_round(h.ctx(2, 2ull * h.params.q));  // Build cert (k = 999).
  core::Certificate bogus;
  bogus.k = 0;
  bogus.color = 7;
  bogus.owner = 60;
  agent.on_pull_reply(
      h.ctx(2, 2ull * h.params.q), 60,
      core::make_certificate_payload(bogus, h.params));
  // Finalize without verification: adopts color 7 despite no audit trail.
  agent.on_round(h.ctx(2, 4ull * h.params.q));
  EXPECT_TRUE(agent.decided());
  EXPECT_FALSE(agent.failed());
  EXPECT_EQ(agent.decision(), 7);
}

}  // namespace
}  // namespace rfc::rational
