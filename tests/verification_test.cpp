// Exhaustive tests of the Verification-phase audit — the security core of
// the protocol.
#include "core/verification.hpp"

#include <gtest/gtest.h>

#include "core/payloads.hpp"
#include "core/runner.hpp"
#include "sim/network.hpp"
#include "sim/network_spec.hpp"

namespace rfc::core {
namespace {

class VerificationTest : public ::testing::Test {
 protected:
  VerificationTest() : params_(ProtocolParams::make(64, 2.0)) {}

  /// A consistent world: voter v declared intention H_v, the winner's W
  /// contains exactly the declared votes aimed at the winner.
  void build_consistent_world(sim::AgentId winner, int num_voters) {
    cert_ = Certificate{};
    cert_.owner = winner;
    cert_.color = 3;
    boxes_.clear();
    std::uint64_t value = 10;
    for (int v = 1; v <= num_voters; ++v) {
      VoteIntention intention(params_.q, {0, sim::kNoAgent});
      for (std::uint32_t j = 0; j < params_.q; ++j) {
        // Even rounds vote for the winner, odd rounds elsewhere.
        if (j % 2 == 0) {
          intention[j] = {value, winner};
          cert_.votes.push_back(
              {static_cast<sim::AgentId>(v), j, value});
          value += 7;
        } else {
          intention[j] = {value * 3, static_cast<sim::AgentId>(63)};
        }
      }
      // Unsummarized (kAnyTarget): Verification scans every record.
      boxes_.push_back(std::make_shared<const IntentionBox>(
          IntentionBox{std::move(intention)}));
    }
    cert_.k = cert_.vote_sum(params_);
    file_records();
  }

  /// Files voter v's box as a view in L_u, or marks v faulty if it is
  /// `faulty`.
  void file_records(sim::AgentId faulty = sim::kNoAgent) {
    collected_.clear();
    for (std::size_t i = 0; i < boxes_.size(); ++i) {
      const auto v = static_cast<sim::AgentId>(i + 1);
      collected_.append(v, v == faulty ? nullptr : boxes_[i].get());
    }
  }

  ProtocolParams params_;
  Certificate cert_;
  std::vector<std::shared_ptr<const IntentionBox>> boxes_;  ///< Voter i + 1.
  CollectedIntentions collected_;
};

TEST_F(VerificationTest, AcceptsConsistentCertificate) {
  build_consistent_world(0, 3);
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_TRUE(r.accepted()) << to_string(r.failure);
}

TEST_F(VerificationTest, AcceptsEmptyAuditData) {
  // A verifier that audited nobody can only check well-formedness and k.
  build_consistent_world(0, 3);
  const auto r = verify_certificate(params_, cert_, {});
  EXPECT_TRUE(r.accepted());
}

TEST_F(VerificationTest, AcceptsVotesFromUnauditedPeers) {
  build_consistent_world(0, 2);
  cert_.votes.push_back({40, 0, 999});  // Voter 40 not in collected_.
  cert_.k = cert_.vote_sum(params_);
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_TRUE(r.accepted());
}

TEST_F(VerificationTest, RejectsBadKeySum) {
  build_consistent_world(0, 2);
  cert_.k = (cert_.k + 1) % params_.m;
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kBadKeySum);
}

TEST_F(VerificationTest, RejectsOversizedVoteValue) {
  build_consistent_world(0, 1);
  cert_.votes.push_back({40, 0, params_.m});  // value == m is out of domain.
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kMalformedVote);
}

TEST_F(VerificationTest, RejectsOutOfRangeRound) {
  build_consistent_world(0, 1);
  cert_.votes.push_back({40, params_.q, 1});
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kMalformedVote);
}

TEST_F(VerificationTest, RejectsOutOfRangeVoter) {
  build_consistent_world(0, 1);
  cert_.votes.push_back({params_.n, 0, 1});
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kMalformedVote);
}

TEST_F(VerificationTest, RejectsDuplicateVote) {
  build_consistent_world(0, 1);
  cert_.votes.push_back(cert_.votes.front());
  cert_.k = cert_.vote_sum(params_);
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kDuplicateVote);
}

TEST_F(VerificationTest, FirstOfDuplicateAndMalformedVoteDecides) {
  // Votes are checked in order: a repeated (voter, round) pair ahead of a
  // malformed vote reports the duplicate, and the reverse order reports
  // the malformed vote.
  build_consistent_world(0, 1);
  const ReceivedVote first = cert_.votes.front();
  const ReceivedVote malformed{1, params_.q, 0};  // Round out of range.
  const Certificate base = cert_;

  cert_.votes.push_back(first);
  cert_.votes.push_back(malformed);
  EXPECT_EQ(verify_certificate(params_, cert_, collected_).failure,
            VerificationFailure::kDuplicateVote);

  cert_ = base;
  cert_.votes.push_back(malformed);
  cert_.votes.push_back(first);
  EXPECT_EQ(verify_certificate(params_, cert_, collected_).failure,
            VerificationFailure::kMalformedVote);
}

TEST_F(VerificationTest, RejectsVoteFromPeerMarkedFaulty) {
  build_consistent_world(0, 2);
  // Re-mark voter 1 as faulty: its votes all count as zero (footnote 4),
  // so any vote from it in W is a lie.
  file_records(1);
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kVoteFromFaulty);
}

TEST_F(VerificationTest, RejectsValueDifferentFromDeclaration) {
  build_consistent_world(0, 2);
  cert_.votes.front().value += 1;
  cert_.k = cert_.vote_sum(params_);
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kIntentionMismatch);
}

TEST_F(VerificationTest, RejectsVoteDeclaredForAnotherTarget) {
  build_consistent_world(0, 2);
  // Claim voter 1's round-1 vote (declared for agent 63) was for us.
  const auto& declared = collected_.find(1)->second.intention()[1];
  cert_.votes.push_back({1, 1, declared.value});
  cert_.k = cert_.vote_sum(params_);
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kIntentionMismatch);
}

TEST_F(VerificationTest, StrictModeRejectsDroppedVote) {
  build_consistent_world(0, 2);
  cert_.votes.pop_back();
  cert_.k = cert_.vote_sum(params_);
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kMissingVote);
}

TEST_F(VerificationTest, LaxModeMissesDroppedVote) {
  // The ablation: with completeness off, vote dropping passes — this is the
  // loophole E7's ablation block demonstrates end-to-end.
  params_ = ProtocolParams::make(64, 2.0, /*strict_verification=*/false);
  build_consistent_world(0, 2);
  cert_.votes.pop_back();
  cert_.k = cert_.vote_sum(params_);
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_TRUE(r.accepted());
}

TEST_F(VerificationTest, LaxModeStillChecksPresentVotes) {
  params_ = ProtocolParams::make(64, 2.0, /*strict_verification=*/false);
  build_consistent_world(0, 2);
  cert_.votes.front().value += 1;
  cert_.k = cert_.vote_sum(params_);
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kIntentionMismatch);
}

TEST_F(VerificationTest, EmptyCertificateWithNoAuditsAccepted) {
  Certificate empty;
  empty.owner = 5;
  empty.color = 0;
  empty.k = 0;
  const auto r = verify_certificate(params_, empty, {});
  EXPECT_TRUE(r.accepted());
}

TEST_F(VerificationTest, EmptyCertificateCaughtByCompleteness) {
  // The forged-empty-cert attack: k=0, W={}, but an audited peer declared a
  // vote for the owner.
  build_consistent_world(0, 2);
  cert_.votes.clear();
  cert_.k = 0;
  const auto r = verify_certificate(params_, cert_, collected_);
  EXPECT_EQ(r.failure, VerificationFailure::kMissingVote);
}

TEST_F(VerificationTest, TamperedCertificatePayloadRejectedForAnySalt) {
  // The network adversary's tamper hook (core/payloads.cpp) flips one bit
  // of k in a *copy* of the boxed certificate; whatever bit the salt picks,
  // k no longer matches the vote sum and verification must report
  // kBadKeySum — a tampered certificate can never be adopted.
  build_consistent_world(0, 3);
  const sim::Payload clean = make_certificate_payload(cert_, params_);
  for (const std::uint64_t salt :
       {0ull, 1ull, 17ull, 63ull, 64ull, 0x9e3779b97f4a7c15ull}) {
    const sim::Payload tampered = sim::corrupt_payload(clean, salt);
    const Certificate* cert = certificate_in(tampered);
    ASSERT_NE(cert, nullptr) << salt;
    EXPECT_NE(cert->k, cert_.k) << salt;
    const auto r = verify_certificate(params_, *cert, collected_);
    EXPECT_EQ(r.failure, VerificationFailure::kBadKeySum) << salt;
  }
  // Corruption copies; the original payload still verifies clean.
  const auto r = verify_certificate(params_, *certificate_in(clean),
                                    collected_);
  EXPECT_TRUE(r.accepted()) << to_string(r.failure);
}

TEST(VerificationNetworkTest, CorruptingAdversaryCaughtAndMeteredEndToEnd) {
  // The same property through the *real delivery path*: a network:corrupt=1
  // adversary flips bits in every payload the engine delivers (certificates
  // in Find-Min replies included), so every certificate any verifier
  // receives is tampered.  The run must terminate on its fixed schedule
  // with every spent corruption metered, and — since no tampered
  // certificate may be adopted — the agents are left disagreeing on their
  // own certificates instead of converging on a forged minimum.
  RunConfig cfg;
  cfg.n = 48;
  cfg.gamma = 3.0;
  cfg.seed = 77;
  cfg.network = sim::NetworkSpec::parse("network:corrupt=1,seed=3");
  const auto tampered = run_protocol(cfg);
  EXPECT_GT(tampered.metrics.net_corruptions, 0u);
  EXPECT_TRUE(tampered.failed());

  // Control: the identical run over the reliable network succeeds and
  // meters nothing — the corruption counter is the only degree of freedom.
  cfg.network = sim::NetworkSpec::none();
  const auto clean = run_protocol(cfg);
  EXPECT_EQ(clean.metrics.net_corruptions, 0u);
  EXPECT_FALSE(clean.failed());
}

TEST_F(VerificationTest, FailureNamesAreDistinct) {
  EXPECT_NE(to_string(VerificationFailure::kBadKeySum),
            to_string(VerificationFailure::kMissingVote));
  EXPECT_EQ(to_string(VerificationFailure::kNone), "none");
}

}  // namespace
}  // namespace rfc::core
