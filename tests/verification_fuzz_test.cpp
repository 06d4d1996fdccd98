// Property-based fuzzing of the Verification audit: randomly generated
// consistent worlds are always accepted; a random single-field corruption
// is always rejected (when the corrupted voter is audited).
#include <gtest/gtest.h>

#include "core/verification.hpp"
#include "support/rng.hpp"

namespace rfc::core {
namespace {

struct FuzzWorld {
  Certificate cert;
  CollectedIntentions collected;
};

/// Builds a random world where the certificate is exactly consistent with
/// the audit data: `audited` voters with full intentions, of which the
/// entries targeting `owner` appear verbatim in W; plus `unaudited` voters
/// contributing extra votes the verifier cannot check.
FuzzWorld make_world(const ProtocolParams& params, sim::AgentId owner,
                     std::uint32_t audited, std::uint32_t unaudited,
                     rfc::support::Xoshiro256& rng) {
  FuzzWorld w;
  w.cert.owner = owner;
  w.cert.color = static_cast<Color>(rng.below(params.n));
  for (std::uint32_t v = 1; v <= audited; ++v) {
    VoteIntention intention(params.q);
    for (std::uint32_t j = 0; j < params.q; ++j) {
      intention[j].value = rng.below(params.m);
      // ~1/3 of declared votes hit the owner.
      intention[j].target =
          rng.below(3) == 0 ? owner
                            : static_cast<sim::AgentId>(rng.below(params.n));
      if (intention[j].target == owner) {
        w.cert.votes.push_back({static_cast<sim::AgentId>(v), j,
                                intention[j].value});
      }
    }
    CommitmentRecord record;
    record.intention =
        std::make_shared<const VoteIntention>(std::move(intention));
    w.collected.emplace(static_cast<sim::AgentId>(v), std::move(record));
  }
  for (std::uint32_t u = 0; u < unaudited; ++u) {
    const auto voter =
        static_cast<sim::AgentId>(audited + 1 + u);
    w.cert.votes.push_back(
        {voter, static_cast<std::uint32_t>(rng.below(params.q)),
         rng.below(params.m)});
  }
  w.cert.k = w.cert.vote_sum(params);
  return w;
}

TEST(VerificationFuzz, ConsistentWorldsAlwaysAccepted) {
  const auto params = ProtocolParams::make(128, 3.0);
  rfc::support::Xoshiro256 rng(101);
  for (int rep = 0; rep < 200; ++rep) {
    const auto audited = static_cast<std::uint32_t>(1 + rng.below(8));
    const auto unaudited = static_cast<std::uint32_t>(rng.below(5));
    const FuzzWorld w = make_world(params, 0, audited, unaudited, rng);
    const auto r = verify_certificate(params, w.cert, w.collected);
    EXPECT_TRUE(r.accepted()) << "rep " << rep << ": "
                              << to_string(r.failure);
  }
}

TEST(VerificationFuzz, CorruptedAuditedVoteAlwaysRejected) {
  const auto params = ProtocolParams::make(128, 3.0);
  rfc::support::Xoshiro256 rng(202);
  int corrupted_reps = 0;
  for (int rep = 0; rep < 300; ++rep) {
    FuzzWorld w = make_world(params, 0, 1 + rng.below(6), 0, rng);
    if (w.cert.votes.empty()) continue;
    ++corrupted_reps;
    const std::size_t idx = rng.below(w.cert.votes.size());
    switch (rng.below(3)) {
      case 0:  // Flip the value (and fix k so the sum check passes).
        w.cert.votes[idx].value =
            (w.cert.votes[idx].value + 1 + rng.below(params.m - 1)) %
            params.m;
        w.cert.k = w.cert.vote_sum(params);
        break;
      case 1:  // Drop the vote (k fixed): only completeness can notice.
        w.cert.votes.erase(w.cert.votes.begin() +
                           static_cast<std::ptrdiff_t>(idx));
        w.cert.k = w.cert.vote_sum(params);
        break;
      default:  // Lie about k itself.
        w.cert.k = (w.cert.k + 1 + rng.below(params.m - 1)) % params.m;
        break;
    }
    const auto r = verify_certificate(params, w.cert, w.collected);
    EXPECT_FALSE(r.accepted()) << "rep " << rep;
  }
  EXPECT_GT(corrupted_reps, 250);
}

TEST(VerificationFuzz, UnauditedCorruptionIsInvisible) {
  // Sanity check on the model: tampering with votes from voters outside
  // L_u passes the local audit (k is fixed up) — it is the *union* of
  // honest auditors that covers everyone (Def. 5(1)), not any single one.
  const auto params = ProtocolParams::make(128, 3.0);
  rfc::support::Xoshiro256 rng(303);
  for (int rep = 0; rep < 100; ++rep) {
    FuzzWorld w = make_world(params, 0, 2, 3, rng);
    // Corrupt an unaudited vote's value; fix k.
    for (auto& v : w.cert.votes) {
      if (!w.collected.contains(v.voter)) {
        v.value = (v.value + 1) % params.m;
        break;
      }
    }
    w.cert.k = w.cert.vote_sum(params);
    const auto r = verify_certificate(params, w.cert, w.collected);
    EXPECT_TRUE(r.accepted());
  }
}

}  // namespace
}  // namespace rfc::core
