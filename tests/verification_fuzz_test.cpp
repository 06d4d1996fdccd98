// Property-based fuzzing of the Verification audit: randomly generated
// consistent worlds are always accepted; a random single-field corruption
// is always rejected (when the corrupted voter is audited); and on random
// worlds of every kind the audit returns the verdict of a plain reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

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
    // Unsummarized (kAnyTarget): Verification scans every record.
    w.collected.append_kept(static_cast<sim::AgentId>(v),
                            std::make_shared<const IntentionBox>(
                                IntentionBox{std::move(intention)}));
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

// --------------------------------------------------------------------------
// Verdict oracle: the audit as first written, with a seen-set-equivalent
// sorted key vector, per-vote lookups and a binary search per declared vote
// for the owner.  verify_certificate must return its verdict on every world.
// --------------------------------------------------------------------------

VerificationFailure reference_verdict(const ProtocolParams& params,
                                      const Certificate& certificate,
                                      const CollectedIntentions& collected) {
  const auto vote_key = [](sim::AgentId voter, std::uint32_t round) {
    return (static_cast<std::uint64_t>(voter) << 32) | round;
  };
  std::vector<std::uint64_t> keys;
  bool malformed = false;
  for (const ReceivedVote& v : certificate.votes) {
    if (v.value >= params.m || v.round_index >= params.q ||
        v.voter >= params.n) {
      malformed = true;
      break;
    }
    keys.push_back(vote_key(v.voter, v.round_index));
  }
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return VerificationFailure::kDuplicateVote;
  }
  if (malformed) return VerificationFailure::kMalformedVote;
  if (certificate.k != certificate.vote_sum(params)) {
    return VerificationFailure::kBadKeySum;
  }
  for (const ReceivedVote& v : certificate.votes) {
    // A plain scan of the (peer, record) pairs, not collected.find: the
    // reference must not share the lookup it checks.
    const auto it = std::find_if(
        collected.begin(), collected.end(),
        [&v](const auto& entry) { return entry.first == v.voter; });
    if (it == collected.end()) continue;
    const CommitmentRecord record = it->second;
    if (record.marked_faulty()) return VerificationFailure::kVoteFromFaulty;
    const VoteEntry& declared = record.intention().at(v.round_index);
    if (declared.target != certificate.owner || declared.value != v.value) {
      return VerificationFailure::kIntentionMismatch;
    }
  }
  if (params.strict_verification) {
    for (const auto& [voter, record] : collected) {
      if (record.marked_faulty()) continue;
      const VoteIntention& intention = record.intention();
      for (std::uint32_t j = 0; j < intention.size(); ++j) {
        if (intention[j].target != certificate.owner) continue;
        if (!std::binary_search(keys.begin(), keys.end(),
                                vote_key(voter, j))) {
          return VerificationFailure::kMissingVote;
        }
      }
    }
  }
  return VerificationFailure::kNone;
}

/// A random world meant to reach every verdict: audited voters (some marked
/// faulty, some intentions one entry too long) filed in random order with an
/// exact, padded or absent target summary; a W of their votes for the
/// owner plus unaudited ones, then damaged by random duplicates, malformed
/// votes, drops, value flips and reorders; k right or wrong.  A quarter of
/// the declared targets share their low six bits with the owner.
FuzzWorld make_oracle_world(const ProtocolParams& params,
                            rfc::support::Xoshiro256& rng) {
  FuzzWorld w;
  const auto label = [&] {
    return static_cast<sim::AgentId>(rng.below(params.n));
  };
  w.cert.owner = label();
  w.cert.color = 1;
  const auto audited = static_cast<std::uint32_t>(rng.below(10));
  for (std::uint32_t a = 0; a < audited; ++a) {
    const sim::AgentId voter = label();
    std::shared_ptr<const IntentionBox> box;  // Null: marked faulty.
    if (rng.below(8) != 0) {
      VoteIntention intention(params.q + (rng.below(10) == 0 ? 1 : 0));
      for (std::uint32_t j = 0; j < intention.size(); ++j) {
        intention[j].value = rng.below(params.m);
        // Owner, a label sharing its summary bit, or anyone.
        switch (rng.below(4)) {
          case 0: intention[j].target = w.cert.owner; break;
          case 1:
            intention[j].target = static_cast<sim::AgentId>(
                (w.cert.owner & 63) + 64 * rng.below(3));
            break;
          default: intention[j].target = label(); break;
        }
        if (j < params.q && intention[j].target == w.cert.owner) {
          w.cert.votes.push_back({voter, j, intention[j].value});
        }
      }
      std::uint64_t targets = kAnyTarget;  // Unsummarized.
      switch (rng.below(3)) {
        case 0: targets = target_summary(intention); break;
        case 1: targets = target_summary(intention) | rng.next(); break;
        default: break;
      }
      box = std::make_shared<const IntentionBox>(
          IntentionBox{std::move(intention), targets});
    } else if (rng.below(2) == 0) {  // Marked faulty, yet in W.
      w.cert.votes.push_back(
          {voter, static_cast<std::uint32_t>(rng.below(params.q)),
           rng.below(params.m)});
    }
    // First declaration wins, as in the agents.
    if (w.collected.contains(voter)) continue;
    if (box != nullptr) {
      w.collected.append_kept(voter, std::move(box));
    } else {
      w.collected.append(voter, nullptr);
    }
  }
  for (std::uint64_t u = rng.below(6); u > 0; --u) {
    w.cert.votes.push_back({label(),
                            static_cast<std::uint32_t>(rng.below(params.q)),
                            rng.below(params.m)});
  }
  auto& votes = w.cert.votes;
  const auto pick = [&] {
    return votes.begin() + static_cast<std::ptrdiff_t>(rng.below(votes.size()));
  };
  // Honest order is (round, voter); sometimes keep it, often not.
  std::sort(votes.begin(), votes.end(), [](const auto& a, const auto& b) {
    return a.round_index != b.round_index ? a.round_index < b.round_index
                                          : a.voter < b.voter;
  });
  for (std::uint64_t d = rng.below(3); d > 0 && !votes.empty(); --d) {
    switch (rng.below(6)) {
      case 0: {  // Duplicate (voter, round), value kept or changed.
        ReceivedVote copy = *pick();
        if (rng.below(2) == 0) copy.value = rng.below(params.m);
        votes.insert(pick(), copy);
        break;
      }
      case 1: {  // Malformed in one field.
        ReceivedVote bad = *pick();
        switch (rng.below(3)) {
          case 0: bad.value = params.m + rng.below(3); break;
          case 1: bad.round_index = params.q + 1; break;
          default: bad.voter = params.n + 5; break;
        }
        votes.insert(pick(), bad);
        break;
      }
      case 2: votes.erase(pick()); break;
      case 3: pick()->value = rng.below(params.m); break;
      default: std::swap(*pick(), *pick()); break;
    }
  }
  if (rng.below(4) == 0) {
    for (std::size_t i = votes.size(); i > 1; --i) {
      std::swap(votes[i - 1], votes[rng.below(i)]);
    }
  }
  w.cert.k = w.cert.vote_sum(params);
  if (rng.below(10) == 0) w.cert.k = (w.cert.k + 1) % params.m;
  return w;
}

TEST(VerificationFuzz, VerdictMatchesTheReferenceAudit) {
  auto params = ProtocolParams::make(200, 2.0);
  rfc::support::Xoshiro256 rng(404);
  std::array<int, kVerificationFailureCount> seen{};
  for (int rep = 0; rep < 4000; ++rep) {
    params.strict_verification = rep % 4 != 0;
    const FuzzWorld w = make_oracle_world(params, rng);
    const VerificationFailure expected =
        reference_verdict(params, w.cert, w.collected);
    EXPECT_EQ(verify_certificate(params, w.cert, w.collected).failure,
              expected)
        << "rep " << rep << ": reference says " << to_string(expected);
    ++seen[static_cast<std::size_t>(expected)];
  }
  // Every verdict occurs, so the agreement above is not vacuous.
  for (std::size_t f = 0; f < seen.size(); ++f) {
    EXPECT_GT(seen[f], 20) << to_string(static_cast<VerificationFailure>(f));
  }
}

}  // namespace
}  // namespace rfc::core
