#include "core/verification.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace rfc::core {

std::string to_string(VerificationFailure f) {
  switch (f) {
    case VerificationFailure::kNone: return "none";
    case VerificationFailure::kMalformedVote: return "malformed-vote";
    case VerificationFailure::kDuplicateVote: return "duplicate-vote";
    case VerificationFailure::kBadKeySum: return "bad-key-sum";
    case VerificationFailure::kVoteFromFaulty: return "vote-from-faulty";
    case VerificationFailure::kIntentionMismatch: return "intention-mismatch";
    case VerificationFailure::kMissingVote: return "missing-vote";
  }
  return "unknown";
}

bool well_formed_intention(const ProtocolParams& params,
                           const VoteIntention& intention) noexcept {
  if (intention.size() != params.q) return false;
  for (const VoteEntry& e : intention) {
    if (e.value >= params.m || e.target >= params.n) return false;
  }
  return true;
}

namespace {

std::uint64_t vote_key(sim::AgentId voter, std::uint32_t round) noexcept {
  return (static_cast<std::uint64_t>(voter) << 32) | round;
}

}  // namespace

VerificationResult verify_certificate(const ProtocolParams& params,
                                      const Certificate& certificate,
                                      const CollectedIntentions& collected) {
  // (a) Well-formedness and uniqueness of (voter, round) pairs, in vote
  // order: the first malformed or repeated vote decides the failure.  A
  // repeat before the first malformed vote is a duplicate whose second copy
  // comes first, so sorting the keys of that prefix finds exactly the
  // failure an in-order scan with a seen-set would report.
  std::vector<std::uint64_t> keys;
  keys.reserve(certificate.votes.size());
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
    return {VerificationFailure::kDuplicateVote};
  }
  if (malformed) return {VerificationFailure::kMalformedVote};

  // (b) The claimed key must equal the vote sum.
  if (certificate.k != certificate.vote_sum(params)) {
    return {VerificationFailure::kBadKeySum};
  }

  // (c) Consistency against first-declared intentions.
  for (const ReceivedVote& v : certificate.votes) {
    const auto it = collected.find(v.voter);
    if (it == collected.end()) continue;  // We never audited this voter.
    const CommitmentRecord& record = it->second;
    if (record.marked_faulty) {
      return {VerificationFailure::kVoteFromFaulty};
    }
    const VoteEntry& declared = record.intention->at(v.round_index);
    if (declared.target != certificate.owner ||
        declared.value != v.value) {
      return {VerificationFailure::kIntentionMismatch};
    }
  }

  // (d) Completeness: every audited peer's declared vote for the winner
  // must be present.  This closes the vote-dropping loophole.
  if (params.strict_verification) {
    for (const auto& [voter, record] : collected) {
      if (record.marked_faulty) continue;
      const VoteIntention& intention = *record.intention;
      for (std::uint32_t j = 0; j < intention.size(); ++j) {
        if (intention[j].target != certificate.owner) continue;
        if (!std::binary_search(keys.begin(), keys.end(),
                                vote_key(voter, j))) {
          return {VerificationFailure::kMissingVote};
        }
      }
    }
  }

  return {VerificationFailure::kNone};
}

}  // namespace rfc::core
