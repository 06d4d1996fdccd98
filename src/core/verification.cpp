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

bool in_domain(const ProtocolParams& params, const ReceivedVote& v) noexcept {
  return v.value < params.m && v.round_index < params.q && v.voter < params.n;
}

/// (round, voter) packed into one word: a bijection on in-domain votes
/// under which W in delivery order (round by round, each round's senders
/// by label) is ascending.
std::uint64_t vote_key(const ReceivedVote& v) noexcept {
  return (static_cast<std::uint64_t>(v.round_index) << 32) | v.voter;
}

/// Whether two in-domain votes in [first, last) share (voter, round).
bool has_duplicate(ReceivedVotes::const_iterator first,
                   ReceivedVotes::const_iterator last) {
  // An honest W is strictly ascending, which proves it duplicate-free
  // without a copy; anything else is sorted in a per-thread scratch.
  bool ascending = true;
  for (auto it = first; it != last && it + 1 != last; ++it) {
    ascending &= vote_key(*it) < vote_key(*(it + 1));
  }
  if (ascending) return false;
  thread_local std::vector<std::uint64_t> keys;
  keys.clear();
  for (auto it = first; it != last; ++it) keys.push_back(vote_key(*it));
  std::sort(keys.begin(), keys.end());
  return std::adjacent_find(keys.begin(), keys.end()) != keys.end();
}

}  // namespace

VerificationResult verify_certificate(const ProtocolParams& params,
                                      const Certificate& certificate,
                                      const CollectedIntentions& collected) {
  const ReceivedVotes& votes = certificate.votes;
  const sim::AgentId owner = certificate.owner;

  // (a) Well-formedness and uniqueness of (voter, round) pairs, in vote
  // order: the first malformed or repeated vote decides the failure.  A
  // repeat before the first malformed vote is a duplicate whose second copy
  // comes first, so checking that prefix for repeats finds exactly the
  // failure an in-order scan with a seen-set would report.
  const auto malformed = std::find_if(
      votes.begin(), votes.end(),
      [&](const ReceivedVote& v) { return !in_domain(params, v); });
  if (has_duplicate(votes.begin(), malformed)) {
    return {VerificationFailure::kDuplicateVote};
  }
  if (malformed != votes.end()) return {VerificationFailure::kMalformedVote};

  // (b) The claimed key must equal the vote sum.
  if (certificate.k != certificate.vote_sum(params)) {
    return {VerificationFailure::kBadKeySum};
  }

  // Records are views of boxes spread over the heap (mostly other agents'
  // H_u), and (c) and (d) read through them: start every box's load now,
  // so the misses overlap instead of running one after another.
  for (const auto& [peer, record] : collected) {
    __builtin_prefetch(record.box());
  }

  // (c) Consistency against first-declared intentions.
  std::size_t audited_votes = 0;
  for (const ReceivedVote& v : votes) {
    const auto it = collected.find(v.voter);
    if (it == collected.end()) continue;  // We never audited this voter.
    const CommitmentRecord record = it->second;
    if (record.marked_faulty()) {
      return {VerificationFailure::kVoteFromFaulty};
    }
    const VoteEntry& declared = record.intention().at(v.round_index);
    if (declared.target != owner || declared.value != v.value) {
      return {VerificationFailure::kIntentionMismatch};
    }
    ++audited_votes;
  }

  // (d) Completeness: every audited peer's declared vote for the winner
  // must be present.  This closes the vote-dropping loophole.  By (a) and
  // (c) the audited votes are distinct declared votes for the owner, so
  // all declared ones are present iff there are as many of each.
  if (params.strict_verification) {
    std::size_t declared_votes = 0;
    for (const auto& [voter, record] : collected) {
      if (record.marked_faulty() || !record.may_target(owner)) continue;
      for (const VoteEntry& e : record.intention()) {
        declared_votes += e.target == owner ? 1 : 0;
      }
    }
    if (declared_votes != audited_votes) {
      return {VerificationFailure::kMissingVote};
    }
  }

  return {VerificationFailure::kNone};
}

}  // namespace rfc::core
