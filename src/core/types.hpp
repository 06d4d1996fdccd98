// Shared vocabulary types of Protocol P (Algorithm 1 of the paper).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "sim/agent.hpp"

namespace rfc::core {

/// A color from the finite color space Σ.  Colors are small non-negative
/// integers; in the fair-leader-election special case each agent's initial
/// color is his own label.
using Color = std::int64_t;

/// The "protocol failed / no consensus" outcome ⊥.
inline constexpr Color kNoColor = -1;

/// One entry (h_{u,i}, z_{u,i}) of a vote-intention list H_u: in round i of
/// the Voting phase, push the value `value` (u.a.r. in [m]) to agent
/// `target` (u.a.r. in [n]).
struct VoteEntry {
  std::uint64_t value = 0;
  sim::AgentId target = sim::kNoAgent;

  friend bool operator==(const VoteEntry&, const VoteEntry&) = default;
};

/// H_u: exactly q entries, one per Voting-phase round.
using VoteIntention = std::vector<VoteEntry>;

/// The immutable object a Commitment-reply payload boxes: H plus its
/// well_formed_intention verdict (verification.hpp) and the (n, q, m) the
/// verdict was computed for.  The verdict is a pure function of (H, n, q,
/// m), so the producer computes it once and each of the ~q auditors of the
/// box reads it instead of rescanning H; an auditor whose parameters differ
/// from the stamp recomputes it.
struct IntentionBox {
  VoteIntention intention;
  std::uint64_t m = 0;
  std::uint32_t n = 0;
  std::uint32_t q = 0;
  bool well_formed = false;

  /// Whether the stamped verdict holds for `params`.
  bool stamped_for(const ProtocolParams& params) const noexcept {
    return n == params.n && q == params.q && m == params.m;
  }
};

/// A vote as received in the Voting phase: agent `voter` pushed `value`
/// during voting round `round_index`.  The triple identifies the vote
/// uniquely (each agent pushes exactly one vote per round), which is what
/// lets the Verification phase cross-check W_min against collected
/// intentions.
struct ReceivedVote {
  sim::AgentId voter = sim::kNoAgent;
  std::uint32_t round_index = 0;
  std::uint64_t value = 0;

  friend bool operator==(const ReceivedVote&, const ReceivedVote&) = default;
};

/// W_u: all votes received by u during the Voting phase.
using ReceivedVotes = std::vector<ReceivedVote>;

/// One record of L_u: the vote intention an agent declared to us in the
/// Commitment phase, or the "marked faulty" state if it did not reply
/// (footnote 4 of the paper: a silent peer's votes all count as zero).
///
/// The intention is a shared handle to the immutable box the reply arrived
/// in, not a copy: every auditor of an honest peer holds the same object.
/// A reply boxed in a round arena dies at the round barrier, so the
/// receiver copies it once into a fresh shared box before retaining it.
/// The handle aliases the H inside the reply's IntentionBox, so auditors
/// read a plain VoteIntention and keep the whole box alive.
struct CommitmentRecord {
  bool marked_faulty = false;
  /// Non-null iff !marked_faulty.
  std::shared_ptr<const VoteIntention> intention;
};

/// L_u: first-declaration-wins table from peer label to its declared
/// intention.  "First declaration" implements the h* values of Theorem 7's
/// proof: an equivocating peer is pinned to whatever it told us first.
///
/// A flat vector of (peer, record) pairs sorted by peer label, searched by
/// binary search.  Each peer is recorded at most once, so the table holds
/// at most q records under the synchronous model and at most n under any
/// scheduler, and a sorted insert stays cheap.
class CollectedIntentions {
 public:
  using value_type = std::pair<sim::AgentId, CommitmentRecord>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept { entries_.clear(); }
  void reserve(std::size_t records) { entries_.reserve(records); }

  const_iterator find(sim::AgentId peer) const noexcept {
    const const_iterator it = entries_.begin() + lower_bound(peer);
    return it != entries_.end() && it->first == peer ? it : entries_.end();
  }
  bool contains(sim::AgentId peer) const noexcept {
    return find(peer) != end();
  }

  /// Inserts (peer, record) unless `peer` already has a record, in which
  /// case the first declaration stands.  Returns the peer's entry and
  /// whether it was inserted, like std::map::emplace.
  std::pair<iterator, bool> emplace(sim::AgentId peer,
                                    CommitmentRecord record) {
    const iterator it = entries_.begin() + lower_bound(peer);
    if (it != entries_.end() && it->first == peer) return {it, false};
    return {entries_.emplace(it, peer, std::move(record)), true};
  }

  /// The record of `peer`, inserting a default one if absent.
  CommitmentRecord& operator[](sim::AgentId peer) {
    return emplace(peer, CommitmentRecord{}).first->second;
  }

 private:
  /// Index of the first entry whose label is not below `peer`.
  std::ptrdiff_t lower_bound(sim::AgentId peer) const noexcept {
    const auto below = [](const value_type& e, sim::AgentId p) {
      return e.first < p;
    };
    return std::lower_bound(entries_.begin(), entries_.end(), peer, below) -
           entries_.begin();
  }

  std::vector<value_type> entries_;
};

}  // namespace rfc::core
