// Shared vocabulary types of Protocol P (Algorithm 1 of the paper).
#pragma once

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

/// A 64-bit summary of the targets of H: bit (t & 63) is set for every
/// entry's target t.  If any entry targets agent z, bit (z & 63) is set,
/// so a clear bit proves that no entry targets z (the Verification phase
/// skips such records without reading their q entries).  All bits set is
/// the summary of an intention nobody summarized.
inline constexpr std::uint64_t kAnyTarget = ~std::uint64_t{0};

inline constexpr std::uint64_t target_bit(sim::AgentId target) noexcept {
  return std::uint64_t{1} << (target & 63u);
}

inline std::uint64_t target_summary(const VoteIntention& intention) noexcept {
  std::uint64_t targets = 0;
  for (const VoteEntry& e : intention) targets |= target_bit(e.target);
  return targets;
}

/// The immutable object a Commitment-reply payload boxes: H plus its
/// well_formed_intention verdict (verification.hpp) and the (n, q, m) the
/// verdict was computed for.  The verdict is a pure function of (H, n, q,
/// m), so the producer computes it once and each of the ~q auditors of the
/// box reads it instead of rescanning H; an auditor whose parameters differ
/// from the stamp recomputes it.  The target summary is a function of H
/// alone, so it holds under any parameters.
struct IntentionBox {
  VoteIntention intention;
  std::uint64_t m = 0;
  std::uint32_t n = 0;
  std::uint32_t q = 0;
  bool well_formed = false;
  std::uint64_t targets = kAnyTarget;  ///< target_summary(intention).

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
  /// The declared H; null iff the peer is marked faulty.
  std::shared_ptr<const VoteIntention> intention;
  /// target_summary(*intention), copied from the reply's box, or
  /// kAnyTarget when the record was built without one.  Whoever replaces
  /// `intention` keeps this a superset of the true summary.
  std::uint64_t targets = kAnyTarget;

  bool marked_faulty() const noexcept { return intention == nullptr; }
  /// False only if no entry of the intention targets `agent`.
  bool may_target(sim::AgentId agent) const noexcept {
    return (targets & target_bit(agent)) != 0;
  }
};

/// L_u: first-declaration-wins table from peer label to its declared
/// intention.  "First declaration" implements the h* values of Theorem 7's
/// proof: an equivocating peer is pinned to whatever it told us first.
///
/// Records are appended in arrival order and never move; iteration runs in
/// that order, not in label order.  A lookup scans a compact array of the
/// labels without branches.  That is linear in the table's size, which
/// stays small: every agent files one record per Commitment pull, so at
/// most q records, under every scheduler.
class CollectedIntentions {
 public:
  using value_type = std::pair<sim::AgentId, CommitmentRecord>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept {
    labels_.clear();
    entries_.clear();
  }
  void reserve(std::size_t records) {
    labels_.reserve(records);
    entries_.reserve(records);
  }

  const_iterator find(sim::AgentId peer) const noexcept {
    return entries_.begin() + index_of(peer);
  }
  bool contains(sim::AgentId peer) const noexcept {
    return find(peer) != end();
  }

  /// Appends (peer, record) unless `peer` already has a record, in which
  /// case the first declaration stands.  Returns the peer's entry and
  /// whether it was inserted, like std::map::emplace.
  std::pair<iterator, bool> emplace(sim::AgentId peer,
                                    CommitmentRecord record) {
    const std::size_t i = index_of(peer);
    if (i != size()) return {entries_.begin() + i, false};
    labels_.push_back(peer);
    entries_.emplace_back(peer, std::move(record));
    return {entries_.end() - 1, true};
  }

  /// The record of `peer`, inserting a default (faulty) one if absent.
  CommitmentRecord& operator[](sim::AgentId peer) {
    return emplace(peer, CommitmentRecord{}).first->second;
  }

 private:
  /// Index of `peer`'s entry, or size() if it has none.  Labels are
  /// distinct, so summing i + 1 over the matching slots yields the one
  /// match's i + 1, or 0: a loop with no branch to mispredict.
  std::size_t index_of(sim::AgentId peer) const noexcept {
    const std::uint32_t count = static_cast<std::uint32_t>(labels_.size());
    const sim::AgentId* labels = labels_.data();
    std::uint32_t hit = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      hit += labels[i] == peer ? i + 1 : 0;
    }
    return hit == 0 ? size() : hit - 1;
  }

  std::vector<sim::AgentId> labels_;  ///< labels_[i] == entries_[i].first.
  std::vector<value_type> entries_;
};

static_assert(sizeof(CollectedIntentions::value_type) <= 32,
              "an L_u entry is a label and a record: two per cache line");

}  // namespace rfc::core
