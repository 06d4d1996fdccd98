// Shared vocabulary types of Protocol P (Algorithm 1 of the paper).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
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
/// alone, so it holds under any parameters.  It sits next to H's handle,
/// where the Verification phase reads both.
struct IntentionBox {
  VoteIntention intention;
  std::uint64_t targets = kAnyTarget;  ///< target_summary(intention).
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

/// One record of L_u, as a view: the vote intention an agent declared to
/// us in the Commitment phase, or the "marked faulty" state if it did not
/// reply (footnote 4 of the paper: a silent peer's votes all count as
/// zero).
///
/// The record is a pointer to the immutable box the reply arrived in, not
/// a copy: every auditor of an honest peer reads the same object.  The
/// record owns nothing; CollectedIntentions decides what keeps the box
/// alive (see there).
class CommitmentRecord {
 public:
  explicit CommitmentRecord(const IntentionBox* box) noexcept : box_(box) {}

  bool marked_faulty() const noexcept { return box_ == nullptr; }
  /// The box holding the declared H; null iff the peer is marked faulty.
  const IntentionBox* box() const noexcept { return box_; }
  /// The declared H.  Precondition: !marked_faulty().
  const VoteIntention& intention() const noexcept { return box_->intention; }
  /// The box's target summary, a superset of target_summary(intention())
  /// (precondition as intention()).
  std::uint64_t targets() const noexcept { return box_->targets; }
  /// False only if no entry of the intention targets `agent` (precondition
  /// as intention()).
  bool may_target(sim::AgentId agent) const noexcept {
    return (targets() & target_bit(agent)) != 0;
  }

 private:
  const IntentionBox* box_ = nullptr;
};

/// L_u: the table from peer label to its first-declared intention.  "First
/// declaration" implements the h* values of Theorem 7's proof: an
/// equivocating peer is pinned to whatever it told us first, so the agents
/// append a record for a peer only while contains(peer) is false.
///
/// A structure of arrays: a record is a 4 B label and an 8 B box pointer
/// (null: marked faulty), appended in arrival order and never moved;
/// iteration runs in that order, not in label order.  Most boxes are an
/// honest peer's write-once H_u, served as a pinned view
/// (sim/payload.hpp), so the table views them like the reply did and takes
/// no reference count.  Any other box (an equivocator's lie, a
/// network-tampered or transport-decoded reply, a copy of an arena reply)
/// is appended with a counted handle, kept in a side list for as long as
/// the table lives.
///
/// A lookup first tests a 64-bit filter with bit (label & 63) set for
/// every label present, and stops if the label's bit is clear.  A peer is
/// in L_u with probability ~q/n, so nearly every lookup is for an absent
/// label, and a share (63/64)^size of those stops at the filter: 62% at
/// q = 31 (n = 2^11, gamma = 4).  The rest scan the label array without
/// branches.  That scan is linear in the table's size, which stays small:
/// every agent files one record per Commitment pull, so at most q records,
/// under every scheduler.
class CollectedIntentions {
 public:
  using value_type = std::pair<sim::AgentId, CommitmentRecord>;

  /// Iterates (label, record) pairs in arrival order.  A pair is assembled
  /// from the two arrays, so dereferencing yields a value, not a reference.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = CollectedIntentions::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = value_type;
    /// What operator-> returns: the pair, held by value.
    struct pointer {
      value_type entry;
      const value_type* operator->() const noexcept { return &entry; }
    };

    const_iterator() noexcept = default;
    value_type operator*() const noexcept {
      return {table_->labels_[i_], CommitmentRecord(table_->boxes_[i_])};
    }
    pointer operator->() const noexcept { return {**this}; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    friend class CollectedIntentions;
    const_iterator(const CollectedIntentions* table, std::size_t i) noexcept
        : table_(table), i_(i) {}

    const CollectedIntentions* table_ = nullptr;
    std::size_t i_ = 0;
  };

  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, size()}; }
  std::size_t size() const noexcept { return labels_.size(); }
  bool empty() const noexcept { return labels_.empty(); }
  void clear() noexcept {
    labels_.clear();
    boxes_.clear();
    kept_.clear();
    filter_ = 0;
  }
  void reserve(std::size_t records) {
    labels_.reserve(records);
    boxes_.reserve(records);
  }

  const_iterator find(sim::AgentId peer) const noexcept {
    return {this, index_of(peer)};
  }
  bool contains(sim::AgentId peer) const noexcept {
    return index_of(peer) != size();
  }

  /// Appends a record for `peer`, which has none yet, viewing `box` (null:
  /// marked faulty).  The table does not own the box: the caller promises
  /// that it outlives every read of the table, as a pinned payload's owner
  /// does.
  void append(sim::AgentId peer, const IntentionBox* box) {
    assert(!contains(peer));
    labels_.push_back(peer);
    boxes_.push_back(box);
    filter_ |= label_bit(peer);
  }

  /// Appends a record for `peer`, which has none yet, viewing `box` and
  /// keeping it alive for as long as the table lives.
  void append_kept(sim::AgentId peer, std::shared_ptr<const IntentionBox> box) {
    append(peer, box.get());
    // One reservation: a transport node keeps every remote peer's reply.
    if (kept_.empty()) kept_.reserve(labels_.capacity());
    kept_.push_back(std::move(box));
  }

 private:
  static constexpr std::uint64_t label_bit(sim::AgentId peer) noexcept {
    return std::uint64_t{1} << (peer & 63u);
  }

  /// Index of `peer`'s record, or size() if it has none.  Labels are
  /// distinct, so summing i + 1 over the matching slots yields the one
  /// match's i + 1, or 0: a loop with no branch to mispredict.
  std::size_t index_of(sim::AgentId peer) const noexcept {
    if ((filter_ & label_bit(peer)) == 0) return size();
    const std::uint32_t count = static_cast<std::uint32_t>(labels_.size());
    const sim::AgentId* labels = labels_.data();
    std::uint32_t hit = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      hit += labels[i] == peer ? i + 1 : 0;
    }
    return hit == 0 ? size() : hit - 1;
  }

  std::vector<sim::AgentId> labels_;
  std::vector<const IntentionBox*> boxes_;  ///< boxes_[i] for labels_[i].
  /// Owners of the boxes no pinned payload keeps alive, in arrival order.
  std::vector<std::shared_ptr<const IntentionBox>> kept_;
  std::uint64_t filter_ = 0;  ///< label_bit of every label in labels_.

  static_assert(sizeof(decltype(labels_)::value_type) +
                        sizeof(decltype(boxes_)::value_type) ==
                    12,
                "an L_u record is a 4 B label and an 8 B box pointer");
};

}  // namespace rfc::core
