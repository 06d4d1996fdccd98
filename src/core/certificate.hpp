// The certificate CE_u = (k_u, W_u, c_u, u) of Protocol P.
//
// After the Voting phase every agent u packages the votes it received (W_u),
// their sum modulo m (k_u), its supported color and its label into a
// certificate.  Find-Min circulates the minimal certificate; Coherence
// cross-checks that everyone holds the same one; Verification audits it.
#pragma once

#include <cstdint>

#include "core/params.hpp"
#include "core/types.hpp"

namespace rfc::core {

struct Certificate {
  std::uint64_t k = 0;       ///< Σ_{h ∈ W} h  mod m.
  ReceivedVotes votes;       ///< W: the votes backing k.
  Color color = kNoColor;    ///< The owner's supported color c.
  sim::AgentId owner = sim::kNoAgent;  ///< The owner's label.

  friend bool operator==(const Certificate&, const Certificate&) = default;

  /// Strict-weak ordering used by Find-Min: primarily by k.  The paper's
  /// analysis makes k values distinct w.h.p. (m = n^3); the owner label is a
  /// deterministic tie-break so the simulated protocol is well defined even
  /// on the 1/n^Θ(1) collision event.
  bool less_than(const Certificate& other) const noexcept {
    if (k != other.k) return k < other.k;
    return owner < other.owner;
  }

  /// Wire size under the paper's encoding model: k costs log m bits, each
  /// vote costs (label, round index, value), plus color and owner label.
  /// With Θ(log n) votes this is Θ(log^2 n) bits — the paper's message bound.
  std::uint64_t bit_size(const ProtocolParams& params) const noexcept;

  /// Recomputes Σ votes mod m; a valid certificate satisfies k == vote_sum.
  std::uint64_t vote_sum(const ProtocolParams& params) const noexcept;

  /// 64-bit structural fingerprint over (k, W, color, owner).  Two equal
  /// certificates always have equal digests; distinct certificates collide
  /// with probability ~2^-64 (the simulator's stand-in for a
  /// collision-resistant hash in the coherence-digest optimization).
  std::uint64_t digest() const noexcept;
};

/// Σ_{h ∈ votes} h mod m: the key a certificate over `votes` must carry.
std::uint64_t vote_sum(const ProtocolParams& params,
                       const ReceivedVotes& votes) noexcept;

/// The honest certificate for agent `owner`: k computed from `votes`.
Certificate make_certificate(const ProtocolParams& params, sim::AgentId owner,
                             Color color, ReceivedVotes votes);

}  // namespace rfc::core
