// The Verification-phase audit (last block of Algorithm 1), factored out so
// it can be unit-tested exhaustively and ablated in the equilibrium
// experiments.
//
// Given the winning certificate CE_min = (k_min, W_min, c_min, z_min) and
// the local commitment data L_u, an honest agent accepts iff:
//   (a) every vote in W_min is well-formed (value < m, round < q, label < n)
//       and no (voter, round) pair appears twice;
//   (b) k_min equals Σ_{h ∈ W_min} h mod m;
//   (c) W_min is *consistent* with L_u:
//       - a vote from a peer u marked faulty in L_u cannot appear (its
//         declared votes are all zero, footnote 4);
//       - a vote (v, j, h) with v ∈ L_u must match v's first-declared
//         intention: H_v[j] = (h, z_min);
//   (d) [strict mode only] W_min is *complete* w.r.t. L_u: if v ∈ L_u
//       declared a vote for z_min in round j, that vote must appear in
//       W_min.  Without (d) a rational winner could drop unfavourable votes
//       it received and re-aim k at a smaller value; experiment E7's
//       ablation shows this check is load-bearing.
#pragma once

#include <cstddef>
#include <string>

#include "core/certificate.hpp"
#include "core/params.hpp"
#include "core/types.hpp"

namespace rfc::core {

enum class VerificationFailure : std::uint8_t {
  kNone,               ///< Certificate accepted.
  kMalformedVote,      ///< Vote value/round/label out of domain.
  kDuplicateVote,      ///< Two votes share (voter, round).
  kBadKeySum,          ///< k != Σ votes mod m.
  kVoteFromFaulty,     ///< Vote from a peer we marked faulty.
  kIntentionMismatch,  ///< Vote differs from the voter's declared intention.
  kMissingVote,        ///< Declared vote for the winner absent (strict mode).
};

/// Number of VerificationFailure values (array extent for per-cause counts).
inline constexpr std::size_t kVerificationFailureCount =
    static_cast<std::size_t>(VerificationFailure::kMissingVote) + 1;

std::string to_string(VerificationFailure f);

struct VerificationResult {
  VerificationFailure failure = VerificationFailure::kNone;
  bool accepted() const noexcept {
    return failure == VerificationFailure::kNone;
  }
};

/// Whether a Commitment reply's intention H may enter L_u unmarked: exactly
/// q entries, each value in [m] and target in [n].  A peer that "replies in
/// an unexpected way" (footnote 4) is marked faulty instead.
bool well_formed_intention(const ProtocolParams& params,
                           const VoteIntention& intention) noexcept;

VerificationResult verify_certificate(const ProtocolParams& params,
                                      const Certificate& certificate,
                                      const CollectedIntentions& collected);

}  // namespace rfc::core
