// Concrete message payloads of Protocol P, with exact bit accounting.
//
// Payloads are flat sim::Payload values (sim/payload.hpp): votes and
// digests travel inline (no allocation per message), certificates and vote
// intentions are boxed — one immutable shared object per distinct value, so
// serving Θ(log n) Find-Min pulls from one allocation still works, but the
// handle moves by value through the engine.
//
// This header owns the core tag range (0x20..0x2F).  Each boxed tag maps to
// exactly one C++ type, which is what makes the typed accessors below safe.
#pragma once

#include <memory>
#include <utility>

#include "core/certificate.hpp"
#include "core/params.hpp"
#include "core/types.hpp"
#include "sim/payload.hpp"

namespace rfc::core {

// --- Tags (core range 0x20..0x2F; see sim/payload.hpp) --------------------
inline constexpr sim::PayloadTag kVotePayloadTag = 0x20;        // inline
inline constexpr sim::PayloadTag kDigestPayloadTag = 0x21;      // inline
inline constexpr sim::PayloadTag kIntentionPayloadTag = 0x22;   // IntentionBox
inline constexpr sim::PayloadTag kCertificatePayloadTag = 0x23; // Certificate
// Sequential-model payloads (factories local to core/async_protocol.cpp;
// the tags live here so the core tag space has one registry).
inline constexpr sim::PayloadTag kAsyncVotePayloadTag = 0x28;   // inline
inline constexpr sim::PayloadTag kAsyncReplyPayloadTag = 0x29;  // AsyncReply

// --- Factories ------------------------------------------------------------

/// H with its well_formed_intention verdict under `params` and its target
/// summary: the object every intention payload boxes.
IntentionBox make_intention_box(VoteIntention intention,
                                const ProtocolParams& params);

/// Commitment-phase reply: a full copy of the sender's vote intention H,
/// boxed with its well_formed_intention verdict under `params` and its
/// target summary (see IntentionBox).  Every intention payload is built
/// here or by the network-adversary ops in payloads.cpp, so every box
/// carries a verdict and a summary.
sim::Payload make_intention_payload(VoteIntention intention,
                                    const ProtocolParams& params);

/// Arena-boxed variant for *transient* replies (consumed in this round's
/// delivery hook, never cached): bump-allocates in the engine's round arena
/// when one is live (Context::arena), falling back to the shared form when
/// `arena` is null.  Producers that cache the payload across rounds
/// (ProtocolAgent's H_u and CE_u boxes) must keep the plain factory.
sim::Payload make_intention_payload_in(rfc::support::Arena* arena,
                                       VoteIntention intention,
                                       const ProtocolParams& params);

/// Voting-phase push: a single vote value h (the voting round is implied by
/// synchrony; the voter label travels in the authenticated channel header).
sim::Payload make_vote_payload(std::uint64_t value,
                               const ProtocolParams& params);

/// Find-Min reply / Coherence push: a full certificate.
sim::Payload make_certificate_payload(Certificate certificate,
                                      const ProtocolParams& params);

/// Arena-boxed variant (same transient-only contract as
/// make_intention_payload_in).
sim::Payload make_certificate_payload_in(rfc::support::Arena* arena,
                                         Certificate certificate,
                                         const ProtocolParams& params);

/// Coherence push under the digest optimization: a 64-bit certificate
/// fingerprint instead of the full certificate.
sim::Payload make_digest_payload(std::uint64_t digest) noexcept;

// --- Typed accessors (null / false on tag mismatch or empty payload) ------

inline const IntentionBox* intention_box_in(const sim::Payload& p) noexcept {
  return p.boxed_as<IntentionBox>(kIntentionPayloadTag);
}

inline const VoteIntention* intention_in(const sim::Payload& p) noexcept {
  const IntentionBox* box = intention_box_in(p);
  return box != nullptr ? &box->intention : nullptr;
}

inline const Certificate* certificate_in(const sim::Payload& p) noexcept {
  return p.boxed_as<Certificate>(kCertificatePayloadTag);
}

inline bool is_vote(const sim::Payload& p) noexcept {
  return p.tag() == kVotePayloadTag;
}
inline std::uint64_t vote_value_in(const sim::Payload& p) noexcept {
  return p.word(0);
}

inline bool is_digest(const sim::Payload& p) noexcept {
  return p.tag() == kDigestPayloadTag;
}
inline std::uint64_t digest_in(const sim::Payload& p) noexcept {
  return p.word(0);
}

}  // namespace rfc::core
