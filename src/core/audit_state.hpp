// Protocol P's audit state and its steps, shared by the synchronous agent
// (core::ProtocolAgent) and the sequential one (core::AsyncProtocolAgent).
//
// The state is H_u, L_u, W_u, CE_u, CE_min and Verification's verdict.
// H_u and CE_u live in heap boxes written once, so replies, pushes, L_u
// records and CE_min name them through pinned views (sim/payload.hpp) that
// count no reference.  Any other heap box that arrives is kept by a counted
// handle, and an arena box is copied once.
#pragma once

#include <memory>

#include "core/certificate.hpp"
#include "core/payloads.hpp"
#include "core/verification.hpp"
#include "sim/agent.hpp"

namespace rfc::core {

/// Voting-Intention's honest H_u: q entries, each a value u.a.r. in [m] and
/// a target ctx.random_peer(), drawn in that order from ctx.rng.  On the
/// complete graph the target is a label u.a.r. in [n], per Algorithm 1; on
/// other topologies a vote can only be pushed to a neighbor.
VoteIntention draw_intention(const ProtocolParams& params,
                             const sim::Context& ctx);

class AuditState {
 public:
  /// H_u and its box; both empty until write_intention.
  const VoteIntention& intention() const noexcept;
  const sim::Payload& intention_payload() const noexcept { return intention_; }
  const CollectedIntentions& collected_intentions() const noexcept {
    return collected_;
  }
  /// W_u, read from CE_u once take_votes_into_certificate moved it there.
  const ReceivedVotes& received_votes() const noexcept {
    return votes_in_own_certificate_ ? own_certificate().votes : votes_;
  }
  /// CE_u's box; empty until seal_own_certificate.
  const sim::Payload& own_certificate_payload() const noexcept {
    return own_cert_;
  }
  /// CE_min's payload (see adopt_certificate); empty until a certificate
  /// is sealed or adopted.
  const sim::Payload& min_certificate_payload() const noexcept {
    return min_cert_;
  }
  bool has_own_certificate() const noexcept { return !own_cert_.empty(); }
  /// CE_u and CE_min; a default certificate while the box is empty.
  const Certificate& own_certificate() const noexcept {
    return certificate_or_default(own_cert_);
  }
  const Certificate& min_certificate() const noexcept {
    return certificate_or_default(min_cert_);
  }
  /// Why Verification rejected CE_min; kNone if it accepted or never ran.
  VerificationFailure verification_failure() const noexcept {
    return failure_;
  }

  /// Boxes H_u.  Runs once: Commitment replies are pinned views of it.
  void write_intention(const ProtocolParams& params, VoteIntention intention);

  void record_vote(const ProtocolParams& params, const ReceivedVote& vote) {
    // ~Poisson(q) votes: one reservation instead of doubling to 2q.
    if (votes_.empty()) votes_.reserve(params.q);
    votes_.push_back(vote);
  }

  /// Files `target`'s first Commitment reply into L_u.  No well-formed
  /// intention (footnote 4) marks the peer faulty.  Otherwise the record
  /// views a pinned box (an honest peer's H_u), keeps any other heap box by
  /// handle, or copies an arena box.  Inline: it tops Protocol P's profile.
  void file_commitment_reply(const ProtocolParams& params,
                             sim::AgentId target, const sim::Payload& reply) {
    if (collected_.contains(target)) return;
    if (collected_.empty()) collected_.reserve(params.q);  // At most q.
    // A verdict stamped for our parameters stands in for the scan.
    const IntentionBox* box = intention_box_in(reply);
    const bool well_formed =
        box != nullptr && (box->stamped_for(params)
                               ? box->well_formed
                               : well_formed_intention(params, box->intention));
    if (!well_formed) {
      collected_.append(target, nullptr);
    } else if (reply.is_pinned()) {
      collected_.append(target, box);
    } else if (reply.is_arena_boxed()) {
      collected_.append_kept(target,
                             std::make_shared<const IntentionBox>(*box));
    } else {
      collected_.append_kept(
          target, reply.shared_as<IntentionBox>(kIntentionPayloadTag));
    }
  }

  /// The honest CE_u = (k_u, W_u, c_u, u), which takes W_u over.
  Certificate take_votes_into_certificate(const ProtocolParams& params,
                                          sim::AgentId owner, Color color);

  /// Boxes CE_u, once: CE_min payloads may be views of it.  CE_min becomes
  /// a view of CE_u unless it already holds a smaller certificate.
  void seal_own_certificate(const ProtocolParams& params,
                            Certificate certificate);

  /// Find-Min's rule: adopts `certificate`, delivered in `arriving` (or
  /// null), if it is smaller than min_certificate().
  void consider_certificate(const ProtocolParams& params,
                            const Certificate& certificate,
                            const sim::Payload* arriving) {
    if (certificate.less_than(min_certificate())) {
      adopt_certificate(params, certificate, arriving);
    }
  }

  /// CE_min becomes `certificate`: the arriving view or heap box itself if
  /// it holds exactly `certificate` at its honest wire size, so a converged
  /// network serves one object, and a private copy otherwise.
  void adopt_certificate(const ProtocolParams& params,
                         const Certificate& certificate,
                         const sim::Payload* arriving);

  /// Coherence: whether a pushed certificate equals CE_min.  A converged
  /// network holds one box, equal to itself; others get the deep check.
  bool coherent_with(const Certificate& certificate) const noexcept {
    const Certificate& min = min_certificate();
    return &certificate == &min || certificate == min;
  }

  /// Verification: audits CE_min against L_u, keeps the verdict, and
  /// returns whether it accepted.
  bool verify(const ProtocolParams& params);

 private:
  static const Certificate& certificate_or_default(
      const sim::Payload& payload) noexcept {
    static const Certificate kNone;
    const Certificate* certificate = certificate_in(payload);
    return certificate != nullptr ? *certificate : kNone;
  }

  sim::Payload intention_;  ///< Never reassigned once written.
  CollectedIntentions collected_;
  ReceivedVotes votes_;
  sim::Payload own_cert_;   ///< Never reassigned once written.
  sim::Payload min_cert_;
  VerificationFailure failure_ = VerificationFailure::kNone;
  bool votes_in_own_certificate_ = false;
};

}  // namespace rfc::core
