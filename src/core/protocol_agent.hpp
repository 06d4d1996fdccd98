// The honest agent of Protocol P (Algorithm 1), with every decision point
// exposed as a protected virtual hook so rational deviations (src/rational)
// can override exactly one behaviour at a time while inheriting the rest.
//
// Phase schedule (all agents share it — the model is synchronous and every
// agent knows n and γ):
//   rounds [0, q)    Commitment  — pull random peers' vote intentions
//   rounds [q, 2q)   Voting      — push vote i of H_u to its target
//   rounds [2q, 3q)  Find-Min    — pull-broadcast the minimal certificate
//   rounds [3q, 4q)  Coherence   — push CE_min, fail on any mismatch
//   round 4q         Verification (local) — audit CE_min against L_u
// The Voting-Intention phase is local and runs in on_start.
#pragma once

#include <cstdint>
#include <vector>

#include "core/certificate.hpp"
#include "core/params.hpp"
#include "core/types.hpp"
#include "core/verification.hpp"
#include "sim/agent.hpp"

namespace rfc::core {

class ProtocolAgent : public sim::Agent {
 public:
  ProtocolAgent(const ProtocolParams& params, Color color);

  // ---- Final state ----------------------------------------------------
  bool failed() const noexcept { return failed_; }
  bool decided() const noexcept { return decided_; }
  /// The supported color after termination; kNoColor if the agent failed or
  /// has not decided yet.
  Color decision() const noexcept {
    return decided_ && !failed_ ? final_color_ : kNoColor;
  }
  Color initial_color() const noexcept { return color_; }
  VerificationFailure verification_failure() const noexcept {
    return verification_failure_;
  }

  // ---- Diagnostics read by the runner after execution ------------------
  /// H_u, read through the box this agent serves (empty before on_start).
  const VoteIntention& intention() const noexcept;
  /// W_u.  The honest CE_u takes W_u over instead of copying it, so once
  /// it is built this reads the certificate's votes.
  const ReceivedVotes& received_votes() const noexcept {
    return votes_in_own_certificate_ ? own_certificate().votes
                                     : received_votes_;
  }
  const CollectedIntentions& collected_intentions() const noexcept {
    return collected_;
  }
  /// The boxes holding this agent's only copies of H_u, CE_u and CE_min
  /// (each empty until built or adopted).  H_u and CE_u own their heap
  /// boxes; Commitment replies, the L_u records filed from them and CE_min
  /// are views of them, so nothing else counts or copies the objects.
  /// CE_min may instead be a view of, or handle to, an adopted arrival.
  const sim::Payload& intention_payload() const noexcept {
    return intention_payload_;
  }
  const sim::Payload& own_certificate_payload() const noexcept {
    return own_cert_payload_;
  }
  const sim::Payload& min_certificate_payload() const noexcept {
    return min_cert_payload_;
  }
  bool has_own_certificate() const noexcept {
    return !own_cert_payload_.empty();
  }
  /// CE_u; a default certificate before Find-Min begins.
  const Certificate& own_certificate() const noexcept {
    return certificate_or_default(own_cert_payload_);
  }
  bool has_min_certificate() const noexcept { return has_min_certificate_; }
  /// CE_min; a default certificate until one is built or adopted.
  const Certificate& min_certificate() const noexcept {
    return certificate_or_default(min_cert_payload_);
  }
  /// Labels that pulled us during the Commitment phase (first pull only is
  /// binding, but we record all for the Def. 5 diagnostics).
  const std::vector<sim::AgentId>& commitment_pullers() const noexcept {
    return commitment_pullers_;
  }

  /// Local memory footprint under the paper's encoding model, in bits:
  /// H_u + L_u + W_u + the two certificates.  The paper claims
  /// polylogarithmic local memory; experiment E2 reports this measured
  /// (L_u dominates with Θ(log n) records of Θ(log^2 n) bits each).
  std::uint64_t local_memory_bits() const noexcept;

  // ---- sim::Agent ------------------------------------------------------
  void on_start(const sim::Context& ctx) override;
  sim::Action on_round(const sim::Context& ctx) override;
  sim::Payload serve_pull(const sim::Context& ctx,
                          sim::AgentId requester) override;
  void on_pull_reply(const sim::Context& ctx, sim::AgentId target,
                     const sim::Payload& reply) override;
  void on_push(const sim::Context& ctx, sim::AgentId sender,
               const sim::Payload& payload) override;
  /// Final, so the agent's own checks are direct calls.
  bool done() const final { return decided_ || failed_; }

  // All observations move only inside this agent's own callbacks, so the
  // engine may mirror them into its SoA caches (sim/agent.hpp).
  bool cacheable_observations() const noexcept override { return true; }

  /// Audit-pipeline stage for adaptive schedulers (sim::EngineView): the
  /// schedule reads the *global* clock, so this reflects the phase of the
  /// agent's last activation — exact under the synchronous model, possibly
  /// stale for an agent a scheduler is starving.
  sim::AgentPhase phase() const noexcept override {
    return done() ? sim::AgentPhase::kDone : observed_phase_;
  }

  /// Numeric pipeline position (stages completed + fraction of the current
  /// stage, in [0, 4]): round-of-last-activation / q, capped at 4.0 once
  /// decided or failed.  Same staleness caveat as phase().
  double progress() const noexcept override;

 protected:
  // ---- Deviation hooks: defaults implement the honest protocol ---------

  /// Voting-Intention: q pairs, each value u.a.r. in [m], target u.a.r. [n].
  virtual VoteIntention choose_intention(const sim::Context& ctx);

  /// Commitment-phase active operation (default: pull a u.a.r. peer).
  virtual sim::Action commitment_action(const sim::Context& ctx);

  /// Reply served to a Commitment pull (default: our full intention, as a
  /// pinned view of H_u's box; a deviator may equivocate or stay silent by
  /// returning an empty payload).
  virtual sim::Payload commitment_reply(const sim::Context& ctx,
                                        sim::AgentId requester);

  /// The vote pushed in voting round i (default: H_u[i], as declared).
  virtual VoteEntry vote_for_round(const sim::Context& ctx, std::uint32_t i);

  /// The certificate entered into Find-Min (default: honest
  /// (k_u, W_u, c_u, u)).  The default moves W_u into the certificate, so
  /// an override that alters the votes must build from a copy of
  /// received_votes_ instead of editing the default's result, and any
  /// subclass code that may run once Find-Min begins must read W_u
  /// through received_votes(), never received_votes_.
  virtual Certificate build_own_certificate(const sim::Context& ctx);

  /// Find-Min adoption rule (default: keep the smaller of ours/theirs).
  virtual void consider_certificate(const Certificate& certificate);

  /// Reply served to a Find-Min pull (default: current minimal certificate,
  /// as min_cert_payload() holds it).
  virtual sim::Payload find_min_reply(const sim::Context& ctx,
                                      sim::AgentId requester);

  /// Coherence-phase active operation (default: push CE_min to u.a.r peer).
  virtual sim::Action coherence_action(const sim::Context& ctx);

  /// Handles a certificate pushed at us during Coherence (default: make the
  /// protocol fail on any mismatch, per Algorithm 1).
  virtual void on_coherence_certificate(const Certificate& certificate);

  /// Handles a fingerprint pushed at us during Coherence when the digest
  /// optimization is on (default: fail on mismatch with our CE_min digest).
  virtual void on_coherence_digest(std::uint64_t digest);

  /// Verification + decision (default: audit CE_min, adopt its color or
  /// fail).  Runs once, in the round right after Coherence ends.
  virtual void finalize(const sim::Context& ctx);

  /// Enters the invalid/failed state (supporting no color in Σ).
  void fail_protocol() noexcept {
    failed_ = true;
    decided_ = true;
  }

  /// The CE_min payload once Find-Min has begun for this agent, empty
  /// before.  Serving Θ(log n) pulls per Find-Min round from one boxed
  /// allocation keeps the simulator's constant factors down.  It starts as
  /// a pinned view of CE_u; when the default consider_certificate adopts a
  /// pinned or heap-boxed arrival, it is that view or box, so a converged
  /// network serves one object, and serving a view counts no references.
  sim::Payload min_cert_payload() const {
    return has_min_certificate_ ? min_cert_payload_ : sim::Payload{};
  }

  void decide(Color c) noexcept {
    final_color_ = c;
    decided_ = true;
  }

  // ---- Protocol state (visible to deviation subclasses) ----------------
  ProtocolParams params_;
  Color color_;                      ///< c_u, the initially supported color.
  /// L_u.  A record filed from a pinned reply views the peer's write-once
  /// H_u box and counts no reference; any other heap box is kept by a
  /// counted handle, and an arena-boxed reply is copied once into a heap
  /// box that keeps its verdict and summary.
  CollectedIntentions collected_;
  /// W_u, until the default build_own_certificate moves it into CE_u;
  /// from then on read it through received_votes().
  ReceivedVotes received_votes_;
  /// Set when this agent builds CE_u at find_min_begin.  An agent a
  /// scheduler did not activate in that round may still adopt a
  /// certificate, which finalize audits, but it serves no CE_min.
  bool has_min_certificate_ = false;
  bool failed_ = false;
  bool decided_ = false;
  Color final_color_ = kNoColor;
  VerificationFailure verification_failure_ = VerificationFailure::kNone;
  std::vector<sim::AgentId> commitment_pullers_;
  /// Phase observed at the last on_round (exposed through phase()).
  sim::AgentPhase observed_phase_ = sim::AgentPhase::kCommit;
  /// Round observed at the last on_round (exposed through progress()).
  std::uint64_t observed_round_ = 0;

 private:
  void record_commitment_reply(sim::AgentId target,
                               const sim::Payload& reply);

  /// The Find-Min reply being considered, if it is a heap box or a pinned
  /// view holding exactly `certificate`; empty otherwise (arena boxes are
  /// never kept).
  sim::Payload arriving_box_of(const Certificate& certificate) const;

  /// The certificate boxed in `payload`, or a default one if it is empty.
  static const Certificate& certificate_or_default(
      const sim::Payload& payload) noexcept;

  /// Set by the default build_own_certificate: W_u lives in CE_u's box.
  bool votes_in_own_certificate_ = false;
  /// H_u, boxed once in on_start: the Commitment reply and the vote plan.
  /// Never reassigned afterwards, since replies are pinned views of it.
  sim::Payload intention_payload_;
  /// CE_u, boxed once when Find-Min begins and never reassigned afterwards,
  /// since CE_min payloads across the network are pinned views of it.
  sim::Payload own_cert_payload_;
  /// CE_min: a pinned view of the own box or of an arrival's, a shared
  /// arriving heap box, or a private copy of an arrival that could not be
  /// shared.
  sim::Payload min_cert_payload_;
  /// The Find-Min reply under consideration (set only for the duration of
  /// the consider_certificate call in on_pull_reply).
  const sim::Payload* arriving_cert_ = nullptr;
};

}  // namespace rfc::core
