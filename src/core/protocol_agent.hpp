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

#include "core/audit_state.hpp"
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

  // ---- Diagnostics read by the runner after execution ------------------
  /// H_u, W_u, L_u, CE_u and CE_min with their boxes (core/audit_state.hpp).
  const AuditState& audit() const noexcept { return audit_; }
  const CollectedIntentions& collected_intentions() const noexcept {
    return audit_.collected_intentions();
  }
  const sim::Payload& min_certificate_payload() const noexcept {
    return audit_.min_certificate_payload();
  }
  bool has_own_certificate() const noexcept {
    return audit_.has_own_certificate();
  }
  const Certificate& own_certificate() const noexcept {
    return audit_.own_certificate();
  }
  /// Whether this agent built CE_u at find_min_begin; only then does it
  /// serve CE_min (it may adopt one anyway, which finalize audits).
  bool has_min_certificate() const noexcept { return has_own_certificate(); }
  const Certificate& min_certificate() const noexcept {
    return audit_.min_certificate();
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
  /// audit().received_votes() instead of editing the default's result.
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

  /// The CE_min payload this agent serves: one box (usually a view) for
  /// every pull, once has_min_certificate(); empty before.
  sim::Payload min_cert_payload() const {
    return has_min_certificate() ? audit_.min_certificate_payload()
                                 : sim::Payload{};
  }

  void decide(Color c) noexcept {
    final_color_ = c;
    decided_ = true;
  }

  // ---- Protocol state (visible to deviation subclasses) ----------------
  ProtocolParams params_;
  Color color_;                      ///< c_u, the initially supported color.

 private:
  AuditState audit_;
  std::vector<sim::AgentId> commitment_pullers_;
  /// Round observed at the last on_round (exposed through progress()).
  std::uint64_t observed_round_ = 0;
  Color final_color_ = kNoColor;
  /// The Find-Min reply under consideration (set only for the duration of
  /// the consider_certificate call in on_pull_reply).
  const sim::Payload* arriving_cert_ = nullptr;
  bool failed_ = false;
  bool decided_ = false;
  /// Phase observed at the last on_round (exposed through phase()).
  sim::AgentPhase observed_phase_ = sim::AgentPhase::kCommit;
};

// protocol_mc builds 2048 agents per trial: the audit state must not grow
// the agent.
static_assert(sizeof(ProtocolAgent) <= 336);

}  // namespace rfc::core
