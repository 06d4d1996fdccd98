// Exploratory asynchronous Protocol P — a concrete probe at the paper's
// second open problem ("the asynchronous (i.e. sequential) GOSSIP model
// where, at every round, only one (possibly random) agent is awake").
//
// The synchronous protocol relies on globally aligned phases: a voter's
// round index identifies its vote, and everyone enters Find-Min at the same
// instant.  In the sequential model each agent can only count its *own*
// activations, which concentrate around t/n after t global steps with
// Θ(sqrt(t/n)) jitter — so naive per-agent phase schedules misalign by
// Θ(sqrt(q)) activations and late votes miss the certificate, tripping the
// (completeness) verification.  Our variant makes three changes:
//   1. votes carry their own voting-round index (log q extra bits), since
//      the receiver cannot infer it from a global clock;
//   2. a pull reply is a composite of H_u and the current CE_min, since the
//      servee cannot know which phase its puller is in.  It holds views of
//      the server's boxes, not copies; the wire still charges both objects
//      in full, plus one bit that says whether CE_min is present;
//   3. **guard bands**: each agent idles for `slack` activations between
//      phases, absorbing the Θ(sqrt(q log n)) scheduling jitter.  slack = 0
//      recovers the naive schedule (which fails often); slack of a few
//      sqrt(q) makes the full audit pipeline go through w.h.p.
// The audit itself is the synchronous agent's (core/audit_state.hpp), so
// L_u records are 12-byte views of the peers' H_u boxes.
//
// Experiment E12c measures failure rate and fairness vs the slack.  The
// *rational* analysis of this variant is open — we reproduce and
// characterize the obstacle, as the paper does, rather than claim the
// equilibrium result.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/audit_state.hpp"
#include "core/runner.hpp"
#include "sim/agent.hpp"
#include "sim/metrics.hpp"

namespace rfc::core {

/// Local schedule of the asynchronous variant, in units of the agent's own
/// activations: q commitment pulls, slack idle, q voting pushes, slack
/// idle, q + slack find-min pulls, q coherence pushes, then verify.
///
/// The guard band after voting protects vote *completeness* (no vote may
/// land after its recipient seals the certificate).  Between Find-Min and
/// Coherence no idle band is needed — extra Find-Min pulls both absorb the
/// scheduling jitter and extend the broadcast, which is what agreement on
/// CE_min actually requires.
struct AsyncSchedule {
  std::uint32_t q = 0;
  std::uint32_t slack = 0;

  enum class LocalPhase : std::uint8_t {
    kCommitment,
    kVoting,
    kFindMin,
    kCoherence,
    kFinished,
    kGuard,  ///< Idle activation inside a guard band.
  };

  LocalPhase phase_of(std::uint64_t activation) const noexcept;
  /// Index within the current communication phase, in [0, q).
  std::uint32_t index_of(std::uint64_t activation) const noexcept;
  std::uint64_t total_activations() const noexcept {
    return 4ull * q + 3ull * slack;
  }

  /// The sim-level phase observation for activation `a` (the agent's next
  /// wake-up): guard bands report the communication phase they lead into —
  /// an agent idling before its voting pushes is "entering its voting
  /// window", which is exactly what a phase-aware adversary targets.
  sim::AgentPhase observed_phase(std::uint64_t activation) const noexcept;

  /// Numeric pipeline position for activation `a`: completed observed
  /// stages + fraction of the current one, in [0, 4], consistent with
  /// observed_phase (guard activations count toward the stage they lead
  /// into).  Exact for any activation policy, like observed_phase.
  double progress_of(std::uint64_t activation) const noexcept;
};

class AsyncProtocolAgent final : public sim::Agent {
 public:
  AsyncProtocolAgent(const ProtocolParams& params, AsyncSchedule schedule,
                     Color color);

  bool failed() const noexcept { return failed_; }
  bool decided() const noexcept { return decided_; }
  Color decision() const noexcept {
    return decided_ && !failed_ ? final_color_ : kNoColor;
  }
  /// Why Verification rejected; kNone for a Coherence failure.
  VerificationFailure verification_failure() const noexcept {
    return audit_.verification_failure();
  }
  /// Wake-ups consumed so far (diagnostics).
  std::uint64_t activations() const noexcept { return activations_; }
  /// H_u, L_u, W_u, CE_u and CE_min with their boxes.
  const AuditState& audit() const noexcept { return audit_; }

  void on_start(const sim::Context& ctx) override;
  sim::Action on_round(const sim::Context& ctx) override;
  sim::Payload serve_pull(const sim::Context& ctx,
                          sim::AgentId requester) override;
  void on_pull_reply(const sim::Context& ctx, sim::AgentId target,
                     const sim::Payload& reply) override;
  void on_push(const sim::Context& ctx, sim::AgentId sender,
               const sim::Payload& payload) override;
  bool done() const override { return decided_ || failed_; }

  // All observations move only inside this agent's own callbacks, so the
  // engine may mirror them into its SoA caches (sim/agent.hpp).
  bool cacheable_observations() const noexcept override { return true; }

  /// Audit-pipeline stage for adaptive schedulers (sim::EngineView).  The
  /// local schedule counts own activations, so this is the phase of the
  /// agent's *next* wake-up — exact under any activation policy.
  sim::AgentPhase phase() const noexcept override {
    return done() ? sim::AgentPhase::kDone
                  : schedule_.observed_phase(activations_);
  }

  /// Numeric pipeline position (sim::EngineView), from the local schedule
  /// and the agent's own activation count — exact under any policy.
  double progress() const noexcept override {
    return done() ? 4.0 : schedule_.progress_of(activations_);
  }

 private:
  ProtocolParams params_;
  AsyncSchedule schedule_;
  Color color_;
  std::uint64_t activations_ = 0;
  /// CE_min is the best certificate seen, early Coherence pushes included.
  AuditState audit_;
  Color final_color_ = kNoColor;
  bool failed_ = false;
  bool decided_ = false;
};

struct AsyncRunConfig {
  std::uint32_t n = 0;
  double gamma = 4.0;
  /// Guard band between phases, in activations.  0 = naive schedule.
  std::uint32_t slack = 0;
  std::uint64_t seed = 1;
  std::vector<Color> colors;  ///< Empty = leader election.
  std::uint32_t num_faulty = 0;
  sim::FaultPlacement placement = sim::FaultPlacement::kNone;
  /// Activation policy; the guard-band schedule counts *local* activations,
  /// so it is well-defined under any policy.  The default is the paper's
  /// sequential model; adversarial/poisson runs map where the guard-band
  /// completeness argument breaks (extends E12c/E12d), and
  /// `adversarial:phase=vote,budget=B` starves agents exactly in their
  /// voting window (E12f).
  sim::SchedulerSpec scheduler = sim::SchedulerSpec::sequential();
  /// Message-layer adversary & churn (sim/network_spec.hpp); the default is
  /// the reliable network.  E12h maps success probability against its
  /// drop/corrupt rates.
  sim::NetworkSpec network;
  /// Optional run budget override (events and/or a virtual-time horizon).
  /// Unset fields fall back to the activation-scaled default event cap.
  sim::Budget budget;
};

/// The outcome, failure causes included (runner.hpp), plus the run's cost.
struct AsyncRunResult : HonestOutcome {
  std::uint64_t steps = 0;           ///< Scheduling events elapsed.
  double virtual_time = 0.0;         ///< Simulated time (= steps discrete).
  sim::Metrics metrics;
};

/// Builds the engine of an asynchronous run (agents installed, fault plan
/// applied) without stepping it, so a harness can read every agent after.
std::unique_ptr<sim::Engine> build_async_engine(const AsyncRunConfig& cfg);

/// Runs an engine built by build_async_engine and extracts the outcome.
AsyncRunResult run_async_protocol_on(sim::Engine& engine,
                                     const AsyncRunConfig& cfg);

/// Equivalent to build_async_engine + run_async_protocol_on.
AsyncRunResult run_async_protocol(const AsyncRunConfig& cfg);

}  // namespace rfc::core
