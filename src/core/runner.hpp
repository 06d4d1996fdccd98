// End-to-end execution of Protocol P on the simulated GOSSIP network:
// builds the engine, installs (honest or deviating) agents, applies the
// fault plan, runs to termination, and extracts the outcome plus the
// good-execution diagnostics of Definitions 2 and 5.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "core/protocol_agent.hpp"
#include "core/types.hpp"
#include "core/verification.hpp"
#include "sim/budget.hpp"
#include "sim/engine.hpp"
#include "sim/fault_model.hpp"
#include "sim/network_spec.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::core {

/// Factory used to install deviating agents; return null to get an honest
/// agent for that label.
using AgentFactory = std::function<std::unique_ptr<ProtocolAgent>(
    sim::AgentId id, const ProtocolParams& params, Color color)>;

struct RunConfig {
  std::uint32_t n = 0;
  double gamma = 4.0;
  std::uint64_t seed = 1;
  /// Initial color of every label; entries for faulty labels are ignored.
  /// If empty, fair leader election is simulated (c_u = u).
  std::vector<Color> colors;
  std::uint32_t num_faulty = 0;
  sim::FaultPlacement placement = sim::FaultPlacement::kNone;
  bool strict_verification = true;
  /// Coherence-digest optimization (see ProtocolParams::coherence_digest).
  bool coherence_digest = false;
  /// Interconnect; null = the complete graph (the paper's model).  On other
  /// topologies all protocol contacts (audits, votes, broadcast) go to
  /// random *neighbors*; experiment E11 explores open problem #1.
  sim::TopologyPtr topology;
  /// Activation policy; the default is the paper's synchronous model.
  /// Protocol P's phase schedule reads the *global* clock, so under
  /// activation-based policies (sequential, adversarial, poisson) agents
  /// see only ~1/n of the schedule's rounds each and the completeness
  /// argument is expected to break — running it anyway is how E12c/E12d
  /// map where it breaks.  The step budget scales by
  /// scheduler.steps_per_round(n) so every agent still observes the whole
  /// schedule.  `synchronous:shards=S,threads=T` runs the phased round
  /// sharded on a thread pool (sim/sharding.hpp), bit-identical to the
  /// serial engine; deviation factories that share a Coalition blackboard
  /// across labels are not shard-safe, so keep shards=1 with a coalition.
  sim::SchedulerSpec scheduler;
  /// Message-layer adversary & churn (`network:drop=p,corrupt=p,...`, see
  /// sim/network_spec.hpp); the default is the reliable network.  Composes
  /// with every scheduler — the fault stage sits in the engine's delivery
  /// phases, below the activation policy.
  sim::NetworkSpec network;
  /// Labels that deviate (the coalition C).  Their agents come from
  /// `factory`; outcome and fairness are judged over honest agents.
  std::vector<sim::AgentId> coalition;
  AgentFactory factory;
  /// Safety cap on engine rounds (the protocol self-terminates at 4q+1).
  std::uint64_t max_rounds_slack = 16;
  /// Optional run budget override (events and/or a virtual-time horizon).
  /// Unset fields fall back to the schedule-derived default event cap.
  sim::Budget budget;
  /// When true, the runner watches every Find-Min round and records when
  /// global agreement on CE_min is actually reached (an O(n)-per-round
  /// measurement used by E1; off by default).
  bool measure_convergence = false;
};

/// Empirical counterparts of the good-execution events (Def. 2 / Def. 5),
/// measured over honest active agents.
struct GoodExecutionEvents {
  std::uint32_t min_votes = 0;  ///< Fewest votes any honest agent received.
  std::uint32_t max_votes = 0;  ///< Most votes any honest agent received.
  bool k_values_distinct = false;       ///< Def. 2(2) over honest agents.
  bool find_min_agreement = false;      ///< Def. 2(3) / Def. 5(2).
  bool every_agent_audited = false;     ///< Def. 5(1): every active agent was
                                        ///< commitment-pulled by an honest one.
  bool every_agent_cleanly_voted = false;  ///< Def. 5(3): every active agent
                                        ///< receives a vote from an honest
                                        ///< agent not pulled by the coalition.
};

/// Why honest agents ended at ⊥: each honest failure counted once, under
/// the Verification failure that rejected its CE_min, or under
/// coherence_or_undecided when it failed before Verification (a Coherence
/// mismatch) or never decided.  The counts sum to honest_failures.
struct HonestFailureCauses {
  /// Indexed by VerificationFailure; the kNone slot stays 0.
  std::array<std::uint32_t, kVerificationFailureCount> verification{};
  std::uint32_t coherence_or_undecided = 0;

  std::uint32_t of(VerificationFailure f) const noexcept {
    return verification[static_cast<std::size_t>(f)];
  }
};

struct RunResult {
  /// The winning color, or kNoColor for the ⊥ outcome (some honest agent
  /// failed, or honest agents disagree).
  Color winner = kNoColor;
  bool failed() const noexcept { return winner == kNoColor; }
  /// Owner label of the accepted minimal certificate (kNoAgent on ⊥).
  sim::AgentId winner_agent = sim::kNoAgent;
  std::uint64_t rounds = 0;
  std::uint32_t num_active = 0;
  std::uint32_t honest_failures = 0;  ///< Honest agents that raised fail.
  HonestFailureCauses failure_causes;  ///< honest_failures, by cause.
  /// Largest per-agent state footprint observed (bits) — the paper's
  /// polylog local-memory claim, measured.
  std::uint64_t max_local_memory_bits = 0;
  /// With measure_convergence: the Find-Min round index (0-based within
  /// the phase) after which every honest agent already held the same
  /// certificate; the schedule grants q such rounds.  ~0 if never reached
  /// or not measured.
  std::uint64_t find_min_agreement_round = kNotMeasured;
  static constexpr std::uint64_t kNotMeasured = ~0ull;
  sim::Metrics metrics;
  GoodExecutionEvents events;
  /// Initial color histogram over *active* agents — the denominator of the
  /// fairness property (Pr[c wins] = N(A,c)/|A|).
  std::map<Color, std::uint32_t> active_colors;
};

/// Builds the engine of a Protocol P run — params derived, fault plan
/// applied, honest/deviating agents installed — without stepping it.  Split
/// out so harnesses that need the engine afterwards (e.g. the transport
/// cross-check digesting per-agent end state, net/harness.hpp) drive the
/// exact engine the entry point runs.
std::unique_ptr<sim::Engine> build_protocol_engine(const RunConfig& cfg);

/// Runs the protocol loop on an engine built by build_protocol_engine and
/// extracts the outcome (params, colors, and coalition membership are
/// re-derived from cfg, deterministically).
RunResult run_protocol_on(sim::Engine& engine, const RunConfig& cfg);

/// Equivalent to build_protocol_engine + run_protocol_on.
RunResult run_protocol(const RunConfig& cfg);

/// Convenience: the color vector for fair leader election (c_u = u).
std::vector<Color> leader_election_colors(std::uint32_t n);

/// Convenience: colors split by fractions, e.g. {0.5, 0.3, 0.2} assigns the
/// first half of labels color 0, next 30% color 1, etc.  Fractions are
/// normalized; rounding gives the last color the remainder.
std::vector<Color> split_colors(std::uint32_t n,
                                const std::vector<double>& fractions);

}  // namespace rfc::core
