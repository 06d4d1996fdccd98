// The agent interface of the synchronous GOSSIP model.
//
// Model recap (Section 2 of the paper): the network is the complete graph on
// [n].  In every synchronous round each node performs at most one *active*
// operation — a push (send one message to one chosen neighbor) or a pull
// (request one message from one chosen neighbor, answered within the round).
// A node may passively *receive* any number of pushes and serve any number of
// pull requests per round.  Channels are secure: the receiver always learns
// the authentic label of the peer (agents cannot forge their identity, an
// assumption shared with all prior work on rational consensus).
//
// Synchrony contract enforced by the engine:
//   1. `on_round` is called once per round per active agent to collect its
//      active operation.
//   2. All `serve_pull` calls of the round happen next; implementations must
//      answer from state as of the *start* of the round (the provided
//      protocol agents do this naturally because they mutate state only in
//      the delivery hooks).
//   3. All pull replies are then delivered via `on_pull_reply`, and all
//      pushed payloads via `on_push`, in sender-label order.
#pragma once

#include <cstdint>
#include <string>

#include "sim/payload.hpp"
#include "sim/topology.hpp"
#include "support/rng.hpp"

namespace rfc::support {
class Arena;
}  // namespace rfc::support

namespace rfc::sim {

inline constexpr AgentId kNoAgent = static_cast<AgentId>(-1);

/// Coarse, protocol-agnostic pipeline stages an agent may expose to
/// observers (sim/engine_view.hpp) through Agent::phase().  Adaptive
/// schedulers key starvation decisions off these — e.g. starving an agent
/// exactly while it reports kVote.  The names mirror the audit pipeline of
/// Protocol P (commit declarations → cast votes → spread the minimum →
/// cross-check) but carry no protocol semantics in the sim layer; agents
/// without a pipeline stay at kUnknown.
enum class AgentPhase : std::uint8_t {
  kUnknown = 0,  ///< Agent exposes no phase information (the default).
  kCommit,       ///< Declaring/collecting commitments (audit pulls).
  kVote,         ///< Entering or inside its voting window.
  kSpread,       ///< Broadcasting/aggregating (e.g. find-min).
  kConfirm,      ///< Cross-checking the outcome (e.g. coherence).
  kDone,         ///< Decided or failed; no further active operations.
};

/// Stable lowercase names ("commit", "vote", ...), used by the
/// `adversarial:phase=` scheduler parameter.
const char* to_string(AgentPhase phase) noexcept;

/// Inverse of to_string; throws std::invalid_argument on unknown names
/// (including "unknown", which no observer can meaningfully target).
AgentPhase parse_agent_phase(const std::string& text);

/// Per-callback view of the world handed to an agent by the engine.
struct Context {
  AgentId self = kNoAgent;          ///< This agent's authentic label.
  std::uint32_t n = 0;              ///< Network size (known to all agents).
  std::uint64_t round = 0;          ///< Current round, starting at 0.
  rfc::support::Xoshiro256* rng = nullptr;  ///< This agent's private stream.
  const Topology* topology = nullptr;  ///< Null means the complete graph.
  /// Round-lifetime allocator for transient boxed payloads (null outside an
  /// engine round, e.g. in direct test calls).  Payloads built here via
  /// Payload::make_boxed_in are valid until the next round's shard-barrier
  /// reset — use it for messages consumed in this round's delivery hooks,
  /// never for payloads cached across rounds.
  rfc::support::Arena* arena = nullptr;

  /// A neighbor chosen uniformly at random — the "choose a neighbor u.a.r."
  /// primitive of the GOSSIP model.  On the complete graph this is a label
  /// u.a.r. in [0, n) (self-loops permitted, as in the standard analyses; a
  /// self-contact is a wasted round).
  AgentId random_peer() const noexcept {
    if (topology != nullptr) return topology->sample_neighbor(self, *rng);
    return static_cast<AgentId>(rng->below(n));
  }
};

enum class ActionKind : std::uint8_t { kIdle, kPush, kPull };

/// The single active operation an agent performs in a round.  Carried by
/// value: the payload is a flat tagged union (sim/payload.hpp), so the
/// engine's per-round Action buffers involve no per-message allocation.
struct Action {
  ActionKind kind = ActionKind::kIdle;
  AgentId target = kNoAgent;  ///< Peer contacted (push destination / pullee).
  Payload payload;            ///< Pushed payload (empty for pull/idle).

  static Action idle() noexcept { return {}; }
  static Action push(AgentId to, Payload p) noexcept {
    return {ActionKind::kPush, to, std::move(p)};
  }
  static Action pull(AgentId from) noexcept {
    return {ActionKind::kPull, from, Payload{}};
  }
};

class Agent {
 public:
  virtual ~Agent() = default;

  /// Called once before round 0.
  virtual void on_start(const Context& /*ctx*/) {}

  /// Returns this agent's active operation for the round.
  virtual Action on_round(const Context& ctx) = 0;

  /// Serves a pull request from `requester`.  Returning an empty payload
  /// models "no reply" — the requester will observe silence exactly as it
  /// would from a faulty node.  Must answer from round-start state.
  virtual Payload serve_pull(const Context& ctx, AgentId requester) = 0;

  /// Delivers the reply to this agent's own pull.  `reply` is empty when
  /// the pulled peer was faulty, quiescent, or chose not to answer.
  virtual void on_pull_reply(const Context& /*ctx*/, AgentId /*target*/,
                             const Payload& /*reply*/) {}

  /// Delivers a payload pushed by `sender` this round.
  virtual void on_push(const Context& /*ctx*/, AgentId /*sender*/,
                       const Payload& /*payload*/) {}

  /// True once the agent has reached a final state.  The engine stops when
  /// every non-faulty agent is done.  Contract: done() may change only
  /// inside this agent's own callbacks (on_start, on_round, serve_pull,
  /// on_pull_reply, on_push) — in the GOSSIP model an agent's state moves
  /// only through its own operations and the messages it receives.  The
  /// engine caches the report after each callback and reads the cache, so
  /// state mutated from outside those callbacks after the first step is
  /// never seen.
  virtual bool done() const = 0;

  /// Observation hook for adaptive schedulers (read through
  /// sim::EngineView): the coarse pipeline stage this agent is in.  The
  /// default kUnknown means "no phase information"; protocol agents
  /// override it to expose their audit-pipeline stage.  Read live (a
  /// virtual call per observation, never cached).  For agents whose
  /// schedule reads a global clock the observation reflects their *last
  /// activation* (a starved agent's report can be stale); agents counting
  /// their own activations report the phase of their next wake-up exactly.
  virtual AgentPhase phase() const noexcept { return AgentPhase::kUnknown; }

  /// Numeric observation hook next to phase(): the agent's position in its
  /// local pipeline, encoded as completed stages plus the fraction of the
  /// current stage done — the integer part counts pipeline stages fully
  /// behind the agent, the fractional part (in [0, 1)) is how far through
  /// the current stage it is.  Monotone nondecreasing over an execution and
  /// comparable *within one agent family*, which is all a reactive
  /// adversary needs: `adversarial:target=min-cert` starves the agent whose
  /// report is currently minimal (the weakest certificate/progress holder),
  /// `target=quorum-edge` the agents whose fractional part is largest (just
  /// about to complete their phase).  Read live, with the same staleness
  /// caveat as phase().  Agents without a pipeline report 0 forever.
  virtual double progress() const noexcept { return 0.0; }

  /// True when this agent's callbacks touch only its own state and the
  /// Context handed to them — the requirement of the sharded round
  /// (sim/sharding.hpp).  Agents sharing mutable state across labels (a
  /// coalition blackboard) override to false; the sharded executor then
  /// refuses to run them instead of silently racing.
  virtual bool shard_safe() const noexcept { return true; }
};

}  // namespace rfc::sim
