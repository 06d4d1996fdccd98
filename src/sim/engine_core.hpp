// The execution substrate shared by every activation model, in one process
// or spread over the nodes of a cluster.
//
// EngineCore owns *what it means to run agents* — agent storage, fault
// bookkeeping, per-agent SplitMix-derived RNG streams, exact message
// accounting, and the state the two delivery primitives work on:
//
//   * the synchronous phased round (collect one active operation per awake
//     agent, serve pulls from round-start state, deliver replies, deliver
//     pushes).  Its one implementation is ShardedRoundExecutor
//     (sim/sharding.hpp), a friend that runs the phases over one or more
//     contiguous label partitions against this core's buffers and
//     accounting — every partition in one engine, or one per cluster node
//     (net::NodeDriver), whose core owns only its node's labels;
//   * sequential_activation — one agent wakes alone and its operation
//     resolves immediately against current state.
//
// *When* agents run — activation order and round/step semantics — is a
// Scheduler policy (sim/scheduler.hpp).  The Engine facade
// (sim/engine.hpp) binds the two.  An execution is fully deterministic
// given (n, seed, topology, fault plan, agents): the round's partitions
// touch disjoint agents in each phase, so every (partitions, threads)
// choice reproduces the one-partition execution bit for bit.  Monte-Carlo
// parallelism lives one level up (analysis::MonteCarlo) and runs
// independent cores on independent seeds.
//
// Hot state is structure-of-arrays.  The polymorphic Agent objects remain
// the behavior, but everything the round loop touches per agent lives in
// contiguous parallel arrays: the fault flags, the per-agent RNG streams,
// and the done() cache.  Agent::done() changes only inside the agent's own
// callbacks (its contract), so the core re-reads it after each callback and
// every other reader — the round, the schedulers, all_done() — reads the
// cache.  phase() and progress() are read live: only adaptive schedulers
// observe them.
//
// The round this core feeds is cache-blocked (the lanes drain 2^16-label
// units, block_shift_) and sparse (phase A walks the live list kept below,
// so a round costs O(live + messages), not O(n)); sim/sharding.hpp says how.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/agent.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "support/arena.hpp"
#include "support/rng.hpp"

namespace rfc::sim {

/// The contiguous labels [begin, end) one core runs.
struct LabelRange {
  AgentId begin = 0;
  AgentId end = kNoAgent;  ///< Clamped to n.
};

class EngineCore {
 public:
  /// A core over labels [0, n) that runs (installs, seeds, starts and
  /// schedules) only those in `owned`: all of them in an engine, one node's
  /// block in a cluster.  The fault plan still covers all n labels.
  EngineCore(std::uint32_t n, std::uint64_t seed, TopologyPtr topology,
             LabelRange owned = {});

  /// Installs the agent for label `id`.  All owned labels must be populated
  /// before the first step.
  void set_agent(AgentId id, std::unique_ptr<Agent> agent);

  /// Marks `id` permanently faulty (must be called before the first step).
  void set_faulty(AgentId id, bool faulty = true);

  /// Applies a full fault plan (see sim/fault_model.hpp).
  void apply_fault_plan(const std::vector<bool>& plan);

  bool is_faulty(AgentId id) const { return faulty_.at(id) != 0; }
  std::uint32_t num_faulty() const noexcept { return num_faulty_; }
  std::uint32_t num_active() const noexcept { return n_ - num_faulty_; }

  std::uint32_t n() const noexcept { return n_; }
  std::uint64_t seed() const noexcept { return seed_; }
  /// Elapsed scheduling events: rounds under round-based schedulers, steps
  /// under sequential ones.
  std::uint64_t time() const noexcept { return time_; }
  /// Elapsed *virtual* time: the sum of scheduler step() increments.
  /// Equals time() for discrete policies; the continuous clock otherwise.
  double virtual_time() const noexcept { return metrics_.virtual_time; }
  /// Accumulates a scheduler-reported time increment (engine-internal).
  void advance_virtual_time(double dt) noexcept {
    metrics_.virtual_time += dt;
  }
  /// Accumulates wake-up denials reported by an adversarial policy — its
  /// spent starvation budget, surfaced next to the message counters so run
  /// results can compare adversaries by cost (scheduler-facing, like
  /// advance_virtual_time).
  void note_denials(std::uint64_t count) noexcept {
    metrics_.denials += count;
  }
  bool started() const noexcept { return started_; }
  const Metrics& metrics() const noexcept { return metrics_; }

  // --- Network adversary & churn (sim/network.hpp). -----------------------

  /// Installs the message-layer fault model (must precede the first step).
  /// Null (the default) — and any model with every rate zero — leaves all
  /// delivery paths bit-identical to the adversary-free engine: the fault
  /// stage is gated out entirely, not merely drawing zero-probability
  /// verdicts.
  void set_network(NetworkModelPtr network);

  /// True while churn holds agent `id` crashed: it idles, serves silence,
  /// and absorbs (charged) messages until its rejoin epoch.  Always false
  /// without a churn-enabled network model.
  bool is_down(AgentId id) const noexcept {
    return net_churn_ && down_until_[id] > net_epoch_;
  }

  Agent& agent(AgentId id) { return *agents_.at(id); }
  const Agent& agent(AgentId id) const { return *agents_.at(id); }

  /// The agent's done() report: the cache once started (identical to
  /// agent(id).done() under the Agent::done() contract), the virtual call
  /// before.
  bool agent_done(AgentId id) const {
    return started_ ? done_[id] != 0 : agents_[id]->done();
  }

  /// True when every owned non-faulty agent reports done(): O(1) off the
  /// cached done counter once started, a scan before.
  bool all_done() const;

  /// Clears `out` and refills it with the owned non-faulty labels, in label
  /// order (capacity reused by the caller across calls — scheduler
  /// attach/rebuild paths use this).
  void active_labels(std::vector<AgentId>& out) const;

  /// Bits charged for a pull *request* (the "send me your X" control
  /// message): one peer label, per the paper's accounting.
  std::uint64_t pull_request_bits() const noexcept;

  // --- Round arenas. -------------------------------------------------------

  /// Grows the per-partition arena set to `count` (the sequential path uses
  /// arena 0; the round one per partition).
  void ensure_arenas(std::uint32_t count);
  /// The round arena for shard `idx` (valid after ensure_arenas).
  support::Arena* round_arena(std::uint32_t idx) noexcept {
    return arenas_[idx].get();
  }
  /// Resets every round arena — the shard-barrier reset at round start.
  /// Payloads built in an arena live until the NEXT round begins.
  void reset_round_arenas() noexcept;

  /// Sets the synchronous round's delivery block to `labels` labels
  /// (rounded up to a power of two; default 2^16).  Every block size gives
  /// the same execution, so this exists only for tests that force many
  /// blocks at small n; must precede the first round.
  void set_block_labels(std::uint32_t labels);

  // --- Execution primitives, composed by Scheduler policies. ---
  // (The synchronous round is ShardedRoundExecutor::run_round.)

  /// Installs-check plus on_start for every owned active agent in label
  /// order.  Idempotent; runs before the first scheduler step.
  void ensure_started();

  /// Advances time by one step, then wakes `u` alone: its action is
  /// collected and resolved immediately (a pull is served from current
  /// state).  Waking a done() agent consumes the step as a wasted
  /// activation, as in the sequential model's analyses.
  void sequential_activation(AgentId u);

  /// The reply phase B served to `requester`'s pull, which phase C
  /// delivers (empty once delivered).  A cluster node moves the replies of
  /// remote requesters out of here and the replies from remote servers in.
  Payload& pull_reply(AgentId requester) { return pull_replies_[requester]; }

  /// Throws std::out_of_range for agent `i`'s action on `target` >= n: the
  /// one error every execution path gives for it.
  [[noreturn]] void throw_bad_target(AgentId i, AgentId target) const;

 private:
  friend class ShardedRoundExecutor;  // sim/sharding.hpp

  /// Where the fault stage parks the pushes it holds back: `held` takes
  /// the delayed ones (due in a later round) and, when `reorder` is set,
  /// the reordered ones (due this round, delivered after its push phase).
  /// The round passes per-partition lists (merged at its end, so delivery
  /// order stays partition-count independent); the sequential path passes
  /// the core's pending list and no reorder, having no delivery phase to
  /// reorder within, so it delivers a reordered push immediately.
  struct NetSinks {
    std::vector<DelayedPush>* held;
    bool reorder;
  };

  /// Expands the per-agent RNG streams for labels [lo, hi) from the master
  /// seed.  Stream values are a pure function of (seed, label), so *where*
  /// this runs is free: ensure_started derives the whole range on first
  /// use, and a multi-partition round prefetches each partition's block on
  /// its own worker thread instead (sim/sharding.hpp).
  void seed_rng_block(std::uint32_t lo, std::uint32_t hi) noexcept;

  Context make_context(AgentId id, support::Arena* arena) noexcept;
  support::Arena* serial_arena() noexcept {
    return arenas_.empty() ? nullptr : arenas_[0].get();
  }

  /// Re-reads agent `i`'s done() into done_ after it ran a callback.
  /// Returns true when the done byte flipped.  No-op for faulty labels.
  /// Touches only label i's byte, so it is safe inside a parallel round
  /// phase (one partition owns i).
  bool refresh_done(AgentId i) {
    if (faulty_[i] != 0) return false;
    const std::uint8_t d = agents_[i]->done() ? 1 : 0;
    if (d == done_[i]) return false;
    done_[i] = d;
    return true;
  }
  /// Brings the done counter in line with done_[i]; done_settled_[i] is
  /// the byte it last accounted for, so settling a label twice, or after a
  /// 1→0 flip (an Agent-contract breach: "done is final"), stays exact.
  void settle_done(AgentId i) {
    if (done_[i] == done_settled_[i]) return;
    done_settled_[i] = done_[i];
    if (done_[i] != 0) {
      ++num_done_;
    } else {
      --num_done_;
    }
  }
  /// Done refresh plus immediate settlement, for code running outside the
  /// round's parallel phases.
  void note_activation(AgentId i) {
    if (refresh_done(i)) settle_done(i);
  }
  /// Done refresh inside a round phase: the shared counter would race, so
  /// a flip is only recorded in the owning partition's `flipped` list, and
  /// the executor settles those labels when the round ends.
  void note_activation_sharded(AgentId i, std::vector<AgentId>& flipped) {
    if (refresh_done(i)) flipped.push_back(i);
  }

  /// Points the caller's hoisted `ctx` at agent `id`: its label and RNG
  /// stream.  Every other Context field is fixed for a round.
  Context& aim(Context& ctx, AgentId id) noexcept {
    ctx.self = id;
    ctx.rng = &rngs_[id];
    return ctx;
  }

  // The round steps: one definition of each message rule, shared by the
  // synchronous round (every phase, every partition, a cluster node) and the
  // sequential activation, so every execution model's metrics and agent
  // states agree by construction.  `Net` compiles the network stage in:
  // request/reply drop and corruption, churn's down checks, and net_push.
  // The round picks Net once per phase task from whether a fault-enabled
  // model is installed; the sequential path always takes Net = true, whose
  // per-message checks stay inert without one.  `metrics` is metrics_ on
  // the sequential path and a per-partition delta in the round (merged
  // after it).  A step points `ctx` at the agent it calls; the caller
  // refreshes that agent's done() cache.
  void charge_pull_request(Metrics& metrics);
  /// Serves `requester`'s pull on `v` from v's current state, charging the
  /// reply if there is one.  Faulty and down servers, and pulls whose
  /// request or reply the network drops, yield silence; a corrupted reply
  /// comes back tampered.  The round files the reply for phase C, the
  /// sequential path delivers it at once.
  template <bool Net>
  Payload serve_step(Context& ctx, AgentId v, AgentId requester,
                     Metrics& metrics) {
    if constexpr (Net) {
      if (net_msgs_ &&
          network_->drop(NetMessage::kPullRequest, time_, requester, v)) {
        ++metrics.net_drops;  // Lost request: charged by the caller, never
        return {};            // served — the requester observes silence.
      }
      if (is_down(v)) return {};
    }
    if (faulty_[v] != 0) return {};
    Payload reply = agents_[v]->serve_pull(aim(ctx, v), requester);
    if (reply.empty()) return reply;
    ++metrics.pull_replies;
    metrics.note_message(reply.bit_size());
    // Served and charged either way: the server's RNG consumption never
    // depends on what the network does afterwards.
    if constexpr (Net) {
      if (net_msgs_) net_reply(v, requester, reply, metrics);
    }
    return reply;
  }
  /// Charges `sender`'s push, runs the fault stage, and delivers what
  /// survives it.  The message travels, and is charged, even when a faulty
  /// or down target absorbs it.
  template <bool Net>
  void push_step(Context& ctx, AgentId sender, AgentId target,
                 const Payload& payload, Metrics& metrics, NetSinks sinks) {
    ++metrics.pushes;
    metrics.note_message(payload.bit_size());
    if constexpr (Net) {
      if (net_msgs_) {
        const Payload* body = &payload;
        Payload tampered;
        unsigned copies = net_push(sender, target, body, tampered, metrics,
                                   sinks);
        for (; copies > 0; --copies) deliver<Net>(ctx, sender, target, *body);
        return;
      }
    }
    deliver<Net>(ctx, sender, target, payload);
  }
  /// Delivery past charging and the fault stage: faulty and (with Net) down
  /// targets absorb the message silently.
  template <bool Net>
  void deliver(Context& ctx, AgentId sender, AgentId target,
               const Payload& payload) {
    if (faulty_[target] != 0) return;
    if constexpr (Net) {
      if (is_down(target)) return;
    }
    agents_[target]->on_push(aim(ctx, target), sender, payload);
  }

  // --- Network fault stage (no-ops unless a fault-enabled model is set). --

  /// Sweeps churn epochs up to `epoch`: every up agent draws a crash
  /// verdict per unswept epoch; a down agent returns when its window
  /// expires.  Serial contexts only (called at round/activation start).
  void advance_churn(std::uint64_t epoch);
  /// The network's drop / corrupt verdicts on a served, charged reply.
  void net_reply(AgentId server, AgentId requester, Payload& reply,
                 Metrics& metrics);
  /// The fault stage of one charged push: drop / corrupt / delay / reorder
  /// / duplicate.  Returns how many copies of `*body` to deliver now (none
  /// when dropped or held back in `sinks`), re-pointing `body` at
  /// `tampered` when the payload was corrupted.
  unsigned net_push(AgentId sender, AgentId target, const Payload*& body,
                    Payload& tampered, Metrics& metrics, NetSinks sinks);
  /// Delivers the held-back pushes now due (due <= time_: delayed pushes
  /// whose round has come, and this round's reordered ones) in (origin
  /// round, sender) order.  One push per sender per round makes that order
  /// total, so it cannot depend on how the pending list was accumulated.
  /// Serial contexts only: the round calls it before its push phase and
  /// again at its close, the sequential path at each activation.
  void deliver_held();

  std::uint32_t n_;
  std::uint64_t seed_;
  LabelRange owned_;
  TopologyPtr topology_;
  std::vector<std::unique_ptr<Agent>> agents_;

  // --- Structure-of-arrays hot state (one entry per label). ---------------
  std::vector<std::uint8_t> faulty_;
  std::vector<rfc::support::Xoshiro256> rngs_;
  std::vector<std::uint8_t> done_;  ///< Cached Agent::done(), once started.

  std::uint32_t num_faulty_ = 0;
  std::uint32_t num_done_ = 0;  ///< Owned non-faulty labels with done_[i].
  std::uint32_t num_owned_active_ = 0;  ///< Owned non-faulty labels.
  /// Label-ordered live owned labels (non-faulty, not done) — the sparse
  /// round's phase-A iteration domain.  Built at ensure_started; done
  /// entries compact away in place in each partition's phase A, and the
  /// round closes the gaps between partitions at its end.
  std::vector<AgentId> live_list_;
  /// done_[i] as last settled into num_done_ (settle_done).
  std::vector<std::uint8_t> done_settled_;
  std::uint64_t time_ = 0;
  bool started_ = false;
  bool rngs_seeded_ = false;
  Metrics metrics_;

  // --- Network adversary & churn state (inert unless set_network). --------
  NetworkModelPtr network_;
  bool net_msgs_ = false;   ///< Some per-message fault rate is positive.
  bool net_churn_ = false;  ///< Crash churn enabled.
  std::uint64_t net_epoch_ = 0;      ///< Epoch advance_churn has reached.
  std::uint64_t churn_unswept_ = 0;  ///< First epoch not yet swept.
  std::vector<std::uint64_t> down_until_;  ///< Crash windows, epoch units.
  std::vector<DelayedPush> net_delayed_;   ///< Held-back pushes, pending.
  std::vector<DelayedPush> net_due_;       ///< deliver_held's scratch.

  // --- Round arenas (one per partition; the sequential path uses 0). ------
  std::vector<std::unique_ptr<support::Arena>> arenas_;

  /// Pull replies awaiting phase C, indexed by requester; carried by value
  /// (no per-message heap traffic) and emptied as they are delivered.
  std::vector<Payload> pull_replies_;
  /// Labels per round delivery block = 1 << shift.  2^16 measured fastest
  /// at n = 2^20 (48.2 ns/agent-round vs 49.5 at 2^17, 49.6 at 2^15, and
  /// 55.0 at 2^18) and at n = 2^19 (38.4, within noise of 2^15's 38.3):
  /// fewer, longer queues beat tighter receiver working sets until the
  /// per-block agent state outgrows L2.
  std::uint32_t block_shift_ = 16;
};

}  // namespace rfc::sim
