// The execution substrate shared by every activation model.
//
// EngineCore owns *what it means to run agents* — agent storage, fault
// bookkeeping, per-agent SplitMix-derived RNG streams, exact message
// accounting, and the two delivery primitives every model composes:
//
//   * run_synchronous_round — the paper's phased lock-step round (collect
//     one active operation per awake agent, serve pulls from round-start
//     state, deliver replies, deliver pushes, all in label order);
//   * sequential_activation — one agent wakes alone and its operation
//     resolves immediately against current state.
//
// *When* agents run — activation order and round/step semantics — is a
// Scheduler policy (sim/scheduler.hpp).  The Engine facade
// (sim/engine.hpp) binds the two.  EngineCore itself is single-threaded and
// fully deterministic given (n, seed, topology, fault plan, agents):
// Monte-Carlo parallelism lives one level up (analysis::MonteCarlo) and
// runs independent cores on independent seeds.  For parallelism *inside*
// one engine, sim/sharding.hpp runs the synchronous phased round over
// label shards on a thread pool, bit-identical to the serial round by
// construction (ShardedRoundExecutor is a friend so the two
// implementations share buffers and accounting).
//
// Hot state is structure-of-arrays.  The polymorphic Agent objects remain
// the behavior, but everything the round loop and the observers touch per
// agent lives in contiguous parallel arrays: the fault flags, the per-agent
// RNG streams, and SoA caches of the hot observations (done()/phase()/
// progress()) refreshed on activation.  The caches are enabled only when
// every agent is shard_safe() — an agent whose done() can flip without its
// own callback running (the coalition blackboard) declares shard_safe()
// false and gets the virtual-scan behavior unchanged.
//
// At large n the synchronous round switches to cache-blocked delivery:
// phase A routes each action into a destination *block* queue (contiguous
// label ranges sized to stay cache-resident), and phases B/D drain the
// queues block by block, so serving and delivering touch one block's agents
// at a time instead of hopping the whole array per message.  Per receiver
// the sender order, every RNG stream's consumption, and all metric sums are
// exactly the serial round's — the same argument that makes the sharded
// round bit-identical (per-receiver sender-label order is preserved because
// a receiver lives in exactly one block and queues fill in label order;
// metrics are order-independent sums).  tests/sharded_equivalence_test.cpp
// pins this against pre-refactor digests.
//
// Rounds are *sparse*: with the SoA caches live the engine maintains the
// label-ordered live list (non-faulty, not-done labels) incrementally —
// phase A iterates it instead of scanning all n labels, compacting done
// entries in place as it goes (done() is monotone by the Agent contract),
// and phases B/C/D walk this round's puller/pusher lists instead of
// rescanning the label space — so a round costs O(live + messages), not
// O(n).  The iteration order equals the old 0..n scan's (the list is label-
// ordered and drops exactly the labels the scan skipped), so traces are
// bit-identical.  Done 0→1 transitions are also appended to a public *done
// log* (done_log()), which incremental schedulers drain to prune their own
// wakeable pools eagerly instead of re-deriving them per step.
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

class EngineCore {
 public:
  EngineCore(std::uint32_t n, std::uint64_t seed, TopologyPtr topology);

  /// Installs the agent for label `id`.  All labels must be populated
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
  const NetworkModel* network_model() const noexcept { return network_.get(); }

  /// True while churn holds agent `id` crashed: it idles, serves silence,
  /// and absorbs (charged) messages until its rejoin epoch.  Always false
  /// without a churn-enabled network model.
  bool is_down(AgentId id) const noexcept {
    return net_churn_ && down_until_[id] > net_epoch_;
  }

  Agent& agent(AgentId id) { return *agents_.at(id); }
  const Agent& agent(AgentId id) const { return *agents_.at(id); }

  // --- Hot observations, cached SoA-side. ---------------------------------
  //
  // done() is refreshed eagerly on every activation (the round loop needs
  // it anyway); phase()/progress() are cached lazily — invalidated on
  // activation, recomputed on the first observer read after it.  With any
  // non-shard-safe agent installed every accessor falls back to the virtual
  // call, byte-identically to the pre-SoA engine.

  /// The agent's done() report (cached; identical to agent(id).done()).
  bool agent_done(AgentId id) const {
    return obs_cache_enabled_ ? done_[id] != 0 : agents_[id]->done();
  }
  /// The agent's phase observation; kUnknown for agents exposing none.
  AgentPhase agent_phase(AgentId id) const;
  /// The agent's numeric pipeline position (Agent::progress()).
  double agent_progress(AgentId id) const;

  /// True when every non-faulty agent reports done().  O(1) off the cached
  /// done counter when the SoA caches are live; otherwise the legacy scan
  /// (done() can flip without the agent's own callback running, e.g.
  /// through a coalition blackboard, so no counter is sound there).
  bool all_done() const;

  /// Non-faulty labels, in label order.
  std::vector<AgentId> active_labels() const;
  /// Allocation-free overload: clears and refills `out` (capacity reused by
  /// the caller across calls — scheduler attach/rebuild paths use this).
  void active_labels(std::vector<AgentId>& out) const;

  // --- The done log: incremental active-set maintenance for schedulers. ---
  //
  // With the SoA caches live (done_log_enabled()), every done() 0→1
  // transition observed by the engine appends that label to an append-only
  // log, in observation order on the serial paths and label order at the
  // sharded barrier.  A scheduler keeping its own wakeable pool drains the
  // log from a cursor each step and removes exactly the newly finished
  // agents — O(transitions) total instead of O(pool) per step.  Labels done
  // before the first step are never logged (pools built from active_labels()
  // filter them at build time).

  /// True when the engine maintains the done log (== the SoA caches are
  /// live; with any non-cacheable agent installed the log stays empty and
  /// consumers must fall back to lazy done() checks).
  bool done_log_enabled() const noexcept { return obs_cache_enabled_; }
  /// The append-only done-transition log (labels, first-observed order).
  const std::vector<AgentId>& done_log() const noexcept { return done_log_; }
  /// Bumped if a logged agent ever un-reports done() — an Agent-contract
  /// breach ("done is final").  Consumers treating the log as ground truth
  /// may resync on a change; the shipped schedulers keep a lazy done()
  /// check at wake time regardless, so they stay correct without it.
  std::uint64_t done_log_epoch() const noexcept { return done_epoch_; }

  /// Bits charged for a pull *request* (the "send me your X" control
  /// message): one peer label, per the paper's accounting.
  std::uint64_t pull_request_bits() const noexcept;

  // --- Round arenas. -------------------------------------------------------

  /// Grows the per-shard arena set to `count` (the serial paths use arena
  /// 0; the sharded executor one per shard).
  void ensure_arenas(std::uint32_t count);
  /// The round arena for shard `idx` (valid after ensure_arenas).
  support::Arena* round_arena(std::uint32_t idx) noexcept {
    return arenas_[idx].get();
  }
  /// Resets every round arena — the shard-barrier reset at round start.
  /// Payloads built in an arena live until the NEXT round begins.
  void reset_round_arenas() noexcept;

  /// Tunes the cache-blocked delivery path of the synchronous round: it
  /// activates at n >= min_n (and only with the SoA caches live), routing
  /// deliveries through blocks of `block_labels` labels (rounded up to a
  /// power of two).  Defaults: min_n = 2^19, blocks of 2^16 labels (~a few
  /// MB of agent state per block).  Tests force tiny thresholds to pin the
  /// blocked path bit-identical at small n.
  void set_blocked_delivery(std::uint32_t min_n, std::uint32_t block_labels);

  // --- Execution primitives, composed by Scheduler policies. ---

  /// Installs-check plus on_start for every active agent in label order.
  /// Idempotent; runs before the first scheduler step.
  void ensure_started();

  /// Executes one synchronous phased round over the agents with
  /// `awake_mask[i]` true (null = every agent), then advances time by one
  /// round.  Faulty and done() agents idle regardless of the mask.
  void run_synchronous_round(const std::vector<bool>* awake_mask = nullptr);

  /// Advances time by one step, then wakes `u` alone: its action is
  /// collected and resolved immediately (a pull is served from current
  /// state).  Waking a done() agent consumes the step as a wasted
  /// activation, as in the sequential model's analyses.
  void sequential_activation(AgentId u);

  /// The per-callback view handed to agent `id` at the current time (serial
  /// paths: carries round arena 0).
  Context make_context(AgentId id) noexcept;

 private:
  friend class ShardedRoundExecutor;  // sim/sharding.hpp

  /// One routed push awaiting cache-blocked delivery: the payload travels
  /// in the queue so phase D never random-reads the action buffer.
  struct PushEntry {
    Payload payload;
    AgentId sender;
    AgentId target;
  };
  /// One routed pull: `requester` pulls `server` (server's block serves).
  struct PullEntry {
    AgentId requester;
    AgentId server;
  };

  /// Where the fault stage parks held-back pushes: the core-owned vectors
  /// on the serial paths, per-shard vectors on the sharded one (merged at
  /// the barrier so delivery order stays shard-count independent).  A null
  /// member means the context cannot defer that way (the sequential path
  /// has no delivery phase to reorder within) and the push is delivered
  /// immediately instead.
  struct NetSinks {
    std::vector<DelayedPush>* delayed;
    std::vector<DelayedPush>* deferred;
  };

  /// Expands the per-agent RNG streams for labels [lo, hi) from the master
  /// seed.  Stream values are a pure function of (seed, label), so *where*
  /// this runs is free: ensure_started derives the whole range on first
  /// use, and the sharded executor prefetches each shard's block on its own
  /// worker thread instead (sim/sharding.hpp), off the serial path.
  void seed_rng_block(std::uint32_t lo, std::uint32_t hi) noexcept;

  Context make_context(AgentId id, support::Arena* arena) noexcept;
  support::Arena* serial_arena() noexcept {
    return arenas_.empty() ? nullptr : arenas_[0].get();
  }

  /// Appends `i` to the done log at its 0→1 transition (at most once per
  /// label; done_logged_ also covers pre-start done labels, which are
  /// accounted but never logged).
  void log_done_transition(AgentId i) {
    if (done_logged_[i] == 0) {
      done_logged_[i] = 1;
      done_log_.push_back(i);
    }
  }
  /// A logged agent un-reported done() — contract breach; flag it so log
  /// consumers can resync, and allow a future re-transition to log again.
  void unlog_done_transition(AgentId i) {
    done_logged_[i] = 0;
    ++done_epoch_;
  }

  /// Refreshes the SoA observation caches after agent `i` ran a callback:
  /// re-reads done() (maintaining the done counter and the done log) and
  /// invalidates the lazy phase/progress entries.  No-op for faulty labels
  /// and with the caches disabled.  Serial paths only — the sharded round
  /// uses the counter-free variant below plus a barrier recount.
  void note_activation(AgentId i) {
    if (!obs_cache_enabled_ || faulty_[i] != 0) return;
    obs_valid_[i] = 0;
    const std::uint8_t d = agents_[i]->done() ? 1 : 0;
    if (d != done_[i]) {
      done_[i] = d;
      if (d != 0) {
        ++num_done_;
        log_done_transition(i);
      } else {
        --num_done_;
        unlog_done_transition(i);
      }
    }
  }
  /// Cache refresh safe inside a sharded phase: each agent is owned by one
  /// shard per phase, so the byte stores cannot race — but the shared done
  /// counter could, so the executor recounts it at the barrier, where it
  /// also logs the round's done transitions in label order and compacts
  /// the live list (the sharded phases must not mutate the shared list
  /// mid-round, so all list maintenance lands there).
  void note_activation_sharded(AgentId i) {
    if (!obs_cache_enabled_ || faulty_[i] != 0) return;
    obs_valid_[i] = 0;
    done_[i] = agents_[i]->done() ? 1 : 0;
  }

  /// True when the synchronous round should take the cache-blocked path.
  bool use_blocked_round() const noexcept {
    return obs_cache_enabled_ && n_ >= blocked_min_n_;
  }
  void run_blocked_round(const std::vector<bool>* awake_mask);
  void run_serial_round(const std::vector<bool>* awake_mask);

  // Shared accounting/delivery between the synchronous phases, the
  // sequential activation path, and the sharded round — one definition
  // keeps every execution model's metrics bit-identical by construction.
  // `metrics` is metrics_ on the serial paths and a per-shard delta on the
  // sharded one (merged after the round); `arena` is the round arena the
  // served/delivered agent's callbacks allocate from.
  void charge_pull_request(Metrics& metrics);
  /// Serves `requester`'s pull on `v` (silence if `v` is faulty or down,
  /// or the network dropped the request or the reply; a corrupted reply
  /// comes back tampered), charging the reply if any.  Delivery to the
  /// requester is the caller's job:
  /// the synchronous round defers it to phase C, the sequential path
  /// delivers immediately.  The caller refreshes v's observation cache.
  Payload serve_and_charge_pull(AgentId v, AgentId requester,
                                Metrics& metrics, support::Arena* arena);
  /// Charges `sender`'s push, runs the network fault stage when one is
  /// active, and delivers it unless the target is faulty or down (the
  /// message still travels, and is charged, either way).  The caller
  /// refreshes the target's observation cache.
  void execute_push(AgentId sender, AgentId target, const Payload& payload,
                    Metrics& metrics, support::Arena* arena,
                    NetSinks* sinks = nullptr);

  // --- Network fault stage (no-ops unless a fault-enabled model is set). --

  /// Sweeps churn epochs up to `epoch`: every up agent draws a crash
  /// verdict per unswept epoch; a down agent returns when its window
  /// expires.  Serial contexts only (called at round/activation start).
  void advance_churn(std::uint64_t epoch);
  /// The post-charge fault stage of one push: drop / corrupt / delay /
  /// reorder / duplicate, then delivery of whatever survives.
  void net_push(AgentId sender, AgentId target, const Payload& payload,
                Metrics& metrics, support::Arena* arena, NetSinks* sinks);
  /// Delivery past the fault stage: faulty and down targets absorb the
  /// (already charged) message silently.
  void deliver_push(AgentId sender, AgentId target, const Payload& payload,
                    support::Arena* arena);
  /// Delivers the delayed pushes whose round has come, ordered by (origin
  /// round, sender).  Serial contexts only (the sharded executor calls it
  /// at the barrier before its push phase).
  void deliver_due_delayed(support::Arena* arena);
  /// Delivers and clears a batch of same-round reordered pushes, ordered by
  /// sender label (senders are unique within a round, so the order is
  /// total and shard-count independent).
  void flush_deferred(std::vector<DelayedPush>& batch, support::Arena* arena);

  std::uint32_t n_;
  std::uint64_t seed_;
  TopologyPtr topology_;
  std::vector<std::unique_ptr<Agent>> agents_;

  // --- Structure-of-arrays hot state (one entry per label). ---------------
  std::vector<std::uint8_t> faulty_;
  std::vector<rfc::support::Xoshiro256> rngs_;
  std::vector<std::uint8_t> done_;      ///< Cached Agent::done() (eager).
  mutable std::vector<std::uint8_t> obs_valid_;  ///< Lazy-cache valid bits.
  mutable std::vector<AgentPhase> phase_cache_;
  mutable std::vector<double> progress_cache_;
  static constexpr std::uint8_t kPhaseValid = 1;
  static constexpr std::uint8_t kProgressValid = 2;

  std::uint32_t num_faulty_ = 0;
  std::uint32_t num_done_ = 0;  ///< Non-faulty labels with done_[i] set.
  /// Label-ordered live labels (non-faulty, not done) — the sparse round's
  /// phase-A iteration domain.  Built at ensure_started with the caches;
  /// done entries compact away in place (serial phase A) or at the sharded
  /// barrier (ShardedRoundExecutor).
  std::vector<AgentId> live_list_;
  std::vector<AgentId> done_log_;  ///< Append-only; see done_log().
  /// 1 once label i is accounted in the log bookkeeping: logged, or done
  /// before the first step (those are accounted but never logged).
  std::vector<std::uint8_t> done_logged_;
  std::uint64_t done_epoch_ = 0;  ///< See done_log_epoch().
  /// SoA observation caches live?  Set at ensure_started iff every agent is
  /// shard_safe() (their observations change only through their own
  /// callbacks, so activation-keyed refresh is sound).
  bool obs_cache_enabled_ = false;
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
  std::vector<DelayedPush> net_delayed_;   ///< Cross-round delayed pushes.
  std::vector<DelayedPush> net_deferred_;  ///< Same-round reordered pushes.

  // --- Round arenas (one per shard; serial paths use index 0). ------------
  std::vector<std::unique_ptr<support::Arena>> arenas_;

  // Scratch buffers reused across rounds to avoid per-round allocation;
  // actions_/pull_replies_ carry payloads by value (no per-message heap
  // traffic).  actions_ entries are only written for agents that acted this
  // round and only read through the round's puller/pusher lists, so no
  // per-label idle writes are needed (a skipped agent's stale slot is never
  // read; at worst it keeps one old boxed payload alive).
  std::vector<Action> actions_;
  std::vector<Payload> pull_replies_;
  std::vector<AgentId> round_pullers_;  ///< This round's pullers, label order.
  std::vector<AgentId> round_pushers_;  ///< This round's pushers (serial path).

  // --- Cache-blocked delivery scratch (large-n synchronous rounds). -------
  /// Retuned after the 32-byte payload / 40-byte push entry shrink
  /// (steady-state push-pull rumor rounds, min-of-5 interleaved reps on
  /// the 1-CPU dev box): the smaller entries pushed the break-even point
  /// up a quarter-order — at n = 2^17 the straight serial round now wins
  /// (32.1 ns/agent vs 35.8 for the best blocked setting), n = 2^18 is a
  /// wash (34.9 vs 35.8), and from n = 2^19 blocking pays again (38.3 vs
  /// 44.1 unblocked; at n = 2^20, 48.2 vs 62.2).
  std::uint32_t blocked_min_n_ = 1u << 19;
  /// Labels per block = 1 << shift.  2^16 measured fastest at n = 2^20
  /// (48.2 ns/agent-round vs 49.5 at 2^17, 49.6 at 2^15, and 55.0 at
  /// 2^18) and at n = 2^19 (38.4, within noise of 2^15's 38.3): fewer,
  /// longer queues beat tighter receiver working sets until the per-block
  /// agent state outgrows L2.  Tunable per run via set_blocked_delivery.
  std::uint32_t block_shift_ = 16;
  std::vector<AgentId> pull_target_;  ///< Valid for this round's pullers.
  std::vector<std::vector<PushEntry>> push_blocks_;
  std::vector<std::vector<PullEntry>> pull_blocks_;
};

}  // namespace rfc::sim
