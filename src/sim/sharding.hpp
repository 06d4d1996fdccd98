// The synchronous phased round — the one implementation of the paper's
// GOSSIP round, for the engine (serial or parallel) and for a cluster node.
//
// ShardedRoundExecutor partitions the label space [n] into S *contiguous*
// shards.  A round is a serial open (start the core, sweep one churn epoch,
// reset the round arenas, cut the live list into shard segments), four
// phases run per shard, and a serial close.  run_round runs each phase as
// S tasks separated by barriers: on a support::ThreadPool when S > 1,
// inline on the calling thread (no pool, no task hop) when S = 1 — the
// serial engine is one partition.  A cluster node (net::NodeDriver) makes
// the same calls for its own shard alone, its shards being the node
// blocks, and has sync points where run_round has barriers: the lanes into
// other shards' units are its outbox, and other shards' frames fill the
// lanes into its own units.
//
// Every shard's label range is cut into *units*: blocks of 2^block_shift
// labels (EngineCore::block_shift_, 2^16 by default, so n <= 2^16 is one
// block) clamped to the shard, so a unit never straddles two shards.  Each
// (source shard, destination unit) pair owns one cache-line-aligned lane
// holding a pull queue and a push queue:
//
//   Phase A (by self-shard):    collect each awake agent's action and route
//                               it, in label order, into the lane of its
//                               target's unit.  The destination shard is
//                               pure arithmetic (contiguous_block_of), the
//                               unit a shift plus one per-shard offset —
//                               no per-label table is read.  A push moves
//                               its payload into the lane entry, so
//                               delivery streams it instead of
//                               random-reading an n-sized action buffer.
//   Phase B (by server-shard):  serve pulls unit by unit; inside a unit
//                               the source shards' lanes drain in shard
//                               order.  Shards are contiguous label ranges
//                               and phase A fills lanes in label order, so
//                               every server sees its pullers in global
//                               requester-label order.
//   Phase C (by puller-shard):  deliver pull replies in puller-label order,
//                               off the shard's {requester, server} list.
//   Phase D (by target-shard):  deliver pushes unit by unit; the source-
//                               shard merge again yields global sender-
//                               label order per receiver.
//   Close (serial):             merge the shards' Metrics deltas, settle
//                               the labels whose done() flipped into the
//                               done counter, and close the gaps phase A's
//                               in-place live-list compaction left between
//                               shard segments.  It touches only flipped
//                               labels and the live list, so a round stays
//                               O(live + messages).
//
// Phases B, C and D share one two-stage software prefetch (the agent
// pointer a few entries ahead, then the agent object) and hoist one Context
// per task.  Phases B and D apply the core's one step per message kind
// (EngineCore::serve_step, push_step) — the same steps the sequential path
// takes — with the network fault stage a template parameter chosen once
// per task, so fault-free rounds compile it out.  All of a shard's mutable
// scratch — its Metrics delta, puller list, lanes, fault sink and flipped
// labels — lives in one cache-line-aligned struct, so no two workers ever
// write the same line.
//
// Determinism: each agent (its state and its private RNG stream) is touched
// by exactly one shard per phase — phase A/C by its own shard, phase B/D by
// the shard owning it as pull-server/push-target.  Every receiver sees its
// senders in label order whatever the block size, and all counters are
// sums (plus one max), so the execution is *bit-identical* for every
// (shards, threads) combination and every block size, including thread
// counts exceeding the core count (tests/sharded_equivalence_test.cpp pins
// this), and for a cluster of any node count (tests/net_loopback_test.cpp).
// Without the engine's SoA caches an agent may observe another label's
// state, so those rounds use one unit per shard and deliver in global
// label order.
//
// Requirements on agents: with S > 1, callbacks must only touch the
// agent's own state and the Context handed to them (true of every shipped
// protocol agent).  Agents sharing mutable state across labels — the
// rational::Coalition blackboard — declare it via Agent::shard_safe() ==
// false, and the executor fails fast at setup instead of silently racing;
// run those with shards=1.  Setup also prefetches each shard's per-agent
// RNG streams on its own worker (the streams are pure functions of
// (seed, label), so the parallel derivation is trace-identical to the
// serial one).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/agent.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace rfc::support {
class ThreadPool;
}  // namespace rfc::support

namespace rfc::sim {

class EngineCore;

struct ShardingConfig {
  /// Contiguous label shards per round; 1 = the serial engine.
  std::uint32_t shards = 1;
  /// Worker threads; 0 = hardware concurrency.  Any value yields the same
  /// execution — threads only control how shard tasks are scheduled.
  std::uint32_t threads = 0;
};

/// First label of block `b` when [0, n) is cut into `blocks` contiguous
/// near-equal blocks — the one partition rule shared by the sharded round,
/// the batched-delivery scheduler, and EngineView's shard-geometry
/// observations, so "block" means the same label range everywhere.
/// `block_begin(n, blocks, blocks)` is n.
constexpr std::uint32_t contiguous_block_begin(std::uint32_t n,
                                               std::uint32_t blocks,
                                               std::uint32_t b) noexcept {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(n) * b /
                                    blocks);
}

/// The block owning `label` (< n) under contiguous_block_begin's partition:
/// the one b with block_begin(n, blocks, b) <= label <
/// block_begin(n, blocks, b + 1).  Pure arithmetic, so routing a message to
/// its destination shard reads no per-label table.  With blocks > n some
/// blocks are empty; they own no label and are never returned.
constexpr std::uint32_t contiguous_block_of(std::uint32_t n,
                                            std::uint32_t blocks,
                                            std::uint32_t label) noexcept {
  // block_begin(b) <= label  <=>  n * b < (label + 1) * blocks, so the
  // answer is the largest such b.  The product stays below 2^64 because
  // label < n < 2^32.
  return static_cast<std::uint32_t>(
      ((static_cast<std::uint64_t>(label) + 1) * blocks - 1) / n);
}

class ShardedRoundExecutor {
 public:
  explicit ShardedRoundExecutor(ShardingConfig cfg);
  ~ShardedRoundExecutor();

  ShardedRoundExecutor(const ShardedRoundExecutor&) = delete;
  ShardedRoundExecutor& operator=(const ShardedRoundExecutor&) = delete;

  const ShardingConfig& config() const noexcept { return cfg_; }

  /// Executes one synchronous phased round over the agents of `core` with
  /// `awake_mask[i]` true (null = every agent), then advances its time by
  /// one round.  Faulty, down and done() agents idle regardless of the
  /// mask.  An exception from an agent callback propagates to the caller.
  void run_round(EngineCore& core, const std::vector<bool>* awake_mask);

  // --- The round in steps: run_round is open_round, each phase for every
  // shard with a barrier after it, and close_round.  A driver running one
  // shard alone makes the same calls for that shard.

  /// Sizes the shards and units to `core` and starts it.  Idempotent.
  void prepare(EngineCore& core);
  void open_round(EngineCore& core);
  void collect(EngineCore& core, std::uint32_t s,
               const std::vector<bool>* awake_mask);
  void serve_pulls(EngineCore& core, std::uint32_t d);
  void deliver_replies(EngineCore& core, std::uint32_t s);
  void deliver_pushes(EngineCore& core, std::uint32_t d);
  void close_round(EngineCore& core);

  /// One routed pull: `requester` pulls `server` (server's shard serves).
  struct PullItem {
    AgentId requester;
    AgentId server;
  };
  /// One routed push, carrying its moved payload to the target's unit.
  struct PushItem {
    Payload payload;
    AgentId sender;
    AgentId target;
  };
  /// The queues from one source shard into one destination unit, alone on
  /// its cache line: only the source shard writes it (phase A), and only
  /// the destination shard reads it (phases B and D).
  struct alignas(64) Lane {
    std::vector<PullItem> pulls;
    std::vector<PushItem> pushes;
  };

  // --- For a driver that carries the other shards' traffic (valid after
  // prepare).  Phase A clears its own shard's lanes; lanes from a shard
  // whose phase A runs elsewhere are the driver's to clear and fill.

  /// Shard d owns units [unit_begin(d), unit_begin(d + 1)).
  std::uint32_t unit_begin(std::uint32_t d) const { return unit_begin_[d]; }
  /// The unit holding label x of shard d.
  std::uint32_t unit_of(std::uint32_t d, AgentId x) const {
    return (x >> bound_shift_) + unit_offset_[d];
  }
  Lane& lane(std::uint32_t s, std::uint32_t u) { return scratch_[s].lanes[u]; }
  /// Shard s's pulls this round, in requester-label order.
  const std::vector<PullItem>& pullers(std::uint32_t s) const {
    return scratch_[s].pullers;
  }
  /// Shard s's Metrics delta this round, merged by close_round.
  Metrics& metrics(std::uint32_t s) { return scratch_[s].metrics; }

 private:
  /// Everything one shard's tasks write, cache-line isolated from the
  /// other shards' scratch.  Capacities persist across rounds.
  struct alignas(64) ShardScratch {
    Metrics metrics;  ///< This round's delta, merged in shard order.
    /// This round's pulls in requester-label order — phase C walks these
    /// instead of rescanning the shard's range.
    std::vector<PullItem> pullers;
    std::uint32_t pushes = 0;  ///< Pushes routed by this shard this round.
    std::vector<Lane> lanes;   ///< Indexed by destination unit.
    /// Phase D's network-fault sink (delayed and reordered pushes), merged
    /// into the core's pending list by close_round; the merged order is
    /// irrelevant because delivery sorts (EngineCore::deliver_held).  Empty
    /// unless a fault-enabled network model is installed.
    std::vector<DelayedPush> held;
    /// The shard's segment [live_begin, live_end) of the core's live list,
    /// and its end after phase A's in-place compaction.
    std::size_t live_begin = 0;
    std::size_t live_end = 0;
    std::size_t live_kept_end = 0;
    /// Labels of this shard whose done() byte flipped since the last
    /// settlement (EngineCore::note_activation_sharded).
    std::vector<AgentId> flipped;
  };

  /// Lazily sizes the shard partition and scratch to `core` (n is fixed
  /// per engine), and for S > 1 checks the agents and prefetches the RNG
  /// streams.  Runs before the core starts.
  void bind(EngineCore& core);
  /// Cuts the shards into units for the core's block size (after the core
  /// started: the caches decide between blocks and one label-order block)
  /// and pre-sizes the lanes.
  void bind_units(const EngineCore& core);
  /// Runs fn(shard) for every shard and returns once all are done (a
  /// barrier): inline for one shard, otherwise on the pool, which the
  /// first such phase starts.
  template <typename Fn>
  void parallel_phase(Fn&& fn);
  void pool_phase(const std::function<void(std::uint32_t)>& fn);
  /// Runs body(item) over `items` in order with a two-stage prefetch of
  /// the agent each item calls (label item.*Callee): its pointer 8 items
  /// ahead, then the object 4 ahead, once its address is resident.  A pull
  /// also prefetches its requester's reply slot, which phases B and C
  /// write: requesters are label-ordered but sparse, so those stores stride
  /// past what the hardware prefetcher tracks.
  template <auto Callee, typename Item, typename Body>
  static void drain(EngineCore& core, const std::vector<Item>& items,
                    Body& body);
  /// drain over the `queue` of every lane into shard d: unit by unit, and
  /// inside a unit in source-shard order.
  template <auto Callee, typename Item, typename Body>
  void drain_lanes(EngineCore& core, std::uint32_t d,
                   std::vector<Item> Lane::*queue, Body&& body);
  /// The close's done bookkeeping: settles every shard's flipped labels
  /// and joins the compacted live-list segments.
  void settle_done(EngineCore& core);

  ShardingConfig cfg_;
  std::unique_ptr<rfc::support::ThreadPool> pool_;
  static constexpr std::uint32_t kUnbound = ~0u;
  std::uint32_t bound_n_ = 0;
  std::uint32_t bound_shift_ = kUnbound;  ///< Unit size = 1 << this.
  std::uint32_t shards_ = 1;                ///< Effective count, <= cfg.shards.
  std::vector<std::uint32_t> shard_begin_;  ///< size shards_+1; [s, s+1).
  /// Units: label x of shard s lives in unit (x >> bound_shift_) +
  /// unit_offset_[s]; shard s owns units [unit_begin_[s], unit_begin_[s+1]).
  /// The offset counts the shard boundaries at or below s that cut a block.
  std::vector<std::uint32_t> unit_offset_;  ///< size shards_.
  std::vector<std::uint32_t> unit_begin_;   ///< size shards_+1.
  std::vector<ShardScratch> scratch_;       ///< One per shard.
};

}  // namespace rfc::sim
