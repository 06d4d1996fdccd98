// Sharded execution of the synchronous phased round — the parallel path of
// the "sharded EngineCore" design.
//
// ShardedRoundExecutor partitions the label space [n] into S *contiguous*
// shards and runs each phase of EngineCore::run_synchronous_round as S
// parallel tasks on a support::ThreadPool, with a barrier between phases.
// Each shard runs the cache-blocked round's kernel (EngineCore::
// run_blocked_round): every shard's label range is cut into *units* —
// blocks of 2^block_shift labels clamped to the shard, so a unit never
// straddles two shards — and each (source shard, destination unit) pair
// owns one cache-line-sized lane holding two 8-byte-entry queues:
//
//   Phase A (by self-shard):    collect each awake agent's action and route
//                               it, in label order, into the lane of its
//                               target's unit.  The destination shard is
//                               pure arithmetic (contiguous_block_of), the
//                               unit a shift plus one per-shard offset —
//                               no per-label table is read.
//   Phase B (by server-shard):  serve pulls unit by unit; inside a unit
//                               the source shards' lanes drain in shard
//                               order.  Shards are contiguous label ranges
//                               and phase A fills lanes in label order, so
//                               every server sees its pullers in global
//                               requester-label order — the serial
//                               engine's order, exactly.
//   Phase C (by puller-shard):  deliver pull replies in puller-label order.
//   Phase D (by target-shard):  deliver pushes unit by unit; the source-
//                               shard merge again reproduces global sender-
//                               label order per receiver.  Lane entries
//                               are {sender, target}; the payload stays in
//                               the core's action buffer and is prefetched
//                               there.
//   Barrier (by shard):         count done labels, collect the shard's done
//                               transitions, and compact its segment of the
//                               live list; the serial remainder sums S
//                               counts and joins S logs and segments.
//
// Phases B, C and D use the blocked round's two-stage software prefetch
// (the agent pointer a few entries ahead, then the agent object) and one
// hoisted Context per task.  All of a shard's mutable scratch — its
// Metrics delta, puller list, lanes and fault sinks — lives in one
// cache-line-aligned struct, so no two workers ever write the same line.
//
// Determinism: each agent (its state and its private RNG stream) is touched
// by exactly one shard per phase — phase A/C by its own shard, phase B/D by
// the shard owning it as pull-server/push-target — and phases are separated
// by pool barriers.  Message accounting goes to per-shard Metrics scratch
// merged in shard order after the round; all counters are sums (plus one
// max), so the merged totals equal the serial interleaving's.  The result
// is *bit-identical* to EngineCore::run_synchronous_round for every
// (shards, threads) combination and every block size, including thread
// counts exceeding the core count (tests/sharded_equivalence_test.cpp pins
// this).
//
// Requirements on agents: callbacks must only touch the agent's own state
// and the Context handed to them (true of every shipped protocol agent).
// Agents sharing mutable state across labels — the rational::Coalition
// blackboard — declare it via Agent::shard_safe() == false, and the
// executor fails fast at setup instead of silently racing; run those with
// shards=1.  Setup also prefetches each shard's per-agent RNG streams on
// its own worker (the streams are pure functions of (seed, label), so the
// parallel derivation is trace-identical to the serial one).
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

  /// Executes one synchronous phased round over `core` (mask semantics as
  /// in EngineCore::run_synchronous_round), bit-identical to the serial
  /// round.  With shards <= 1 this delegates to the serial path.
  void run_round(EngineCore& core, const std::vector<bool>* awake_mask);

 private:
  /// One routed pull: `requester` pulls `server` (server's shard serves).
  struct PullItem {
    AgentId requester;
    AgentId server;
  };
  /// One routed push; the payload stays in the core's action buffer.
  struct PushItem {
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
  /// Everything one shard's tasks write, cache-line isolated from the
  /// other shards' scratch.  Capacities persist across rounds.
  struct alignas(64) ShardScratch {
    Metrics metrics;  ///< This round's delta, merged in shard order.
    /// This round's pullers in label order — phase C walks these instead
    /// of rescanning the shard's range.
    std::vector<AgentId> pullers;
    std::uint32_t pushes = 0;  ///< Pushes routed by this shard this round.
    std::vector<Lane> lanes;   ///< Indexed by destination unit.
    /// Network-fault sinks of phase D (delayed / reordered pushes), merged
    /// into the core's pending lists at the barrier; the merged order is
    /// irrelevant because delivery sorts (see sim::DelayedPush).  Empty
    /// unless a fault-enabled network model is installed.
    std::vector<DelayedPush> delayed;
    std::vector<DelayedPush> deferred;
    /// The shard's segment [live_begin, live_end) of the core's live list
    /// (phase A), and its end after the barrier's in-place compaction.
    std::size_t live_begin = 0;
    std::size_t live_end = 0;
    std::size_t live_kept_end = 0;
    std::uint32_t done_count = 0;    ///< Done non-faulty labels (barrier).
    std::vector<AgentId> done_log;   ///< New done transitions, label order.
  };

  /// Lazily sizes the shard geometry and scratch to `core` (n is fixed per
  /// engine; the unit size is its block_shift_ at the first round — any
  /// unit size gives the same execution) and spins up the pool.
  void bind(EngineCore& core);
  /// Runs fn(shard) for every shard on the pool and waits (a barrier).
  void parallel_phase(const std::function<void(std::uint32_t)>& fn);
  /// The barrier's done bookkeeping (see the header comment): a parallel
  /// per-shard recount, then the serial join in shard order.
  void recount_done(EngineCore& core);

  ShardingConfig cfg_;
  std::unique_ptr<rfc::support::ThreadPool> pool_;
  std::uint32_t bound_n_ = 0;
  std::uint32_t bound_shift_ = 0;
  std::uint32_t shards_ = 1;                ///< Effective count, <= cfg.shards.
  std::vector<std::uint32_t> shard_begin_;  ///< size shards_+1; [s, s+1).
  /// Units: label x of shard s lives in unit (x >> bound_shift_) +
  /// unit_offset_[s]; shard s owns units [unit_begin_[s], unit_begin_[s+1]).
  /// The offset counts the shard boundaries at or below s that cut a block.
  std::vector<std::uint32_t> unit_offset_;  ///< size shards_.
  std::vector<std::uint32_t> unit_begin_;   ///< size shards_+1.
  std::vector<ShardScratch> scratch_;       ///< One per shard.
  std::vector<DelayedPush> deferred_merge_;
};

}  // namespace rfc::sim
