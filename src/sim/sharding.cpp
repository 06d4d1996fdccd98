#include "sim/sharding.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "sim/engine_core.hpp"
#include "support/thread_pool.hpp"

namespace rfc::sim {

ShardedRoundExecutor::ShardedRoundExecutor(ShardingConfig cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) {
    throw std::invalid_argument(
        "ShardedRoundExecutor: shards must be positive");
  }
}

ShardedRoundExecutor::~ShardedRoundExecutor() = default;

void ShardedRoundExecutor::bind(EngineCore& core) {
  if (bound_n_ == core.n()) return;
  bound_n_ = core.n();
  bound_shift_ = core.block_shift_;
  // More shards than labels would only add empty tasks.
  shards_ = cfg_.shards < bound_n_ ? cfg_.shards : bound_n_;
  shard_begin_.resize(shards_ + 1);
  for (std::uint32_t s = 0; s <= shards_; ++s) {
    shard_begin_[s] = contiguous_block_begin(bound_n_, shards_, s);
  }
  // Units are blocks cut at shard boundaries: every boundary that falls
  // inside a block splits it into two units, shifting all later units by
  // one.  (Shards are non-empty, so a block boundary and a shard boundary
  // are the only cuts.)
  const std::uint32_t mask = (1u << bound_shift_) - 1;
  unit_offset_.resize(shards_);
  unit_begin_.resize(shards_ + 1);
  std::uint32_t splits = 0;
  for (std::uint32_t s = 0; s < shards_; ++s) {
    if (s > 0 && (shard_begin_[s] & mask) != 0) ++splits;
    unit_offset_[s] = splits;
    unit_begin_[s] = (shard_begin_[s] >> bound_shift_) + splits;
  }
  const std::uint32_t units = ((bound_n_ - 1) >> bound_shift_) + 1 + splits;
  unit_begin_[shards_] = units;
  scratch_.resize(shards_);
  for (ShardScratch& sc : scratch_) sc.lanes.resize(units);
  // Pre-size every lane for its share of a round in which each agent of
  // the source shard sends one message to a uniform target, plus 1/8 (at
  // n = 2^20 that is 16 standard deviations): a spread then fills its lanes
  // without regrowing them.  Growing them through every doubling instead
  // left the freed buffers resident, ~8% more peak RSS on a 2^20-agent
  // spread.  Skewed targets still just grow the vector.
  for (std::uint32_t d = 0; d < shards_; ++d) {
    for (std::uint32_t u = unit_begin_[d]; u < unit_begin_[d + 1]; ++u) {
      const std::uint32_t block = u - unit_offset_[d];
      const std::uint64_t lo =
          std::max<std::uint64_t>(std::uint64_t{block} << bound_shift_,
                                  shard_begin_[d]);
      const std::uint64_t hi = std::min<std::uint64_t>(
          (std::uint64_t{block} + 1) << bound_shift_, shard_begin_[d + 1]);
      for (std::uint32_t s = 0; s < shards_; ++s) {
        const std::uint64_t expect =
            (hi - lo) * (shard_begin_[s + 1] - shard_begin_[s]) / bound_n_;
        scratch_[s].lanes[u].pulls.reserve(expect + expect / 8);
        scratch_[s].lanes[u].pushes.reserve(expect + expect / 8);
      }
    }
  }
  core.ensure_arenas(shards_);  // One round arena per shard.
  if (shards_ <= 1) return;
  // Agents sharing mutable state across labels (Agent::shard_safe() ==
  // false, e.g. the rational::Coalition blackboard) would race the parallel
  // phases — refuse loudly instead.  Missing agents are left for
  // ensure_started's friendlier diagnostic.
  for (std::uint32_t i = 0; i < bound_n_; ++i) {
    if (core.agents_[i] != nullptr && !core.agents_[i]->shard_safe()) {
      throw std::invalid_argument(
          "ShardedRoundExecutor: agent " + std::to_string(i) +
          " shares mutable state across labels (shard_safe() == false) and "
          "cannot run under a sharded round; use shards=1");
    }
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<rfc::support::ThreadPool>(cfg_.threads);
  }
  // Shard-local RNG prefetch: derive each shard's per-agent streams on its
  // own worker before the agents start.  The streams are a pure function of
  // (seed, label), so this is the serial derivation reordered — traces are
  // untouched, only the O(n) SplitMix expansion leaves the serial path.
  if (!core.rngs_seeded_) {
    parallel_phase([&](std::uint32_t s) {
      core.seed_rng_block(shard_begin_[s], shard_begin_[s + 1]);
    });
    core.rngs_seeded_ = true;
  }
}

void ShardedRoundExecutor::parallel_phase(
    const std::function<void(std::uint32_t)>& fn) {
  // An exception from an agent callback must reach the caller exactly as
  // on the serial path (where it unwinds out of Engine::step), not
  // std::terminate the process from a pool worker.  First one wins; the
  // round's state is partially applied either way, as with serial throws.
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (std::uint32_t s = 0; s < shards_; ++s) {
    pool_->submit([&, s] {
      try {
        fn(s);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    });
  }
  pool_->wait_idle();  // Barrier: phases never overlap.
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void ShardedRoundExecutor::run_round(EngineCore& core,
                                     const std::vector<bool>* awake_mask) {
  // Degenerate cases are exactly the serial engine: an unsharded config
  // never even binds (the default scheduler pays nothing for owning an
  // executor), and a shard count the label space cannot fill collapses
  // after bind().
  if (cfg_.shards <= 1) {
    core.run_synchronous_round(awake_mask);
    return;
  }
  // bind() before ensure_started(): the first bind prefetches the per-agent
  // RNG blocks in parallel, which must precede the agents' on_start draws.
  bind(core);
  core.ensure_started();
  if (shards_ <= 1) {
    core.run_synchronous_round(awake_mask);
    return;
  }
  core.advance_churn(core.time_);  // Serial, pre-phase: one epoch per round.
  const std::uint32_t S = shards_;
  const std::uint32_t n = bound_n_;
  const std::uint32_t shift = bound_shift_;
  const std::uint32_t* unit_offset = unit_offset_.data();
  const bool net_active = core.net_msgs_ || core.net_churn_;
  // The shard-barrier arena reset: last round's arena payloads die here.
  core.reset_round_arenas();

  // Phase A: collect each awake agent's single active operation (by
  // self-shard) and route it to the lane of its target's unit.  With the
  // SoA caches live each shard walks its segment of the core's label-
  // ordered live list (found by binary search — the list is sorted) instead
  // of its full label range; the list is compacted at the barrier
  // (recount_done), never here, so the shards only read it.  Each shard
  // first resets its own scratch from last round.
  parallel_phase([&](std::uint32_t s) {
    ShardScratch& sc = scratch_[s];
    sc.metrics = Metrics{};
    sc.pullers.clear();
    sc.pushes = 0;
    for (Lane& lane : sc.lanes) {
      lane.pulls.clear();  // Capacity kept: steady state allocates nothing.
      lane.pushes.clear();
    }
    Lane* lanes = sc.lanes.data();
    Context ctx = core.make_context(0, core.round_arena(s));
    const auto collect = [&](AgentId i) {
      ctx.self = i;
      ctx.rng = &core.rngs_[i];
      Action& a = core.actions_[i];
      a = core.agents_[i]->on_round(ctx);
      core.note_activation_sharded(i);
      if (a.kind == ActionKind::kIdle) return;
      assert(a.target < n);
      ++sc.metrics.active_links;
      Lane& lane = lanes[(a.target >> shift) +
                         unit_offset[contiguous_block_of(n, S, a.target)]];
      if (a.kind == ActionKind::kPull) {
        // The request header is charged at the requester, as on the
        // blocked path (sums are merge-order independent).
        core.charge_pull_request(sc.metrics);
        sc.pullers.push_back(i);
        lane.pulls.push_back(PullItem{i, a.target});
      } else {
        ++sc.pushes;
        lane.pushes.push_back(PushItem{i, a.target});
      }
    };
    if (core.obs_cache_enabled_) {
      const auto& live = core.live_list_;
      sc.live_begin = static_cast<std::size_t>(
          std::lower_bound(live.begin(), live.end(), shard_begin_[s]) -
          live.begin());
      sc.live_end = static_cast<std::size_t>(
          std::lower_bound(live.begin() + sc.live_begin, live.end(),
                           shard_begin_[s + 1]) -
          live.begin());
      for (std::size_t r = sc.live_begin; r < sc.live_end; ++r) {
        const AgentId i = live[r];
        if (core.done_[i] != 0 || core.is_down(i) ||
            (awake_mask != nullptr && !(*awake_mask)[i])) {
          continue;
        }
        collect(i);
      }
    } else {
      // Shard-safe but non-cacheable agents: no live list, scan the range.
      for (std::uint32_t i = shard_begin_[s]; i < shard_begin_[s + 1]; ++i) {
        if (core.faulty_[i] || core.is_down(i) || core.agents_[i]->done() ||
            (awake_mask != nullptr && !(*awake_mask)[i])) {
          continue;
        }
        collect(i);
      }
    }
  });

  // Empty phases are skipped, as in the serial round.
  bool any_pull = false;
  bool any_push = false;
  for (const ShardScratch& sc : scratch_) {
    any_pull = any_pull || !sc.pullers.empty();
    any_push = any_push || sc.pushes != 0;
  }

  // Phase B: serve pulls from round-start state, by server-shard, unit by
  // unit.  Inside a unit the lanes drain in source-shard order; contiguous
  // shards make that the global requester-label order per server.
  if (any_pull) parallel_phase([&](std::uint32_t d) {
    Metrics& m = scratch_[d].metrics;
    support::Arena* arena = core.round_arena(d);
    Context ctx = core.make_context(0, arena);
    for (std::uint32_t u = unit_begin_[d]; u < unit_begin_[d + 1]; ++u) {
      for (std::uint32_t s = 0; s < S; ++s) {
        const PullItem* q = scratch_[s].lanes[u].pulls.data();
        const std::size_t len = scratch_[s].lanes[u].pulls.size();
        for (std::size_t j = 0; j < len; ++j) {
          // The blocked round's two-stage prefetch (pointer line, then
          // object), plus the reply slot the serve is about to write.
          if (j + 8 < len) {
            __builtin_prefetch(&core.agents_[q[j + 8].server]);
          }
          if (j + 4 < len) {
            __builtin_prefetch(core.agents_[q[j + 4].server].get());
            __builtin_prefetch(&core.pull_replies_[q[j + 4].requester], 1);
          }
          const PullItem& e = q[j];
          // Each requester pulls at most once per round, so its reply slot
          // is written by exactly one shard.
          if (net_active) {
            // Fault-enabled rounds take the shared serve path so the
            // request/reply fault stage has one definition.
            core.pull_replies_[e.requester] =
                core.serve_and_charge_pull(e.server, e.requester, m, arena);
            core.note_activation_sharded(e.server);
            continue;
          }
          // serve_and_charge_pull on the hoisted Context.
          if (core.faulty_[e.server] != 0) {
            core.pull_replies_[e.requester] = {};  // Silence: no reply.
            continue;
          }
          ctx.self = e.server;
          ctx.rng = &core.rngs_[e.server];
          Payload reply =
              core.agents_[e.server]->serve_pull(ctx, e.requester);
          if (!reply.empty()) {
            ++m.pull_replies;
            m.note_message(reply.bit_size());
          }
          core.pull_replies_[e.requester] = std::move(reply);
          core.note_activation_sharded(e.server);
        }
      }
    }
  });

  // Phase C: deliver pull replies in puller-label order, by puller-shard
  // (each shard's puller list is label-ordered by construction).
  if (any_pull) parallel_phase([&](std::uint32_t s) {
    Context ctx = core.make_context(0, core.round_arena(s));
    const AgentId* pullers = scratch_[s].pullers.data();
    const std::size_t np = scratch_[s].pullers.size();
    for (std::size_t j = 0; j < np; ++j) {
      if (j + 8 < np) {
        __builtin_prefetch(&core.agents_[pullers[j + 8]]);
      }
      if (j + 4 < np) {
        const AgentId ahead = pullers[j + 4];
        __builtin_prefetch(core.agents_[ahead].get());
        __builtin_prefetch(&core.pull_replies_[ahead], 1);
      }
      const AgentId i = pullers[j];
      ctx.self = i;
      ctx.rng = &core.rngs_[i];
      core.agents_[i]->on_pull_reply(ctx, core.actions_[i].target,
                                     core.pull_replies_[i]);
      core.pull_replies_[i] = {};
      core.note_activation_sharded(i);
    }
  });

  // Pushes the network delayed in earlier rounds land at the start of the
  // push phase, exactly as on the serial paths.  Runs between barriers, so
  // single-threaded delivery against the core is safe.
  if (core.net_msgs_) core.deliver_due_delayed(core.round_arena(0));

  // Phase D: deliver pushes by target-shard, unit by unit; the source-shard
  // merge yields global sender-label order at every receiver.  Fault
  // verdicts are pure per-message hashes, so shard interleaving cannot
  // change them; held-back pushes go to per-shard sinks merged (and sorted)
  // at the barrier.
  if (any_push) parallel_phase([&](std::uint32_t d) {
    ShardScratch& sc = scratch_[d];
    Metrics& m = sc.metrics;
    support::Arena* arena = core.round_arena(d);
    Context ctx = core.make_context(0, arena);
    EngineCore::NetSinks sinks{&sc.delayed, &sc.deferred};
    for (std::uint32_t u = unit_begin_[d]; u < unit_begin_[d + 1]; ++u) {
      for (std::uint32_t s = 0; s < S; ++s) {
        const PushItem* q = scratch_[s].lanes[u].pushes.data();
        const std::size_t len = scratch_[s].lanes[u].pushes.size();
        for (std::size_t j = 0; j < len; ++j) {
          // Two-stage prefetch of the target (pointer line, then object),
          // plus the sender's action slot, where the payload waits.
          if (j + 8 < len) {
            __builtin_prefetch(&core.agents_[q[j + 8].target]);
            __builtin_prefetch(&core.actions_[q[j + 8].sender]);
          }
          if (j + 4 < len) {
            __builtin_prefetch(core.agents_[q[j + 4].target].get());
          }
          const PushItem& e = q[j];
          const Payload& payload = core.actions_[e.sender].payload;
          if (net_active) {
            core.execute_push(e.sender, e.target, payload, m, arena, &sinks);
            core.note_activation_sharded(e.target);
            continue;
          }
          // execute_push + note_activation_sharded on the hoisted Context
          // (metrics charged identically for faulty targets).
          ++m.pushes;
          m.note_message(payload.bit_size());
          if (core.faulty_[e.target] != 0) continue;
          ctx.self = e.target;
          ctx.rng = &core.rngs_[e.target];
          core.agents_[e.target]->on_push(ctx, e.sender, payload);
          core.note_activation_sharded(e.target);
        }
      }
    }
  });

  if (core.net_msgs_) {
    // Barrier merge of the per-shard sinks.  Delayed pushes join the core's
    // pending list (delivery sorts by (origin, sender), so merge order is
    // free); reordered ones are flushed now, at the end of this round's
    // push phase, through the same sorted flush as the serial round.
    deferred_merge_.clear();
    for (ShardScratch& sc : scratch_) {
      for (DelayedPush& e : sc.delayed) {
        core.net_delayed_.push_back(std::move(e));
      }
      for (DelayedPush& e : sc.deferred) {
        deferred_merge_.push_back(std::move(e));
      }
      sc.delayed.clear();
      sc.deferred.clear();
    }
    core.flush_deferred(deferred_merge_, core.round_arena(0));
  }

  // Shard deltas carry no rounds/virtual_time (the scheduler owns those),
  // so the general merge is exact here.
  for (const ShardScratch& sc : scratch_) core.metrics_.merge_from(sc.metrics);
  // The phases refreshed done_ bytes only (the shared counter would race);
  // recount it at the barrier so all_done() stays O(1) and exact.
  recount_done(core);
  ++core.time_;
  core.metrics_.rounds = core.time_;
}

void ShardedRoundExecutor::recount_done(EngineCore& core) {
  if (!core.obs_cache_enabled_) return;
  // Per shard: count the done non-faulty labels, log the range's new done
  // transitions in label order (done_logged_ bytes are per label, so the
  // shards never share one), and stable-compact the shard's live-list
  // segment in place, dropping the labels that finished this round.
  parallel_phase([&](std::uint32_t s) {
    ShardScratch& sc = scratch_[s];
    sc.done_log.clear();
    std::uint32_t count = 0;
    for (std::uint32_t i = shard_begin_[s]; i < shard_begin_[s + 1]; ++i) {
      if (core.faulty_[i] != 0 || core.done_[i] == 0) continue;
      ++count;
      if (core.done_logged_[i] == 0) {
        core.done_logged_[i] = 1;
        sc.done_log.push_back(i);
      }
    }
    sc.done_count = count;
    AgentId* live = core.live_list_.data();
    std::size_t w = sc.live_begin;
    for (std::size_t r = sc.live_begin; r < sc.live_end; ++r) {
      if (core.done_[live[r]] == 0) live[w++] = live[r];
    }
    sc.live_kept_end = w;
  });
  // Serial join in shard order, which is label order: the done log gets
  // exactly the serial scan's appends, and the live list closes the gaps
  // the segment compactions left (only if some segment shrank).
  std::uint32_t count = 0;
  bool shrank = false;
  for (const ShardScratch& sc : scratch_) {
    count += sc.done_count;
    core.done_log_.insert(core.done_log_.end(), sc.done_log.begin(),
                          sc.done_log.end());
    shrank = shrank || sc.live_kept_end != sc.live_end;
  }
  core.num_done_ = count;
  if (!shrank) return;
  auto& live = core.live_list_;
  std::size_t w = 0;
  for (const ShardScratch& sc : scratch_) {
    if (w != sc.live_begin) {
      std::copy(live.begin() + sc.live_begin, live.begin() + sc.live_kept_end,
                live.begin() + w);
    }
    w += sc.live_kept_end - sc.live_begin;
  }
  live.resize(w);
}

}  // namespace rfc::sim
