#include "sim/sharding.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <type_traits>
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
  const std::uint32_t n = core.n();
  // More shards than labels would only add empty tasks.
  shards_ = cfg_.shards < n ? cfg_.shards : n;
  shard_begin_.resize(shards_ + 1);
  for (std::uint32_t s = 0; s <= shards_; ++s) {
    shard_begin_[s] = contiguous_block_begin(n, shards_, s);
  }
  scratch_.resize(shards_);
  bound_shift_ = kUnbound;  // bind_units cuts the units, in prepare.
  core.ensure_arenas(shards_);  // One round arena per shard.
  if (shards_ > 1) {
    // Agents sharing mutable state across labels (Agent::shard_safe() ==
    // false, e.g. the rational::Coalition blackboard) would race the
    // parallel phases — refuse loudly instead.  Missing agents are left for
    // ensure_started's friendlier diagnostic.
    for (std::uint32_t i = 0; i < n; ++i) {
      if (core.agents_[i] != nullptr && !core.agents_[i]->shard_safe()) {
        throw std::invalid_argument(
            "ShardedRoundExecutor: agent " + std::to_string(i) +
            " shares mutable state across labels (shard_safe() == false) "
            "and cannot run under a sharded round; use shards=1");
      }
    }
    // Shard-local RNG prefetch: derive each shard's per-agent streams on
    // its own worker before the agents start.  The streams are a pure
    // function of (seed, label), so this is the serial derivation
    // reordered — traces are untouched.
    if (!core.rngs_seeded_) {
      parallel_phase([&](std::uint32_t s) {
        core.seed_rng_block(shard_begin_[s], shard_begin_[s + 1]);
      });
      core.rngs_seeded_ = true;
    }
  }
  bound_n_ = n;
}

void ShardedRoundExecutor::bind_units(const EngineCore& core) {
  const std::uint32_t shift = core.block_shift_;
  if (shift == bound_shift_) return;
  bound_shift_ = shift;
  const std::uint32_t n = bound_n_;
  // Units are blocks cut at shard boundaries: every boundary that falls
  // inside a block splits it into two units, shifting all later units by
  // one.  (Shards are non-empty, so a block boundary and a shard boundary
  // are the only cuts.)
  const std::uint32_t mask = (1u << shift) - 1;
  unit_offset_.resize(shards_);
  unit_begin_.resize(shards_ + 1);
  std::uint32_t splits = 0;
  for (std::uint32_t s = 0; s < shards_; ++s) {
    if (s > 0 && (shard_begin_[s] & mask) != 0) ++splits;
    unit_offset_[s] = splits;
    unit_begin_[s] = (shard_begin_[s] >> shift) + splits;
  }
  const std::uint32_t units = ((n - 1) >> shift) + 1 + splits;
  unit_begin_[shards_] = units;
  for (ShardScratch& sc : scratch_) sc.lanes.assign(units, Lane{});
  // Pre-size every lane for its share of a round in which each agent of
  // the source shard sends one message to a uniform target, plus 1/8 (at
  // n = 2^20 that is 16 standard deviations): a spread then fills its lanes
  // without regrowing them.  Growing them through every doubling instead
  // left the freed buffers resident, ~8% more peak RSS on a 2^20-agent
  // spread.  Skewed targets still just grow the vector.
  for (std::uint32_t d = 0; d < shards_; ++d) {
    for (std::uint32_t u = unit_begin_[d]; u < unit_begin_[d + 1]; ++u) {
      const std::uint32_t block = u - unit_offset_[d];
      const std::uint64_t lo = std::max<std::uint64_t>(
          std::uint64_t{block} << shift, shard_begin_[d]);
      const std::uint64_t hi = std::min<std::uint64_t>(
          (std::uint64_t{block} + 1) << shift, shard_begin_[d + 1]);
      for (std::uint32_t s = 0; s < shards_; ++s) {
        const std::uint64_t expect =
            (hi - lo) * (shard_begin_[s + 1] - shard_begin_[s]) / n;
        scratch_[s].lanes[u].pulls.reserve(expect + expect / 8);
        scratch_[s].lanes[u].pushes.reserve(expect + expect / 8);
      }
    }
  }
}

template <typename Fn>
void ShardedRoundExecutor::parallel_phase(Fn&& fn) {
  if (shards_ == 1) {
    fn(0u);  // Exceptions unwind straight to the caller.
    return;
  }
  pool_phase(fn);
}

void ShardedRoundExecutor::pool_phase(
    const std::function<void(std::uint32_t)>& fn) {
  // An exception from an agent callback must reach the caller exactly as
  // with one shard (where it unwinds out of Engine::step), not
  // std::terminate the process from a pool worker.  First one wins; the
  // round's state is partially applied either way.
  std::exception_ptr first_error;
  std::mutex error_mu;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<rfc::support::ThreadPool>(cfg_.threads);
  }
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
  open_round(core);
  parallel_phase([&](std::uint32_t s) { collect(core, s, awake_mask); });
  // A phase with no work is skipped outright — pull-free rounds (e.g. the
  // push steady state of a spread) cost nothing beyond phase A.
  bool any_pull = false;
  bool any_push = false;
  for (const ShardScratch& sc : scratch_) {
    any_pull = any_pull || !sc.pullers.empty();
    any_push = any_push || sc.pushes != 0;
  }
  if (any_pull) {
    parallel_phase([&](std::uint32_t d) { serve_pulls(core, d); });
    parallel_phase([&](std::uint32_t s) { deliver_replies(core, s); });
  }
  // Pushes the network delayed in earlier rounds land at the start of the
  // push phase.  Runs between barriers, so single-threaded delivery
  // against the core is safe.
  if (core.net_msgs_) core.deliver_held();
  if (any_push) {
    parallel_phase([&](std::uint32_t d) { deliver_pushes(core, d); });
  }
  close_round(core);
}

void ShardedRoundExecutor::prepare(EngineCore& core) {
  // bind() before ensure_started(): a sharded bind prefetches the per-agent
  // RNG blocks in parallel, which must precede the agents' on_start draws.
  bind(core);
  core.ensure_started();
  bind_units(core);
}

void ShardedRoundExecutor::open_round(EngineCore& core) {
  prepare(core);
  core.advance_churn(core.time_);  // One churn epoch per round.
  // The round-start arena reset: last round's arena payloads die here, so
  // an arena-boxed payload is valid for exactly one full round.
  core.reset_round_arenas();

  // Each shard walks its segment of the core's label-ordered live list.
  // The segments are found here, before any shard compacts its own in
  // place, so no shard reads another's while it is being written.  A
  // segment counts as kept whole until its shard's phase A compacts it: a
  // cluster node runs phase A for its own shard only.
  const auto& live = core.live_list_;
  std::size_t begin = 0;
  for (std::uint32_t s = 0; s < shards_; ++s) {
    const std::size_t end = static_cast<std::size_t>(
        std::lower_bound(live.begin() + begin, live.end(),
                         shard_begin_[s + 1]) -
        live.begin());
    scratch_[s].live_begin = begin;
    scratch_[s].live_end = scratch_[s].live_kept_end = end;
    begin = end;
  }
}

void ShardedRoundExecutor::close_round(EngineCore& core) {
  if (core.net_msgs_) {
    // The shards' held-back pushes join the core's pending list (delivery
    // sorts, so merge order is free); the reordered ones, due this round,
    // land now, after its push phase.
    for (ShardScratch& sc : scratch_) {
      for (DelayedPush& e : sc.held) core.net_delayed_.push_back(std::move(e));
      sc.held.clear();
    }
    core.deliver_held();
  }

  // Shard deltas carry no rounds/virtual_time (the scheduler owns those),
  // so the general merge is exact here.
  for (const ShardScratch& sc : scratch_) core.metrics_.merge_from(sc.metrics);
  settle_done(core);
  ++core.time_;
  core.metrics_.rounds = core.time_;
}

void ShardedRoundExecutor::collect(EngineCore& core, std::uint32_t s,
                                   const std::vector<bool>* awake_mask) {
  // Phase A, by self-shard: collect each awake agent's single active
  // operation and route it to the lane of its target's unit, after
  // resetting the shard's scratch from last round.
  ShardScratch& sc = scratch_[s];
  sc.metrics = Metrics{};
  sc.pullers.clear();
  sc.pushes = 0;
  for (Lane& lane : sc.lanes) {
    lane.pulls.clear();  // Capacity kept: steady state allocates nothing.
    lane.pushes.clear();
  }
  const std::uint32_t S = shards_;
  const std::uint32_t n = bound_n_;
  const std::uint32_t shift = bound_shift_;
  const std::uint32_t* unit_offset = unit_offset_.data();
  Lane* lanes = sc.lanes.data();
  Context ctx = core.make_context(0, core.round_arena(s));
  // Walk the shard's live-list segment, compacting labels that were done
  // at round start out of it in place (done() is monotone, so a dropped
  // label never wakes again); the segment is label-ordered and holds
  // exactly the shard's non-faulty labels not yet done.
  AgentId* live = core.live_list_.data();
  std::size_t w = sc.live_begin;
  for (std::size_t r = sc.live_begin; r < sc.live_end; ++r) {
    const AgentId i = live[r];
    if (core.done_[i] != 0) continue;
    live[w++] = i;  // Down agents stay listed: churn is transient.
    if (core.is_down(i) || (awake_mask != nullptr && !(*awake_mask)[i])) {
      continue;
    }
    Action a = core.agents_[i]->on_round(core.aim(ctx, i));
    core.note_activation_sharded(i, sc.flipped);
    if (a.kind == ActionKind::kIdle) continue;
    if (a.target >= n) [[unlikely]] core.throw_bad_target(i, a.target);
    ++sc.metrics.active_links;
    // One shard has one unit per block: skip contiguous_block_of's
    // division on the serial engine's hot path.
    const std::uint32_t block = a.target >> shift;
    Lane& lane =
        lanes[S == 1 ? block
                     : block + unit_offset[contiguous_block_of(n, S, a.target)]];
    if (a.kind == ActionKind::kPull) {
      // The request header is charged at the requester (sums are
      // merge-order independent).
      core.charge_pull_request(sc.metrics);
      sc.pullers.push_back(PullItem{i, a.target});
      lane.pulls.push_back(PullItem{i, a.target});
    } else {
      ++sc.pushes;
      lane.pushes.push_back(PushItem{std::move(a.payload), i, a.target});
    }
  }
  sc.live_kept_end = w;
}

template <auto Callee, typename Item, typename Body>
void ShardedRoundExecutor::drain(EngineCore& core,
                                 const std::vector<Item>& items, Body& body) {
  const Item* q = items.data();
  const std::size_t len = items.size();
  for (std::size_t j = 0; j < len; ++j) {
    if (j + 8 < len) __builtin_prefetch(&core.agents_[q[j + 8].*Callee]);
    if (j + 4 < len) {
      __builtin_prefetch(core.agents_[q[j + 4].*Callee].get());
      if constexpr (std::is_same_v<Item, PullItem>) {
        __builtin_prefetch(&core.pull_replies_[q[j + 4].requester], 1);
      }
    }
    body(q[j]);
  }
}

template <auto Callee, typename Item, typename Body>
void ShardedRoundExecutor::drain_lanes(EngineCore& core, std::uint32_t d,
                                       std::vector<Item> Lane::*queue,
                                       Body&& body) {
  for (std::uint32_t u = unit_begin_[d]; u < unit_begin_[d + 1]; ++u) {
    for (std::uint32_t s = 0; s < shards_; ++s) {
      drain<Callee>(core, scratch_[s].lanes[u].*queue, body);
    }
  }
}

void ShardedRoundExecutor::serve_pulls(EngineCore& core, std::uint32_t d) {
  // Phase B, by server-shard: serve pulls from round-start state.  The
  // lanes' source-shard order within a unit is, shards being contiguous,
  // the global requester-label order per server.  Each requester pulls at
  // most once per round, so its reply slot is written by one shard only.
  ShardScratch& sc = scratch_[d];
  Context ctx = core.make_context(0, core.round_arena(d));
  const auto serve = [&](auto net) {
    constexpr bool kNet = decltype(net)::value;
    drain_lanes<&PullItem::server>(
        core, d, &Lane::pulls, [&](const PullItem& e) {
          core.pull_replies_[e.requester] =
              core.serve_step<kNet>(ctx, e.server, e.requester, sc.metrics);
          core.note_activation_sharded(e.server, sc.flipped);
        });
  };
  if (core.net_msgs_ || core.net_churn_) {
    serve(std::true_type{});
  } else {
    serve(std::false_type{});
  }
}

void ShardedRoundExecutor::deliver_replies(EngineCore& core,
                                           std::uint32_t s) {
  // Phase C, by puller-shard: deliver pull replies in puller-label order
  // (each shard's puller list is label-ordered by construction).
  ShardScratch& sc = scratch_[s];
  Context ctx = core.make_context(0, core.round_arena(s));
  const auto reply = [&](const PullItem& e) {
    const AgentId i = e.requester;
    core.agents_[i]->on_pull_reply(core.aim(ctx, i), e.server,
                                   core.pull_replies_[i]);
    core.pull_replies_[i] = {};
    core.note_activation_sharded(i, sc.flipped);
  };
  drain<&PullItem::requester>(core, sc.pullers, reply);
}

void ShardedRoundExecutor::deliver_pushes(EngineCore& core, std::uint32_t d) {
  // Phase D, by target-shard: deliver pushes unit by unit; the source-shard
  // merge yields global sender-label order at every receiver, and one
  // unit's receivers stay cache-resident while its lanes stream through.
  // Fault verdicts are pure per-message hashes, so shard interleaving
  // cannot change them; held-back pushes go to the shard's sink, merged
  // (and sorted) by close_round.
  ShardScratch& sc = scratch_[d];
  Context ctx = core.make_context(0, core.round_arena(d));
  const auto push = [&](auto net) {
    constexpr bool kNet = decltype(net)::value;
    drain_lanes<&PushItem::target>(
        core, d, &Lane::pushes, [&](const PushItem& e) {
          core.push_step<kNet>(ctx, e.sender, e.target, e.payload,
                               sc.metrics, {&sc.held, true});
          core.note_activation_sharded(e.target, sc.flipped);
        });
  };
  if (core.net_msgs_ || core.net_churn_) {
    push(std::true_type{});
  } else {
    push(std::false_type{});
  }
}

void ShardedRoundExecutor::settle_done(EngineCore& core) {
  // A label can flip more than once in a round only by breaching "done is
  // final"; settle_done compares against the last settled byte, so
  // duplicate entries are harmless.
  bool shrank = false;
  for (ShardScratch& sc : scratch_) {
    for (const AgentId i : sc.flipped) core.settle_done(i);
    sc.flipped.clear();
    shrank = shrank || sc.live_kept_end != sc.live_end;
  }
  // Close the gaps phase A's segment compactions left (only if some
  // segment shrank).
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
