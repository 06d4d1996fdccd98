#include "sim/engine_core.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/math_util.hpp"

namespace rfc::sim {

EngineCore::EngineCore(std::uint32_t n, std::uint64_t seed,
                       TopologyPtr topology)
    : n_(n), seed_(seed), topology_(std::move(topology)) {
  if (n_ == 0) throw std::invalid_argument("Engine: n must be positive");
  agents_.resize(n_);
  faulty_.assign(n_, 0);
  // Stream slots only; the SplitMix expansions are deferred to
  // seed_rng_block so the sharded executor can derive each shard's block on
  // its own worker before the agents start (shard-local RNG prefetch).
  rngs_.assign(n_, rfc::support::Xoshiro256(
                       rfc::support::Xoshiro256::Unseeded{}));
  actions_.resize(n_);
  pull_replies_.resize(n_);
}

void EngineCore::seed_rng_block(std::uint32_t lo, std::uint32_t hi) noexcept {
  for (std::uint32_t i = lo; i < hi; ++i) {
    rngs_[i].seed(rfc::support::derive_seed(seed_, i));
  }
}

void EngineCore::set_agent(AgentId id, std::unique_ptr<Agent> agent) {
  agents_.at(id) = std::move(agent);
}

void EngineCore::set_faulty(AgentId id, bool faulty) {
  if (started_) {
    throw std::logic_error("Engine: fault plan is permanent; set before run");
  }
  if ((faulty_.at(id) != 0) != faulty) {
    faulty_[id] = faulty ? 1 : 0;
    num_faulty_ += faulty ? 1u : -1u;
  }
}

void EngineCore::apply_fault_plan(const std::vector<bool>& plan) {
  if (plan.size() != n_) {
    throw std::invalid_argument("Engine: fault plan size mismatch");
  }
  for (std::uint32_t i = 0; i < n_; ++i) set_faulty(i, plan[i]);
}

void EngineCore::set_network(NetworkModelPtr network) {
  if (started_) {
    throw std::logic_error(
        "Engine: the network model is part of the run setup; set before run");
  }
  network_ = std::move(network);
  net_msgs_ = network_ != nullptr && network_->message_faults();
  net_churn_ = network_ != nullptr && network_->has_churn();
  if (net_churn_) down_until_.assign(n_, 0);
}

void EngineCore::advance_churn(std::uint64_t epoch) {
  if (!net_churn_) return;
  net_epoch_ = epoch;
  // Sweep every epoch exactly once even if the caller's clock jumps (the
  // sequential path advances the epoch every n steps), so crash verdicts
  // are a function of the epoch alone, not of how it was reached.
  while (churn_unswept_ <= epoch) {
    const std::uint64_t e = churn_unswept_++;
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (faulty_[i] != 0 || down_until_[i] > e) continue;
      if (network_->crashes(e, i)) {
        const std::uint64_t rejoin = network_->rates().rejoin;
        down_until_[i] = rejoin == 0
                             ? std::numeric_limits<std::uint64_t>::max()
                             : e + rejoin;
        ++metrics_.churn_crashes;
      }
    }
  }
}

void EngineCore::deliver_push(AgentId sender, AgentId target,
                              const Payload& payload, support::Arena* arena) {
  if (faulty_[target] != 0 || is_down(target)) return;
  agents_[target]->on_push(make_context(target, arena), sender, payload);
}

void EngineCore::net_push(AgentId sender, AgentId target,
                          const Payload& payload, Metrics& metrics,
                          support::Arena* arena, NetSinks* sinks) {
  const NetworkModel& net = *network_;
  const std::uint64_t now = time_;
  if (net.drop(NetMessage::kPush, now, sender, target)) {
    ++metrics.net_drops;  // Charged at send, lost in transit.
    return;
  }
  const Payload* body = &payload;
  Payload tampered;
  if (net.corrupt(NetMessage::kPush, now, sender, target)) {
    tampered = corrupt_payload(payload, net.corrupt_salt(now, sender, target));
    if (!tampered.empty()) {
      ++metrics.net_corruptions;  // Only metered when bits actually flipped.
      body = &tampered;
    }
  }
  if (sinks != nullptr) {
    if (sinks->delayed != nullptr) {
      const std::uint64_t d = net.delay_of(now, sender, target);
      if (d > 0) {
        Payload kept = clone_payload(*body);
        if (!kept.empty() || body->empty()) {
          ++metrics.net_delays;
          sinks->delayed->push_back(
              DelayedPush{now + d, now, sender, target, std::move(kept)});
          return;
        }
        // Unclonable across rounds (an arena-boxed tag with no registered
        // clone hook): fall through and deliver this round instead.
      }
    }
    if (sinks->deferred != nullptr && net.reorder(now, sender, target)) {
      // Same-round payloads survive until the next barrier reset, so no
      // clone is needed here.
      ++metrics.net_delays;
      sinks->deferred->push_back(DelayedPush{now, now, sender, target, *body});
      return;
    }
  }
  const bool dup = net.duplicate(now, sender, target);
  if (dup) ++metrics.net_dups;
  deliver_push(sender, target, *body, arena);
  if (dup) deliver_push(sender, target, *body, arena);
}

void EngineCore::deliver_due_delayed(support::Arena* arena) {
  if (net_delayed_.empty()) return;
  std::vector<DelayedPush> due;
  std::size_t w = 0;
  for (DelayedPush& e : net_delayed_) {
    if (e.due <= time_) {
      due.push_back(std::move(e));
    } else {
      net_delayed_[w++] = std::move(e);
    }
  }
  net_delayed_.resize(w);
  if (due.empty()) return;
  // (origin round, sender) is unique per delayed push — a total order, so
  // delivery cannot depend on how the pending list was accumulated.
  std::sort(due.begin(), due.end(),
            [](const DelayedPush& a, const DelayedPush& b) {
              return a.origin != b.origin ? a.origin < b.origin
                                          : a.sender < b.sender;
            });
  for (const DelayedPush& e : due) {
    deliver_push(e.sender, e.target, e.payload, arena);
    note_activation(e.target);
  }
}

void EngineCore::flush_deferred(std::vector<DelayedPush>& batch,
                                support::Arena* arena) {
  if (batch.empty()) return;
  // Senders are unique within a round (one action per agent), so sender
  // label is a total order shared by the serial, blocked, and sharded
  // paths regardless of queue accumulation order.
  std::sort(batch.begin(), batch.end(),
            [](const DelayedPush& a, const DelayedPush& b) {
              return a.sender < b.sender;
            });
  for (const DelayedPush& e : batch) {
    deliver_push(e.sender, e.target, e.payload, arena);
    note_activation(e.target);
  }
  batch.clear();
}

bool EngineCore::all_done() const {
  if (obs_cache_enabled_ && started_) {
    return num_done_ == n_ - num_faulty_;
  }
  // Without the caches, a fresh scan every call: completion can arrive
  // outside the agent's own callbacks (coalition blackboard), so nothing
  // cheaper is sound.
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (faulty_[i] == 0 && !agents_[i]->done()) return false;
  }
  return true;
}

AgentPhase EngineCore::agent_phase(AgentId id) const {
  if (!obs_cache_enabled_) return agents_[id]->phase();
  if ((obs_valid_[id] & kPhaseValid) == 0) {
    phase_cache_[id] = agents_[id]->phase();
    obs_valid_[id] |= kPhaseValid;
  }
  return phase_cache_[id];
}

double EngineCore::agent_progress(AgentId id) const {
  if (!obs_cache_enabled_) return agents_[id]->progress();
  if ((obs_valid_[id] & kProgressValid) == 0) {
    progress_cache_[id] = agents_[id]->progress();
    obs_valid_[id] |= kProgressValid;
  }
  return progress_cache_[id];
}

std::vector<AgentId> EngineCore::active_labels() const {
  std::vector<AgentId> labels;
  active_labels(labels);
  return labels;
}

void EngineCore::active_labels(std::vector<AgentId>& out) const {
  out.clear();
  out.reserve(num_active());
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (faulty_[i] == 0) out.push_back(i);
  }
}

std::uint64_t EngineCore::pull_request_bits() const noexcept {
  return rfc::support::bit_width_for_domain(n_);
}

void EngineCore::ensure_arenas(std::uint32_t count) {
  while (arenas_.size() < count) {
    arenas_.push_back(std::make_unique<support::Arena>());
  }
}

void EngineCore::reset_round_arenas() noexcept {
  for (auto& arena : arenas_) arena->reset();
}

void EngineCore::set_blocked_delivery(std::uint32_t min_n,
                                      std::uint32_t block_labels) {
  if (block_labels == 0) {
    throw std::invalid_argument("Engine: block_labels must be positive");
  }
  blocked_min_n_ = min_n;
  block_shift_ = 0;
  while ((1u << block_shift_) < block_labels) ++block_shift_;
}

Context EngineCore::make_context(AgentId id) noexcept {
  return make_context(id, serial_arena());
}

Context EngineCore::make_context(AgentId id, support::Arena* arena) noexcept {
  Context ctx;
  ctx.self = id;
  ctx.n = n_;
  ctx.round = time_;
  ctx.rng = &rngs_[id];
  ctx.topology = topology_.get();
  ctx.arena = arena;
  return ctx;
}

void EngineCore::ensure_started() {
  if (started_) return;
  if (!rngs_seeded_) {  // The sharded executor may have prefetched already.
    seed_rng_block(0, n_);
    rngs_seeded_ = true;
  }
  ensure_arenas(1);
  // The SoA observation caches are sound exactly when observations change
  // only through the agent's own callbacks: cacheable_observations() rules
  // out externally mutated state, shard_safe() rules out one label's
  // callback moving another label's observations (coalition blackboards).
  bool cacheable = true;
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (agents_[i] == nullptr) {
      throw std::logic_error("Engine: agent " + std::to_string(i) +
                             " not installed");
    }
    cacheable = cacheable && agents_[i]->shard_safe() &&
                agents_[i]->cacheable_observations();
  }
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (faulty_[i] == 0) {
      const Context ctx = make_context(i, serial_arena());
      agents_[i]->on_start(ctx);
    }
  }
  if (cacheable) {
    done_.assign(n_, 0);
    obs_valid_.assign(n_, 0);
    phase_cache_.assign(n_, AgentPhase::kUnknown);
    progress_cache_.assign(n_, 0.0);
    done_logged_.assign(n_, 0);
    done_log_.clear();
    num_done_ = 0;
    live_list_.clear();
    live_list_.reserve(n_ - num_faulty_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      done_[i] = agents_[i]->done() ? 1 : 0;
      if (faulty_[i] != 0) continue;
      if (done_[i] != 0) {
        ++num_done_;
        done_logged_[i] = 1;  // Pre-start done: accounted, never logged.
      } else {
        live_list_.push_back(i);
      }
    }
    obs_cache_enabled_ = true;
  }
  started_ = true;
}

void EngineCore::charge_pull_request(Metrics& metrics) {
  ++metrics.pull_requests;
  metrics.note_message(pull_request_bits());
}

Payload EngineCore::serve_and_charge_pull(AgentId v, AgentId requester,
                                          Metrics& metrics,
                                          support::Arena* arena) {
  if (net_msgs_ &&
      network_->drop(NetMessage::kPullRequest, time_, requester, v)) {
    ++metrics.net_drops;  // Lost request: charged by the caller, never
    return {};            // served — the requester observes silence.
  }
  if (faulty_[v] != 0 || is_down(v)) return {};  // Silence: no reply.
  Payload reply = agents_[v]->serve_pull(make_context(v, arena), requester);
  if (reply.empty()) return reply;
  ++metrics.pull_replies;
  metrics.note_message(reply.bit_size());
  if (net_msgs_) {
    // The reply was served and charged either way — the server's RNG
    // consumption never depends on what the network does afterwards.
    if (network_->drop(NetMessage::kPullReply, time_, v, requester)) {
      ++metrics.net_drops;
      return {};
    }
    if (network_->corrupt(NetMessage::kPullReply, time_, v, requester)) {
      Payload tampered =
          corrupt_payload(reply, network_->corrupt_salt(time_, v, requester));
      if (!tampered.empty()) {
        ++metrics.net_corruptions;
        return tampered;
      }
    }
  }
  return reply;
}

void EngineCore::execute_push(AgentId sender, AgentId target,
                              const Payload& payload, Metrics& metrics,
                              support::Arena* arena, NetSinks* sinks) {
  ++metrics.pushes;
  metrics.note_message(payload.bit_size());
  if (net_msgs_) {
    net_push(sender, target, payload, metrics, arena, sinks);
    return;
  }
  deliver_push(sender, target, payload, arena);
}

void EngineCore::run_synchronous_round(const std::vector<bool>* awake_mask) {
  ensure_started();
  advance_churn(time_);  // Round paths: one churn epoch per round.
  // The shard-barrier arena reset: payloads allocated last round die here,
  // so an arena-boxed payload is valid for exactly one full round.
  reset_round_arenas();
  if (use_blocked_round()) {
    run_blocked_round(awake_mask);
  } else {
    run_serial_round(awake_mask);
  }
}

void EngineCore::run_serial_round(const std::vector<bool>* awake_mask) {
  support::Arena* arena = serial_arena();

  // One Context for the whole round, re-aimed per agent (see
  // run_blocked_round): only self and the RNG pointer vary per callback.
  Context ctx = make_context(0, arena);

  // Phase A: collect each awake agent's single active operation, recording
  // who pulled and who pushed so phases B/C/D walk those lists instead of
  // rescanning all n labels.  push_back in the label-ordered walk keeps the
  // lists label-ordered — the pinned delivery order.
  round_pullers_.clear();
  round_pushers_.clear();
  const auto collect = [&](AgentId i) {
    ctx.self = i;
    ctx.rng = &rngs_[i];
    Action& a = actions_[i];
    a = agents_[i]->on_round(ctx);
    note_activation(i);
    if (a.kind == ActionKind::kIdle) return;
    assert(a.target < n_);
    ++metrics_.active_links;
    if (a.kind == ActionKind::kPull) round_pullers_.push_back(i);
    else round_pushers_.push_back(i);
  };
  if (obs_cache_enabled_) {
    // Sparse path: walk the live list, compacting finished labels in place
    // (done() is monotone, so a dropped label never wakes again).  The list
    // is label-ordered and contains exactly the labels the 0..n scan would
    // not have skipped, so the activation sequence is the scan's.
    std::size_t w = 0;
    const std::size_t live = live_list_.size();
    for (std::size_t r = 0; r < live; ++r) {
      const AgentId i = live_list_[r];
      if (done_[i] != 0) continue;
      live_list_[w++] = i;  // Down agents stay listed: churn is transient.
      if (is_down(i)) continue;
      if (awake_mask != nullptr && !(*awake_mask)[i]) continue;
      collect(i);
    }
    live_list_.resize(w);
  } else {
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (faulty_[i] != 0 || is_down(i) || agents_[i]->done() ||
          (awake_mask != nullptr && !(*awake_mask)[i])) {
        continue;
      }
      collect(i);
    }
  }

  // A phase with no work is skipped outright — pull-free rounds (e.g. the
  // push steady state of a spread) cost nothing beyond phase A.
  // pull_replies_ slots are only ever written in phase B and cleared again
  // in phase C, so every slot is empty at round start (which is also why
  // neither this path nor the sharded one pre-clears them).
  if (!round_pullers_.empty()) {
    // Phase B: serve all pull requests from round-start state.
    for (const AgentId i : round_pullers_) {
      charge_pull_request(metrics_);
      const AgentId target = actions_[i].target;
      pull_replies_[i] = serve_and_charge_pull(target, i, metrics_, arena);
      note_activation(target);
    }

    // Phase C: deliver pull replies in puller-label order.
    for (const AgentId i : round_pullers_) {
      ctx.self = i;
      ctx.rng = &rngs_[i];
      agents_[i]->on_pull_reply(ctx, actions_[i].target, pull_replies_[i]);
      pull_replies_[i] = {};
      note_activation(i);
    }
  }

  // Phase D: deliver pushes in sender-label order (execute_push inlined
  // onto the hoisted Context; metrics charged identically for faulty
  // targets, and note_activation keeps the cache-off path sound).  With a
  // fault-enabled network the inlined fast path yields to the shared
  // execute_push so all delivery paths share one fault stage; pushes
  // delayed in earlier rounds land first, reordered ones last.
  const bool net_active = net_msgs_ || net_churn_;
  if (net_msgs_) deliver_due_delayed(arena);
  NetSinks sinks{&net_delayed_, &net_deferred_};
  for (const AgentId i : round_pushers_) {
    const Action& a = actions_[i];
    if (net_active) {
      execute_push(i, a.target, a.payload, metrics_, arena, &sinks);
      note_activation(a.target);
      continue;
    }
    ++metrics_.pushes;
    metrics_.note_message(a.payload.bit_size());
    if (faulty_[a.target] == 0) {
      ctx.self = a.target;
      ctx.rng = &rngs_[a.target];
      agents_[a.target]->on_push(ctx, i, a.payload);
    }
    note_activation(a.target);
  }
  if (net_msgs_) flush_deferred(net_deferred_, arena);

  ++time_;
  metrics_.rounds = time_;
}

void EngineCore::run_blocked_round(const std::vector<bool>* awake_mask) {
  support::Arena* arena = serial_arena();
  const std::uint32_t shift = block_shift_;
  const std::uint32_t blocks = ((n_ - 1) >> shift) + 1;
  if (push_blocks_.size() < blocks) {
    push_blocks_.resize(blocks);
    pull_blocks_.resize(blocks);
  }
  for (std::uint32_t b = 0; b < blocks; ++b) {
    push_blocks_[b].clear();  // Capacity kept: steady state allocates nothing.
    pull_blocks_[b].clear();
  }
  if (pull_target_.size() != n_) pull_target_.resize(n_);
  round_pullers_.clear();

  // One Context for the whole round, re-aimed per agent: only self and the
  // RNG pointer vary, so the hot loops skip rebuilding the other fields
  // (make_context) once per callback.
  Context ctx = make_context(0, arena);

  // Phase A: walk the live list (compacting finished labels in place, as in
  // run_serial_round) and route each action to its destination block.  The
  // full Action (payload included) moves into the block queue, so delivery
  // streams the queue instead of random-reading an n-sized action buffer;
  // pullers are additionally listed for phase C.
  const bool net_active = net_msgs_ || net_churn_;
  std::uint32_t num_pushes = 0;
  std::size_t w = 0;
  const std::size_t live = live_list_.size();
  for (std::size_t r = 0; r < live; ++r) {
    const AgentId i = live_list_[r];
    if (done_[i] != 0) continue;
    live_list_[w++] = i;  // Down agents stay listed: churn is transient.
    if (is_down(i)) continue;
    if (awake_mask != nullptr && !(*awake_mask)[i]) continue;
    ctx.self = i;
    ctx.rng = &rngs_[i];
    Agent* agent = agents_[i].get();
    Action a = agent->on_round(ctx);
    // note_activation body, minus the faulty recheck (i is non-faulty here)
    // and minus the done_ compare (done_[i] was 0 at the gate above).
    obs_valid_[i] = 0;
    if (agent->done()) {
      done_[i] = 1;
      ++num_done_;
      log_done_transition(i);
    }
    if (a.kind == ActionKind::kIdle) continue;
    assert(a.target < n_);
    ++metrics_.active_links;
    if (a.kind == ActionKind::kPull) {
      round_pullers_.push_back(i);
      pull_target_[i] = a.target;
      // Charged at collect time, as on the sharded path (sums are
      // merge-order independent, so totals match the serial round).
      charge_pull_request(metrics_);
      pull_blocks_[a.target >> shift].push_back(PullEntry{i, a.target});
    } else {
      ++num_pushes;
      push_blocks_[a.target >> shift].push_back(
          PushEntry{std::move(a.payload), i, a.target});
    }
  }
  live_list_.resize(w);

  if (!round_pullers_.empty()) {
    // Phase B: serve pulls block by block.  Within a block entries are in
    // requester-label order and a server lives in exactly one block, so
    // every server sees its pullers in the serial round's order (same RNG
    // stream consumption); only the cross-server interleaving differs, and
    // servers' streams are independent.
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const PullEntry* q = pull_blocks_[b].data();
      const std::size_t m = pull_blocks_[b].size();
      for (std::size_t j = 0; j < m; ++j) {
        // Same two-stage prefetch as phase D (pointer line, then object),
        // plus the reply slot the serve is about to write: requesters are
        // label-ordered but sparse, so the stores stride past what the
        // hardware prefetcher tracks.
        if (j + 8 < m) {
          __builtin_prefetch(&agents_[q[j + 8].server]);
        }
        if (j + 4 < m) {
          __builtin_prefetch(agents_[q[j + 4].server].get());
          __builtin_prefetch(&pull_replies_[q[j + 4].requester], 1);
        }
        const PullEntry& e = q[j];
        if (net_active) {
          // Fault-enabled rounds take the shared serve path so the
          // request/reply fault stage has one definition.
          pull_replies_[e.requester] =
              serve_and_charge_pull(e.server, e.requester, metrics_, arena);
          note_activation(e.server);
          continue;
        }
        // serve_and_charge_pull on the hoisted Context (identical fields;
        // only self and the RNG pointer differ per serve).
        if (faulty_[e.server] != 0) {
          pull_replies_[e.requester] = {};  // Silence: no reply observed.
        } else {
          ctx.self = e.server;
          ctx.rng = &rngs_[e.server];
          Payload reply = agents_[e.server]->serve_pull(ctx, e.requester);
          if (!reply.empty()) {
            ++metrics_.pull_replies;
            metrics_.note_message(reply.bit_size());
          }
          pull_replies_[e.requester] = std::move(reply);
        }
        note_activation(e.server);
      }
    }

    // Phase C: deliver pull replies in puller-label order (the puller list
    // was filled by the label-ordered phase-A walk, so it already is the
    // contract's order).
    const AgentId* pullers = round_pullers_.data();
    const std::size_t np = round_pullers_.size();
    for (std::size_t j = 0; j < np; ++j) {
      if (j + 8 < np) {
        __builtin_prefetch(&agents_[pullers[j + 8]]);
      }
      if (j + 4 < np) {
        const AgentId ahead = pullers[j + 4];
        __builtin_prefetch(agents_[ahead].get());
        __builtin_prefetch(&pull_replies_[ahead], 1);
      }
      const AgentId i = pullers[j];
      ctx.self = i;
      ctx.rng = &rngs_[i];
      agents_[i]->on_pull_reply(ctx, pull_target_[i], pull_replies_[i]);
      pull_replies_[i] = {};
      note_activation(i);
    }
  }

  // Phase D: deliver pushes block by block — per receiver the sender order
  // is the serial round's (entries are in sender-label order within the
  // receiver's block), and one block's receivers stay cache-resident while
  // its queue streams through.  Fault verdicts are pure per-message hashes,
  // so taking them block by block instead of in sender order changes
  // nothing; held-back pushes re-enter through the same sorted flushes as
  // the serial round's.
  if (net_msgs_) deliver_due_delayed(arena);
  NetSinks sinks{&net_delayed_, &net_deferred_};
  if (num_pushes != 0) {
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const PushEntry* q = push_blocks_[b].data();
      const std::size_t m = push_blocks_[b].size();
      for (std::size_t j = 0; j < m; ++j) {
        // Two-stage software prefetch: the agent-pointer line a few entries
        // ahead, then the agent object itself one stage later (its address
        // needs the pointer already resident) — hides the scattered-target
        // latency the queue's streaming reads cannot.
        if (j + 8 < m) {
          __builtin_prefetch(&agents_[q[j + 8].target]);
        }
        if (j + 4 < m) {
          __builtin_prefetch(agents_[q[j + 4].target].get());
        }
        const PushEntry& e = q[j];
        if (net_active) {
          execute_push(e.sender, e.target, e.payload, metrics_, arena,
                       &sinks);
          note_activation(e.target);
          continue;
        }
        // execute_push + note_activation, sharing one faulty_ load and the
        // hoisted Context (metrics charged identically for faulty targets).
        ++metrics_.pushes;
        metrics_.note_message(e.payload.bit_size());
        if (faulty_[e.target] != 0) continue;
        ctx.self = e.target;
        ctx.rng = &rngs_[e.target];
        Agent* agent = agents_[e.target].get();
        agent->on_push(ctx, e.sender, e.payload);
        obs_valid_[e.target] = 0;
        const std::uint8_t d = agent->done() ? 1 : 0;
        if (d != done_[e.target]) {
          done_[e.target] = d;
          if (d != 0) {
            ++num_done_;
            log_done_transition(e.target);
          } else {
            --num_done_;
            unlog_done_transition(e.target);
          }
        }
      }
    }
  }
  if (net_msgs_) flush_deferred(net_deferred_, arena);

  ++time_;
  metrics_.rounds = time_;
}

void EngineCore::sequential_activation(AgentId u) {
  ensure_started();
  reset_round_arenas();  // One activation = one message lifetime.
  ++time_;
  metrics_.rounds = time_;
  // Sequential churn epochs tick once per n activations — the step-count
  // analogue of one synchronous round — and delayed pushes land at the
  // start of the first activation at or past their due step.
  if (net_churn_) advance_churn(time_ / n_);
  if (net_msgs_) deliver_due_delayed(serial_arena());
  if (agent_done(u)) return;  // A wasted activation.
  if (is_down(u)) return;     // A crashed agent's activation is wasted too.

  support::Arena* arena = serial_arena();
  const Action action = agents_[u]->on_round(make_context(u, arena));
  note_activation(u);
  switch (action.kind) {
    case ActionKind::kIdle:
      return;
    case ActionKind::kPull: {
      ++metrics_.active_links;
      charge_pull_request(metrics_);
      // Done agents are still asked: in the sequential model a fast agent
      // finishes while slow ones are mid-audit, and whether a terminated
      // agent keeps serving is the agent's own policy (as in the
      // synchronous round).
      const Payload reply =
          serve_and_charge_pull(action.target, u, metrics_, arena);
      note_activation(action.target);
      agents_[u]->on_pull_reply(make_context(u, arena), action.target, reply);
      note_activation(u);
      return;
    }
    case ActionKind::kPush: {
      ++metrics_.active_links;
      // No delivery phase to reorder within: reordering is a no-op here,
      // but cross-activation delay still applies.
      NetSinks sinks{&net_delayed_, nullptr};
      execute_push(u, action.target, action.payload, metrics_, arena,
                   &sinks);
      note_activation(action.target);
      return;
    }
  }
}

}  // namespace rfc::sim
