#include "sim/engine_core.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/math_util.hpp"

namespace rfc::sim {

EngineCore::EngineCore(std::uint32_t n, std::uint64_t seed,
                       TopologyPtr topology, LabelRange owned)
    : n_(n), seed_(seed), owned_(owned), topology_(std::move(topology)) {
  if (n_ == 0) throw std::invalid_argument("Engine: n must be positive");
  owned_.end = std::min(owned_.end, n_);
  if (owned_.begin >= owned_.end) {
    throw std::invalid_argument("Engine: owned label range is empty");
  }
  agents_.resize(n_);
  faulty_.assign(n_, 0);
  // Stream slots only; the SplitMix expansions are deferred to
  // seed_rng_block so the sharded executor can derive each shard's block on
  // its own worker before the agents start (shard-local RNG prefetch).
  rngs_.assign(n_, rfc::support::Xoshiro256(
                       rfc::support::Xoshiro256::Unseeded{}));
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

void EngineCore::net_reply(AgentId server, AgentId requester, Payload& reply,
                           Metrics& metrics) {
  if (network_->drop(NetMessage::kPullReply, time_, server, requester)) {
    ++metrics.net_drops;
    reply = {};
    return;
  }
  if (network_->corrupt(NetMessage::kPullReply, time_, server, requester)) {
    Payload tampered = corrupt_payload(
        reply, network_->corrupt_salt(time_, server, requester));
    if (!tampered.empty()) {
      ++metrics.net_corruptions;
      reply = std::move(tampered);
    }
  }
}

unsigned EngineCore::net_push(AgentId sender, AgentId target,
                              const Payload*& body, Payload& tampered,
                              Metrics& metrics, NetSinks sinks) {
  const NetworkModel& net = *network_;
  const std::uint64_t now = time_;
  if (net.drop(NetMessage::kPush, now, sender, target)) {
    ++metrics.net_drops;  // Charged at send, lost in transit.
    return 0;
  }
  if (net.corrupt(NetMessage::kPush, now, sender, target)) {
    tampered = corrupt_payload(*body, net.corrupt_salt(now, sender, target));
    if (!tampered.empty()) {
      ++metrics.net_corruptions;  // Only metered when bits actually flipped.
      body = &tampered;
    }
  }
  const std::uint64_t d = net.delay_of(now, sender, target);
  if (d > 0) {
    Payload kept = clone_payload(*body);
    if (!kept.empty() || body->empty()) {
      ++metrics.net_delays;
      sinks.held->push_back(
          DelayedPush{now + d, now, sender, target, std::move(kept)});
      return 0;
    }
    // Unclonable across rounds (an arena-boxed tag with no registered clone
    // hook): fall through and deliver this round instead.
  }
  if (sinks.reorder && net.reorder(now, sender, target)) {
    // Same-round payloads survive until the next barrier reset, so no clone
    // is needed here.
    ++metrics.net_delays;
    sinks.held->push_back(DelayedPush{now, now, sender, target, *body});
    return 0;
  }
  const bool dup = net.duplicate(now, sender, target);
  if (dup) ++metrics.net_dups;
  return dup ? 2 : 1;
}

void EngineCore::deliver_held() {
  std::size_t w = 0;
  for (DelayedPush& e : net_delayed_) {
    if (e.due <= time_) {
      net_due_.push_back(std::move(e));
    } else {
      net_delayed_[w++] = std::move(e);
    }
  }
  net_delayed_.resize(w);
  std::sort(net_due_.begin(), net_due_.end(),
            [](const DelayedPush& a, const DelayedPush& b) {
              return a.origin != b.origin ? a.origin < b.origin
                                          : a.sender < b.sender;
            });
  Context ctx = make_context(0, serial_arena());
  for (const DelayedPush& e : net_due_) {
    deliver<true>(ctx, e.sender, e.target, e.payload);
    note_activation(e.target);
  }
  net_due_.clear();
}

bool EngineCore::all_done() const {
  if (obs_cache_enabled_ && started_) return num_done_ == num_owned_active_;
  // Without the caches, a fresh scan every call: completion can arrive
  // outside the agent's own callbacks (coalition blackboard), so nothing
  // cheaper is sound.
  for (std::uint32_t i = owned_.begin; i < owned_.end; ++i) {
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

void EngineCore::active_labels(std::vector<AgentId>& out) const {
  out.clear();
  out.reserve(num_active());
  for (std::uint32_t i = owned_.begin; i < owned_.end; ++i) {
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

void EngineCore::set_block_labels(std::uint32_t labels) {
  if (labels == 0) {
    throw std::invalid_argument("Engine: block labels must be positive");
  }
  block_shift_ = 0;
  while (block_shift_ < 31 && (1u << block_shift_) < labels) ++block_shift_;
}

void EngineCore::throw_bad_target(AgentId i, AgentId target) const {
  throw std::out_of_range("Engine: agent " + std::to_string(i) +
                          " targeted label " + std::to_string(target) +
                          ", outside [0, " + std::to_string(n_) + ")");
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
    seed_rng_block(owned_.begin, owned_.end);
    rngs_seeded_ = true;
  }
  ensure_arenas(1);
  // The SoA observation caches are sound exactly when observations change
  // only through the agent's own callbacks: cacheable_observations() rules
  // out externally mutated state, shard_safe() rules out one label's
  // callback moving another label's observations (coalition blackboards).
  bool cacheable = true;
  for (std::uint32_t i = owned_.begin; i < owned_.end; ++i) {
    if (agents_[i] == nullptr) {
      throw std::logic_error("Engine: agent " + std::to_string(i) +
                             " not installed");
    }
    cacheable = cacheable && agents_[i]->shard_safe() &&
                agents_[i]->cacheable_observations();
  }
  num_owned_active_ = 0;
  for (std::uint32_t i = owned_.begin; i < owned_.end; ++i) {
    if (faulty_[i] == 0) {
      ++num_owned_active_;
      const Context ctx = make_context(i, serial_arena());
      agents_[i]->on_start(ctx);
    }
  }
  if (cacheable) {
    done_.assign(n_, 0);
    obs_valid_.assign(n_, 0);
    phase_cache_.assign(n_, AgentPhase::kUnknown);
    progress_cache_.assign(n_, 0.0);
    done_settled_.assign(n_, 0);
    num_done_ = 0;
    live_list_.clear();
    live_list_.reserve(num_owned_active_);
    for (std::uint32_t i = owned_.begin; i < owned_.end; ++i) {
      done_[i] = agents_[i]->done() ? 1 : 0;
      if (faulty_[i] != 0) continue;
      if (done_[i] != 0) {
        ++num_done_;
        done_settled_[i] = 1;
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

void EngineCore::sequential_activation(AgentId u) {
  ensure_started();
  reset_round_arenas();  // One activation = one message lifetime.
  ++time_;
  metrics_.rounds = time_;
  // Sequential churn epochs tick once per n activations — the step-count
  // analogue of one synchronous round — and delayed pushes land at the
  // start of the first activation at or past their due step.
  if (net_churn_) advance_churn(time_ / n_);
  if (net_msgs_) deliver_held();
  if (agent_done(u)) return;  // A wasted activation.
  if (is_down(u)) return;     // A crashed agent's activation is wasted too.

  Context ctx = make_context(u, serial_arena());
  const Action action = agents_[u]->on_round(ctx);
  note_activation(u);
  if (action.kind != ActionKind::kIdle && action.target >= n_) {
    throw_bad_target(u, action.target);
  }
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
      const Payload reply = serve_step<true>(ctx, action.target, u, metrics_);
      note_activation(action.target);
      agents_[u]->on_pull_reply(aim(ctx, u), action.target, reply);
      note_activation(u);
      return;
    }
    case ActionKind::kPush:
      ++metrics_.active_links;
      push_step<true>(ctx, u, action.target, action.payload, metrics_,
                      NetSinks{&net_delayed_, false});
      note_activation(action.target);
      return;
  }
}

}  // namespace rfc::sim
