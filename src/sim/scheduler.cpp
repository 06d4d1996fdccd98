#include "sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/engine_core.hpp"
#include "sim/engine_view.hpp"

namespace rfc::sim {

void Scheduler::attach(EngineCore& /*core*/) {}

AgentId ActiveSet::draw_live(rfc::support::Xoshiro256& rng,
                             const EngineCore& core) {
  while (!labels_.empty()) {
    const std::size_t k = rng.below(labels_.size());
    const AgentId u = labels_[k];
    if (!core.agent_done(u)) return u;
    swap_remove(k);
  }
  return kNoAgent;
}

SynchronousScheduler::SynchronousScheduler(ShardingConfig sharding)
    : executor_(sharding) {}

double SynchronousScheduler::step(EngineCore& core,
                                  const EngineView& /*view*/) {
  executor_.run_round(core, nullptr);
  return 1.0;
}

void SequentialScheduler::attach(EngineCore& core) {
  rng_ = rfc::support::Xoshiro256(
      rfc::support::derive_seed(core.seed(), kStream));
  active_.reset();  // Rebind: refill from the new core, capacity kept.
}

double SequentialScheduler::step(EngineCore& core,
                                 const EngineView& /*view*/) {
  if (!active_.built()) {
    core.active_labels(active_.mutable_labels());
    active_.mark_built();
  }
  // The pinned contract: draws cover the initial active list forever, so a
  // drawn finished agent consumes the step as a wasted activation.
  if (active_.empty()) return 0.0;
  const AgentId u = active_.at(rng_.below(active_.size()));
  core.sequential_activation(u);
  return 1.0;
}

PartialAsyncScheduler::PartialAsyncScheduler(double wake_probability,
                                             ShardingConfig sharding)
    : p_(wake_probability), executor_(sharding) {
  if (!(p_ >= 0.0 && p_ <= 1.0)) {
    throw std::invalid_argument(
        "PartialAsyncScheduler: wake probability must be in [0, 1]");
  }
}

void PartialAsyncScheduler::attach(EngineCore& core) {
  rng_ = rfc::support::Xoshiro256(
      rfc::support::derive_seed(core.seed(), kStream));
}

double PartialAsyncScheduler::step(EngineCore& core,
                                   const EngineView& /*view*/) {
  executor_.run_round(core, &draw_awake(core.n()));
  return 1.0;
}

const std::vector<bool>& PartialAsyncScheduler::draw_awake(std::uint32_t n) {
  if (awake_.size() != n) awake_.assign(n, false);
  for (std::uint32_t i = 0; i < n; ++i) awake_[i] = rng_.bernoulli(p_);
  return awake_;
}

BatchedDeliveryScheduler::BatchedDeliveryScheduler(BatchedDeliveryConfig cfg)
    : cfg_(cfg), executor_(cfg.sharding) {
  if (cfg_.blocks == 0) {
    throw std::invalid_argument(
        "BatchedDeliveryScheduler: blocks must be positive");
  }
}

double BatchedDeliveryScheduler::step(EngineCore& core,
                                      const EngineView& /*view*/) {
  if (bound_n_ != core.n()) {
    bound_n_ = core.n();
    blocks_ = cfg_.blocks < bound_n_ ? cfg_.blocks : bound_n_;
    awake_.assign(bound_n_, false);
    next_block_ = 0;
    sub_steps_ = 0;
  }
  const std::uint32_t lo =
      contiguous_block_begin(bound_n_, blocks_, next_block_);
  const std::uint32_t hi =
      contiguous_block_begin(bound_n_, blocks_, next_block_ + 1);
  for (std::uint32_t i = lo; i < hi; ++i) awake_[i] = true;
  executor_.run_round(core, &awake_);
  for (std::uint32_t i = lo; i < hi; ++i) awake_[i] = false;
  next_block_ = (next_block_ + 1) % blocks_;
  // One full rotation of B sub-steps activates every agent once — a round.
  // Returning the *difference of exact prefix times* k/B instead of a flat
  // 1/B makes the engine's accumulated virtual time equal fl(k/B) at every
  // sub-step k (consecutive prefixes are within Sterbenz range, so the
  // subtraction — and hence the accumulation — is exact): after 2 full
  // rotations of block=3 the clock reads exactly 2.0, so virtual-time
  // horizons hit round boundaries bit-exactly under every block count.
  ++sub_steps_;
  const double before =
      static_cast<double>(sub_steps_ - 1) / static_cast<double>(blocks_);
  const double after =
      static_cast<double>(sub_steps_) / static_cast<double>(blocks_);
  return after - before;
}

const char* to_string(ReactiveTarget target) noexcept {
  switch (target) {
    case ReactiveTarget::kNone: return "";
    case ReactiveTarget::kMinCert: return "min-cert";
    case ReactiveTarget::kLaggard: return "laggard";
    case ReactiveTarget::kQuorumEdge: return "quorum-edge";
  }
  return "";
}

ReactiveTarget parse_reactive_target(const std::string& text) {
  for (const ReactiveTarget t :
       {ReactiveTarget::kMinCert, ReactiveTarget::kLaggard,
        ReactiveTarget::kQuorumEdge}) {
    if (text == to_string(t)) return t;
  }
  throw std::invalid_argument(
      "unknown reactive target rule \"" + text +
      "\" (expected min-cert, laggard, or quorum-edge)");
}

PhaseAdversarialScheduler::PhaseAdversarialScheduler(AdversarialConfig cfg)
    : cfg_(std::move(cfg)) {
  if (!(cfg_.victim_fraction >= 0.0 && cfg_.victim_fraction <= 1.0)) {
    throw std::invalid_argument(
        "PhaseAdversarialScheduler: victim fraction must be in [0, 1]");
  }
}

void PhaseAdversarialScheduler::plan_victims(EngineCore& /*core*/,
                                             const EngineView& /*view*/) {
  // Static/phase adversary: the victim set was fixed by build_order.
}

void PhaseAdversarialScheduler::note_wake(AgentId /*u*/) {}

void PhaseAdversarialScheduler::attach(EngineCore& core) {
  rng_ = rfc::support::Xoshiro256(
      rfc::support::derive_seed(core.seed(), cfg_.stream));
  // Rebind: the pool describes the previous core; rebuild it lazily at the
  // next step.  (attach runs once per Engine bind, never mid-run.)
  order_built_ = false;
  cursor_ = 0;
}

void PhaseAdversarialScheduler::build_order(EngineCore& core) {
  core.active_labels(pool_);
  walk_stamp_.assign(core.n(), 0);
  for (std::size_t i = pool_.size(); i > 1; --i) {
    std::swap(pool_[i - 1], pool_[rng_.below(i)]);
  }
  victim_.assign(core.n(), false);
  if (!cfg_.victim_ids.empty()) {
    // Explicit victim set: pin exactly these labels.  A faulty or
    // out-of-range victim is marked but never walked (it is not in the
    // pool), i.e. it is already maximally delayed — so one victim list
    // works across a sweep over n.
    for (const AgentId id : cfg_.victim_ids) {
      if (id < core.n()) victim_[id] = true;
    }
  } else {
    const auto num_victims = static_cast<std::size_t>(std::ceil(
        cfg_.victim_fraction * static_cast<double>(pool_.size())));
    for (std::size_t i = 0; i < num_victims && i < pool_.size(); ++i) {
      victim_[pool_[i]] = true;
    }
  }
  order_built_ = true;
}

double PhaseAdversarialScheduler::step(EngineCore& core,
                                       const EngineView& view) {
  core.ensure_started();  // Observations below read agent state.
  if (!order_built_) build_order(core);
  plan_victims(core, view);  // Reactive policies re-rank every step.
  // One round-robin walk from the cursor: done agents are swap-removed
  // (amortized O(1) per step), starved victims are passed over with one
  // provisional denial each, and the first non-starved agent wakes.
  // Denials commit only if someone else actually woke instead — a full lap
  // of starved agents wakes the round-robin head free of charge.  A
  // swap-removal can rotate an already-passed victim back in front of the
  // cursor, so skips are deduplicated by a per-walk stamp and the walk
  // length is budgeted by the pool size at entry, not the shrinking size —
  // otherwise a re-inspected victim could double-charge and end the lap
  // before a wakeable agent was ever examined.
  ++walk_id_;
  std::uint64_t provisional = 0;
  std::size_t slots_left = pool_.size();
  AgentId chosen = kNoAgent;
  while (!pool_.empty() && slots_left > 0) {
    if (cursor_ >= pool_.size()) cursor_ = 0;
    const AgentId u = pool_[cursor_];
    if (core.agent_done(u)) {
      // Done for good (the Agent contract has no way back); consumes no
      // walk slot.  Swap-removing at the cursor leaves the moved-in label
      // at the head, so the walk reads it next.
      pool_[cursor_] = pool_.back();
      pool_.pop_back();
      continue;
    }
    const bool within_budget =
        cfg_.budget == 0 || spent_ + provisional < cfg_.budget;
    if (victim_[u] && within_budget &&
        (cfg_.target_phase == AgentPhase::kUnknown ||
         view.phase(u) == cfg_.target_phase)) {
      if (walk_stamp_[u] != walk_id_) {
        walk_stamp_[u] = walk_id_;
        ++provisional;
      }
      ++cursor_;
      --slots_left;
      continue;
    }
    chosen = u;
    ++cursor_;
    break;
  }
  if (pool_.empty()) return 0.0;  // Everyone done; the run loop exits.
  if (chosen == kNoAgent) {
    // Every remaining agent is starved: the adversary must schedule
    // someone, so the round-robin head wakes and nothing is charged (a
    // delay applied to everyone equally is no delay at all).
    if (cursor_ >= pool_.size()) cursor_ = 0;
    chosen = pool_[cursor_];
    ++cursor_;
  } else if (provisional != 0) {
    spent_ += provisional;
    core.note_denials(provisional);
  }
  note_wake(chosen);
  core.sequential_activation(chosen);
  return 1.0;
}

ReactiveAdversarialScheduler::ReactiveAdversarialScheduler(
    AdversarialConfig cfg)
    : PhaseAdversarialScheduler(std::move(cfg)) {
  if (cfg_.target == ReactiveTarget::kNone) {
    throw std::invalid_argument(
        "ReactiveAdversarialScheduler: a targeting rule is required "
        "(min-cert, laggard, or quorum-edge)");
  }
  if (!cfg_.victim_ids.empty()) {
    throw std::invalid_argument(
        "ReactiveAdversarialScheduler: target= selects victims from "
        "observations; drop victims=");
  }
}

void ReactiveAdversarialScheduler::plan_victims(EngineCore& core,
                                                const EngineView& view) {
  if (last_wake_.size() != core.n()) {
    last_wake_.assign(core.n(), 0);
    // First plan after a bind: build_order marked its static prefix; wipe
    // the whole bitmap once, then track our own marks so later plans clear
    // in O(marked) instead of O(n).
    std::fill(victim_.begin(), victim_.end(), false);
    marked_.clear();
  } else {
    for (const AgentId u : marked_) victim_[u] = false;
    marked_.clear();
  }
  // Candidates: the wakeable pool minus agents already done (the walk
  // removes those lazily; wasting victim slots on them would dilute the
  // attack).  Keys are computed once per agent — one progress() observation
  // each — and smaller keys starve first:
  //   min-cert     progress itself (weakest holder first);
  //   laggard      the wake clock — the agent whose local clock lags
  //                virtual time the most; starving it keeps it the
  //                laggard, maximizing clock skew;
  //   quorum-edge  minus the fraction-of-current-stage, so the agents one
  //                wake-up short of a phase boundary rank first.
  ranked_.clear();
  for (const AgentId u : pool_) {
    if (core.agent_done(u)) continue;
    double key = 0.0;
    switch (cfg_.target) {
      case ReactiveTarget::kMinCert:
        key = view.progress(u);
        break;
      case ReactiveTarget::kLaggard:
        key = static_cast<double>(last_wake_[u]);
        break;
      case ReactiveTarget::kQuorumEdge: {
        const double p = view.progress(u);
        key = std::floor(p) - p;  // = -frac(p), in (-1, 0].
        break;
      }
      case ReactiveTarget::kNone:
        return;  // Unreachable: the constructor rejects kNone.
    }
    ranked_.push_back({key, u});
  }
  if (ranked_.empty()) return;
  const auto k = static_cast<std::size_t>(std::ceil(
      cfg_.victim_fraction * static_cast<double>(ranked_.size())));
  if (k == 0) return;
  const std::size_t starved = k < ranked_.size() ? k : ranked_.size();
  // The label tie-break makes the order strict and total, so the starved
  // *set* is unique — a partial selection suffices and the run stays a
  // pure function of the master seed.
  const auto first = [](const Ranked& a, const Ranked& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  };
  if (starved < ranked_.size()) {
    std::nth_element(ranked_.begin(), ranked_.begin() + (starved - 1),
                     ranked_.end(), first);
  }
  for (std::size_t i = 0; i < starved; ++i) {
    victim_[ranked_[i].id] = true;
    marked_.push_back(ranked_[i].id);
  }
}

void ReactiveAdversarialScheduler::note_wake(AgentId u) {
  if (last_wake_.size() <= u) last_wake_.resize(u + 1, 0);
  last_wake_[u] = ++wake_counter_;
}

PoissonClockScheduler::PoissonClockScheduler(double rate) : rate_(rate) {
  if (!(rate_ > 0.0)) {
    throw std::invalid_argument(
        "PoissonClockScheduler: clock rate must be positive");
  }
}

void PoissonClockScheduler::attach(EngineCore& core) {
  rng_ = rfc::support::Xoshiro256(
      rfc::support::derive_seed(core.seed(), kStream));
  active_.reset();  // Rebind: refill from the new core, capacity kept.
}

double PoissonClockScheduler::step(EngineCore& core,
                                   const EngineView& /*view*/) {
  core.ensure_started();  // The done() observations below read agent state.
  if (!active_.built()) {
    core.active_labels(active_.mutable_labels());
    active_.mark_built();
  }
  // Superposition of |active| independent rate-λ clocks: the next tick is
  // uniform over agents and Exp(λ·|active|)-distributed in time.  Agent
  // first, time second — the pinned draw order.  draw_live swap-removes
  // drawn agents observed done(), so dead clocks neither absorb wake-ups
  // nor inflate the aggregate rate below.
  const AgentId u = active_.draw_live(rng_, core);
  if (u == kNoAgent) return 0.0;
  const double aggregate_rate =
      rate_ * static_cast<double>(active_.size());
  // uniform01() ∈ [0, 1), so the argument of log1p stays in (-1, 0].
  const double dt = -std::log1p(-rng_.uniform01()) / aggregate_rate;
  core.sequential_activation(u);
  return dt;
}

SchedulerPtr make_synchronous_scheduler(ShardingConfig sharding) {
  return std::make_unique<SynchronousScheduler>(sharding);
}

SchedulerPtr make_sequential_scheduler() {
  return std::make_unique<SequentialScheduler>();
}

SchedulerPtr make_partial_async_scheduler(double wake_probability,
                                          ShardingConfig sharding) {
  return std::make_unique<PartialAsyncScheduler>(wake_probability, sharding);
}

SchedulerPtr make_batched_delivery_scheduler(BatchedDeliveryConfig cfg) {
  return std::make_unique<BatchedDeliveryScheduler>(cfg);
}

SchedulerPtr make_adversarial_scheduler(AdversarialConfig cfg) {
  if (cfg.target != ReactiveTarget::kNone) {
    return std::make_unique<ReactiveAdversarialScheduler>(std::move(cfg));
  }
  return std::make_unique<PhaseAdversarialScheduler>(std::move(cfg));
}

SchedulerPtr make_poisson_clock_scheduler(double rate) {
  return std::make_unique<PoissonClockScheduler>(rate);
}

}  // namespace rfc::sim
