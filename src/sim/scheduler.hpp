// Pluggable activation policies for the unified simulation engine.
//
// A Scheduler owns *when* agents run — activation order and the passage of
// simulated time — while EngineCore (sim/engine_core.hpp) owns *what*
// running means (phased delivery, fault silence, message accounting).  Seven
// policies ship:
//
//   * SynchronousScheduler — the paper's model (Section 2): every active
//     agent performs one operation per lock-step round.  Produces traces
//     bit-identical to the pre-refactor synchronous Engine.
//   * SequentialScheduler — the paper's second open problem: one uniformly
//     random active agent wakes per step.  Reproduces the pre-refactor
//     AsyncEngine step-for-step (same 0xA57C scheduler stream).
//   * PartialAsyncScheduler — each round wakes an independent Bernoulli(p)
//     subset of agents, interpolating between the two models above: p = 1
//     recovers lock-step rounds, p ≈ 1/n approximates sequential wake-ups.
//   * BatchedDeliveryScheduler — each sub-step wakes one *contiguous label
//     block* (a rack / shard) and runs a masked phased round over it,
//     cycling through the B blocks; a full sweep is one round of virtual
//     time.  Models rack-batched delivery and bridges to the sharded
//     executor: each sub-round reuses ShardedRoundExecutor's per-(src,dst)
//     queue merge, so batched traces stay deterministic and thread-scalable.
//   * PhaseAdversarialScheduler — seeded worst-case wake orderings for
//     robustness experiments, *adaptive* via EngineView: a victim subset
//     (seeded fraction, or pinned via victim_ids) is starved — always by
//     default, or only while a victim observes a target pipeline phase
//     (AdversarialConfig::target_phase, e.g. its voting window) — and the
//     spent starvation budget (wake-up denials) is metered into
//     Metrics::denials, optionally capped by AdversarialConfig::budget.
//   * ReactiveAdversarialScheduler — the fully adaptive adversary: the
//     victim set is not fixed at all but re-planned every step from
//     EngineView observations (AdversarialConfig::target — starve the
//     minimal-progress holder, the most-skewed laggard, or the agents at
//     the edge of completing their phase), under the same denial metering
//     and budget cap.
//   * PoissonClockScheduler — the literature's standard continuous-time
//     asynchronous model: every active agent carries an independent rate-λ
//     Poisson clock, so wake-ups are a rate-λ·|active| process (simulated
//     Gillespie-style: exponential inter-event times, uniform wake choice).
//     It is the only continuous-time simulator: O(1) per event, with
//     Engine::run's all_done() check O(1) too (the core counts done()
//     flips as agents run).
//
// The engine↔scheduler contract is split in two: policies *observe* the
// execution through the read-only sim::EngineView handed to step() (clocks,
// per-agent done/faulty/phase, shard geometry) and *execute* through the
// EngineCore primitives.  Time is *virtual*: step() executes one scheduling
// event on the core and returns the simulated-time increment it represents.
// Round- and step-counting policies return 1.0 per event; batched delivery
// returns 1/B per sub-step; the Poisson clock returns Exp(λ·|active|)
// increments, so virtual time advances by ~1/λ per per-agent activation and
// a broadcast's Θ(log n) virtual-time bound can be read off directly.  The
// engine accumulates the increments into Metrics::virtual_time next to the
// discrete event count, and Engine::run_until / sim::Budget express run
// horizons on that axis.
//
// All scheduler randomness derives from the engine's master seed via
// distinct SplitMix streams, so a run stays pinned down by (config, agents,
// fault plan) regardless of policy.  Prefer selecting policies by value
// through sim::SchedulerSpec (sim/scheduler_spec.hpp), which adds a string
// round-trip and the policy table; the factories below are the low-level
// API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/agent.hpp"
#include "sim/sharding.hpp"
#include "support/rng.hpp"

namespace rfc::sim {

class EngineView;  // sim/engine_view.hpp

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Human-readable policy name, for tables and traces.
  virtual const char* name() const noexcept = 0;

  /// Called once by the engine before any step.  The core's master seed is
  /// the only source of randomness a policy may draw from.
  virtual void attach(EngineCore& core);

  /// Executes one scheduling event on the core (a round or an activation,
  /// at the policy's discretion) and returns the simulated-time increment
  /// the event represents.  `view` is the read-only observation window over
  /// the same core — adaptive policies key decisions off it.  Discrete
  /// policies return 1.0; continuous-time policies return a positive real;
  /// a policy that had nothing left to schedule returns 0.0.  Policies must
  /// ensure_started() (directly or via an execution primitive) before
  /// touching agents.
  virtual double step(EngineCore& core, const EngineView& view) = 0;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

/// Incrementally maintained wakeable-label set for the sampling schedulers:
/// built once by EngineCore::active_labels(out), sampled by index, and
/// compacted by swap-remove as agents are discovered done — O(1) per
/// removal, order not preserved.  PoissonClockScheduler draws from this set
/// so completed agents stop absorbing wake draws (and stop contributing to
/// the aggregate clock rate) from the first time they are drawn;
/// SequentialScheduler keeps its initial label list here and never removes.
class ActiveSet {
 public:
  /// Adopts the label set; marks the set built.
  void build(std::vector<AgentId> labels) {
    labels_ = std::move(labels);
    built_ = true;
  }

  /// Clears back to the unbuilt state, keeping the grown capacity — the
  /// scheduler rebind path (Scheduler::attach may see a different core, so
  /// the labels must be refilled, but the allocation is reusable exactly
  /// like the shard routing queues').
  void reset() noexcept {
    labels_.clear();
    built_ = false;
  }

  /// Allocation-free rebuild: expose the storage for refill (e.g. via
  /// EngineCore::active_labels(out&)), then call mark_built().
  std::vector<AgentId>& mutable_labels() noexcept { return labels_; }
  void mark_built() noexcept { built_ = true; }

  bool built() const noexcept { return built_; }
  bool empty() const noexcept { return labels_.empty(); }
  std::size_t size() const noexcept { return labels_.size(); }
  AgentId at(std::size_t k) const { return labels_.at(k); }

  /// Swap-removes the label at index `k`.
  void swap_remove(std::size_t k) {
    labels_.at(k) = labels_.back();
    labels_.pop_back();
  }

  /// The Poisson sampler's lazy swap-remove draw: one rng.below(size())
  /// draw per attempt; a drawn label whose agent reports done() is
  /// swap-removed and the draw repeats (amortized O(1): each label is
  /// removed at most once).  Returns the drawn live label, or kNoAgent once
  /// the set is empty.  The core must be started.
  AgentId draw_live(rfc::support::Xoshiro256& rng, const EngineCore& core);

 private:
  std::vector<AgentId> labels_;
  bool built_ = false;
};

/// The paper's synchronous model: every active agent acts each round.
/// With sharding.shards > 1 the phased round runs over label shards on a
/// thread pool (sim/sharding.hpp), bit-identical to the serial round for
/// every (shards, threads) — S=1 *is* the serial engine, run inline.
class SynchronousScheduler final : public Scheduler {
 public:
  explicit SynchronousScheduler(ShardingConfig sharding = {});

  const char* name() const noexcept override { return "synchronous"; }
  const ShardingConfig& sharding() const noexcept {
    return executor_.config();
  }
  double step(EngineCore& core, const EngineView& view) override;

 private:
  ShardedRoundExecutor executor_;  ///< Runs inline at S=1.
};

/// One uniformly random active agent wakes per step (the sequential GOSSIP
/// model).  Wake-ups are drawn over the *initial* active list for the whole
/// run, so waking a finished agent consumes the step as a wasted activation
/// — exactly the coupon-collector semantics of the sequential analyses, and
/// the pinned trace contract.
class SequentialScheduler final : public Scheduler {
 public:
  /// Stream tag of the wake-up RNG; fixed by the legacy AsyncEngine and
  /// load-bearing for trace compatibility.
  static constexpr std::uint64_t kStream = 0xA57Cu;

  const char* name() const noexcept override { return "sequential"; }
  void attach(EngineCore& core) override;
  double step(EngineCore& core, const EngineView& view) override;

 private:
  rfc::support::Xoshiro256 rng_{0};
  ActiveSet active_;  ///< The initial active list; never pruned.
};

/// Each round wakes an independent Bernoulli(p) subset of the agents and
/// runs a synchronous phased round over that subset.  Accepts the same
/// sharding configuration as SynchronousScheduler (the masked round shards
/// identically).
class PartialAsyncScheduler final : public Scheduler {
 public:
  static constexpr std::uint64_t kStream = 0x9A27u;

  /// `wake_probability` must lie in [0, 1].
  explicit PartialAsyncScheduler(double wake_probability,
                                 ShardingConfig sharding = {});

  const char* name() const noexcept override { return "partial-async"; }
  double wake_probability() const noexcept { return p_; }
  const ShardingConfig& sharding() const noexcept {
    return executor_.config();
  }
  void attach(EngineCore& core) override;
  double step(EngineCore& core, const EngineView& view) override;
  /// Draws the next round's wake mask: one Bernoulli(p) per label of [n],
  /// faulty included, so the wake pattern of agent i is independent of the
  /// fault plan (a cluster node draws all n to stay on the engine's stream).
  const std::vector<bool>& draw_awake(std::uint32_t n);

 private:
  double p_;
  rfc::support::Xoshiro256 rng_{0};
  std::vector<bool> awake_;  ///< Scratch mask reused across rounds.
  ShardedRoundExecutor executor_;  ///< Runs inline at S=1.
};

struct BatchedDeliveryConfig {
  /// Contiguous label blocks the label space is cut into (the racks); one
  /// block wakes per sub-step, in rotation.  Must be positive; values above
  /// n collapse to n.  1 = the synchronous round.
  std::uint32_t blocks = 2;
  /// Sharding of each masked sub-round (sim/sharding.hpp); independent of
  /// the block partition, bit-identical for every (shards, threads).
  ShardingConfig sharding = {};
};

/// Topology-aware batched delivery: sub-step k wakes the agents of
/// contiguous block k mod B (the partition rule shared with the sharded
/// executor, so blocks model racks/shards) and runs a masked phased round
/// over them.  A full rotation activates every agent once, so one sub-step
/// is 1/B of a round of virtual time and budgets in rounds transfer.
class BatchedDeliveryScheduler final : public Scheduler {
 public:
  explicit BatchedDeliveryScheduler(BatchedDeliveryConfig cfg = {});

  const char* name() const noexcept override { return "batched"; }
  const BatchedDeliveryConfig& config() const noexcept { return cfg_; }
  double step(EngineCore& core, const EngineView& view) override;

 private:
  BatchedDeliveryConfig cfg_;
  ShardedRoundExecutor executor_;
  std::vector<bool> awake_;     ///< Scratch mask reused across sub-steps.
  std::uint32_t bound_n_ = 0;
  std::uint32_t blocks_ = 1;    ///< Effective count, <= cfg.blocks.
  std::uint32_t next_block_ = 0;
  std::uint64_t sub_steps_ = 0;  ///< Executed sub-steps; keeps the
                                 ///< accumulated virtual time pinned to
                                 ///< exactly sub_steps_/blocks_.
};

/// Observation-driven targeting rules of the *reactive* adversary
/// (ReactiveAdversarialScheduler): instead of pinning a victim set up
/// front, the policy re-ranks the wakeable agents from EngineView every
/// step (each step is a round of the sequential model) and starves the
/// worst-ranked.  String forms ("min-cert", "laggard", "quorum-edge") are
/// the `adversarial:target=` scheduler parameter.
enum class ReactiveTarget : std::uint8_t {
  kNone = 0,     ///< Not reactive: the static/phase-gated victim set.
  kMinCert,      ///< Starve the minimal Agent::progress() holders — the
                 ///< current weakest certificate/progress owners.
  kLaggard,      ///< Starve the least-recently-woken agents — the maximal
                 ///< local-clock skew, measured from the scheduler's own
                 ///< wake log (self-reinforcing: a starved laggard only
                 ///< falls further behind).
  kQuorumEdge,   ///< Starve the agents closest to completing their current
                 ///< pipeline stage (largest fractional progress) — denial
                 ///< lands exactly where one more wake-up would let them
                 ///< cross a phase boundary.
};

/// Stable names ("min-cert", ...), used by `adversarial:target=`; kNone has
/// no name.
const char* to_string(ReactiveTarget target) noexcept;

/// Inverse of to_string; throws std::invalid_argument on unknown rule names
/// (strict, mirroring the CliArgs/SchedulerSpec parsing contract).
ReactiveTarget parse_reactive_target(const std::string& text);

struct AdversarialConfig {
  /// Fraction of active agents starved (victims are a seeded sample).
  /// Ignored when `victim_ids` is non-empty.  For the reactive adversary
  /// (`target` set) it sizes the starved set instead: the
  /// ceil(fraction·wakeable) worst-ranked agents starve each step.
  double victim_fraction = 0.25;
  /// Explicit victim set; overrides `victim_fraction` when non-empty.
  /// Faulty or out-of-range labels in the set are skipped (they never wake
  /// anyway), so one list works across a sweep over n.  Incompatible with
  /// `target` (a reactive adversary selects victims from observations).
  std::vector<AgentId> victim_ids = {};
  /// Reactive targeting rule; kNone (the default) keeps the victim set
  /// fixed for the whole run (the static / phase-gated adversary).
  ReactiveTarget target = ReactiveTarget::kNone;
  /// Starve victims only while they observe this phase (Agent::phase(),
  /// read through EngineView) — e.g. kVote pins an agent exactly during its
  /// voting window.  kUnknown (the default) starves victims regardless of
  /// phase: the classic static adversary.
  AgentPhase target_phase = AgentPhase::kUnknown;
  /// Cap on wake-up denials — the starvation budget.  0 = unbounded.  Once
  /// spent, victims wake like everyone else; the spent amount is metered
  /// into Metrics::denials either way.
  std::uint64_t budget = 0;
  /// Stream tag mixed into the master seed for the adversary's choices;
  /// vary it to sample different worst-case orderings at a fixed seed.
  std::uint64_t stream = 0xADF0u;
};

/// Seeded worst-case sequential wake orderings, with optional phase-aware
/// targeting.  A seeded permutation of the active labels fixes the
/// round-robin wake order; victims encountered in the walk are passed over
/// (one metered denial each) while they match the starvation predicate —
/// always, for the static adversary, or only while observing
/// `target_phase`, for the adaptive one — and the walk wakes the first
/// non-starved agent; finished agents leave the pool when the walk reaches
/// them.  When every remaining agent is starved the scheduler must still
/// schedule someone: it wakes the round-robin head and charges nothing (an
/// adversary that delays everyone equally delays no one).
/// With an empty victim set this degenerates to a deterministic round-robin
/// over a seeded permutation.
///
/// The walk mechanics (denial metering, budget cap, all-starved rule) are
/// shared with the *reactive* subclass below through two protected hooks:
/// plan_victims() recomputes the victim mask before each walk (a no-op
/// here — this policy plans once), and note_wake() observes the chosen
/// agent (reactive policies log wake clocks off it).
class PhaseAdversarialScheduler : public Scheduler {
 public:
  explicit PhaseAdversarialScheduler(AdversarialConfig cfg = {});

  const char* name() const noexcept override { return "adversarial"; }
  const AdversarialConfig& config() const noexcept { return cfg_; }
  /// Denials spent so far (also accumulated into Metrics::denials).
  std::uint64_t denials_spent() const noexcept { return spent_; }
  void attach(EngineCore& core) override;
  double step(EngineCore& core, const EngineView& view) override;

 protected:
  /// Recomputes victim_ before each round-robin walk.  The base policy
  /// plans once in build_order and leaves the set fixed; reactive policies
  /// override this to re-rank the pool from EngineView every step.
  virtual void plan_victims(EngineCore& core, const EngineView& view);

  /// Called with the agent about to wake, before the activation executes.
  virtual void note_wake(AgentId u);

  AdversarialConfig cfg_;
  rfc::support::Xoshiro256 rng_{0};
  std::vector<AgentId> pool_;  ///< Seeded permutation; done agents removed.
  std::vector<bool> victim_;   ///< Victim membership, by label.

 private:
  void build_order(EngineCore& core);

  /// Per-label id of the last walk that skipped it — dedups denial charges
  /// when a swap-removal rotates a passed victim back in front of the
  /// cursor within one walk.
  std::vector<std::uint64_t> walk_stamp_;
  std::uint64_t walk_id_ = 0;
  std::size_t cursor_ = 0;
  std::uint64_t spent_ = 0;
  bool order_built_ = false;
};

/// The paper's worst-case adversary made concrete: a reactive policy layer
/// over PhaseAdversarialScheduler that re-plans its victim set *every step*
/// (each step is a round of the sequential model) from EngineView
/// observations, instead of pinning victims up front.  The wakeable pool is
/// ranked by the configured ReactiveTarget rule — minimal progress
/// (min-cert), oldest wake clock (laggard), or largest fractional progress
/// (quorum-edge) — and the ceil(victim_fraction·pool) worst-ranked agents
/// starve, under the same phase gate, budget cap, denial metering, and
/// all-starved escape rule as the base policy.  Ties rank by label, so runs
/// stay pinned by the master seed.
class ReactiveAdversarialScheduler final : public PhaseAdversarialScheduler {
 public:
  /// `cfg.target` must be a real rule (not kNone) and `cfg.victim_ids` must
  /// be empty; throws std::invalid_argument otherwise.
  explicit ReactiveAdversarialScheduler(AdversarialConfig cfg);

  const char* name() const noexcept override { return "reactive-adversarial"; }

 protected:
  void plan_victims(EngineCore& core, const EngineView& view) override;
  void note_wake(AgentId u) override;

 private:
  /// One ranking entry: the rule's key (smaller = starved first) plus the
  /// label tie-break that makes the top-k set unique and deterministic.
  struct Ranked {
    double key;
    AgentId id;
  };

  /// Wake log for the laggard rule: monotone wake counter per label, 0 =
  /// never woken.  Self-maintained — clock skew is the scheduler's own
  /// observable, no agent hook needed.
  std::vector<std::uint64_t> last_wake_;
  std::uint64_t wake_counter_ = 0;
  std::vector<Ranked> ranked_;  ///< Scratch: pool re-keyed per step.
  /// Labels whose victim_ bit the last plan set — clearing exactly these
  /// replaces the former O(n) std::fill per step, keeping the per-step cost
  /// O(pool + starved).
  std::vector<AgentId> marked_;
};

/// Continuous-time asynchronous gossip: each active agent wakes at the
/// ticks of an independent rate-`rate` Poisson clock.  Simulated in the
/// Gillespie style — per event, one uniformly random active agent wakes
/// (drawn first) and virtual time advances by Exp(rate·|active|) (drawn
/// second); the draw order is part of the pinned trace contract.  The
/// discrete event count matches the sequential model's step count in
/// distribution of wake choices, so step budgets transfer; only the time
/// axis changes.
///
/// Trace contract (bumped in PR 6): agents that finish after attach() no
/// longer absorb wake draws as no-ops — a drawn agent observed done() is
/// swap-removed from the active set and the draw repeats, so simulated time
/// is never spent waking dead clocks and the aggregate rate λ·|active|
/// shrinks as agents complete.  The compaction is *lazy*: an agent stops
/// contributing to the rate the first time it is drawn after finishing, not
/// the instant it finishes.  Runs over never-done agent populations (the
/// pinned uniformity/determinism suites) draw the exact pre-bump sequence;
/// done-capable workloads see fewer events to completion.
class PoissonClockScheduler final : public Scheduler {
 public:
  static constexpr std::uint64_t kStream = 0x9015u;

  /// `rate` is each agent's clock rate λ; must be positive.
  explicit PoissonClockScheduler(double rate = 1.0);

  const char* name() const noexcept override { return "poisson"; }
  double rate() const noexcept { return rate_; }
  void attach(EngineCore& core) override;
  double step(EngineCore& core, const EngineView& view) override;

 private:
  double rate_;
  rfc::support::Xoshiro256 rng_{0};
  /// Wakeable labels; done agents swap-removed lazily.  attach() resets it
  /// (capacity kept), so a rebind to another core rebuilds allocation-free
  /// instead of sampling the previous core's stale label set.
  ActiveSet active_;
};

SchedulerPtr make_synchronous_scheduler(ShardingConfig sharding = {});
SchedulerPtr make_sequential_scheduler();
SchedulerPtr make_partial_async_scheduler(double wake_probability,
                                          ShardingConfig sharding = {});
SchedulerPtr make_batched_delivery_scheduler(BatchedDeliveryConfig cfg = {});
SchedulerPtr make_adversarial_scheduler(AdversarialConfig cfg = {});
SchedulerPtr make_poisson_clock_scheduler(double rate = 1.0);

}  // namespace rfc::sim
