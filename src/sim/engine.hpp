// The unified GOSSIP simulation engine.
//
// Engine binds the execution substrate (sim/engine_core.hpp — agents,
// faults, RNG streams, delivery, accounting) to a pluggable activation
// policy (sim/scheduler.hpp).  With the default SynchronousScheduler it
// executes the model of Section 2 of the paper: per round, every non-faulty
// agent performs at most one active push or pull; pulls are answered within
// the round from round-start state; any number of passive receptions is
// allowed.  Other schedulers reinterpret step() — one sequential activation
// for SequentialScheduler, one partial round for PartialAsyncScheduler, and
// so on — over the same agents, unchanged.
//
// The engine is single-threaded and fully deterministic given (config,
// agents, fault plan): agent callbacks are invoked in label order and each
// agent draws from its own SplitMix-derived RNG stream, so a master seed
// pins down the entire execution trace under every scheduler.  Monte-Carlo
// parallelism lives one level up (analysis::MonteCarlo) and runs
// independent engines on independent seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/agent.hpp"
#include "sim/budget.hpp"
#include "sim/engine_core.hpp"
#include "sim/engine_view.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"

namespace rfc::sim {

struct EngineConfig {
  EngineConfig() = default;
  EngineConfig(std::uint32_t n_, std::uint64_t seed_ = 1,
               TopologyPtr topology_ = nullptr,
               SchedulerPtr scheduler_ = nullptr,
               NetworkModelPtr network_ = nullptr)
      : n(n_),
        seed(seed_),
        topology(std::move(topology_)),
        scheduler(std::move(scheduler_)),
        network(std::move(network_)) {}

  std::uint32_t n = 0;      ///< Number of nodes.
  std::uint64_t seed = 1;   ///< Master seed; derives every agent stream.
  /// Interconnect; null means the complete graph on [n] (the paper's model).
  TopologyPtr topology;
  /// Activation policy; null means SynchronousScheduler (the paper's model).
  SchedulerPtr scheduler;
  /// Message-layer adversary & churn (sim/network.hpp); null means the
  /// reliable network (bit-identical to an all-zero-rate model).
  NetworkModelPtr network;
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg);

  /// Installs the agent for label `id`.  All labels must be populated before
  /// `run` / `step`.
  void set_agent(AgentId id, std::unique_ptr<Agent> agent) {
    core_.set_agent(id, std::move(agent));
  }

  /// Marks `id` permanently faulty (must be called before the first round).
  void set_faulty(AgentId id, bool faulty = true) {
    core_.set_faulty(id, faulty);
  }

  /// Applies a full fault plan (see sim/fault_model.hpp).
  void apply_fault_plan(const std::vector<bool>& plan) {
    core_.apply_fault_plan(plan);
  }

  bool is_faulty(AgentId id) const { return core_.is_faulty(id); }
  std::uint32_t num_faulty() const noexcept { return core_.num_faulty(); }
  std::uint32_t num_active() const noexcept { return core_.num_active(); }

  /// Executes one scheduling event under the installed scheduler — a
  /// synchronous round, a sequential activation, a partial round, a Poisson
  /// wake-up — and accrues its virtual-time increment.
  void step();

  /// Runs until every non-faulty agent reports done() or `max_time` events
  /// (rounds or steps, per the scheduler) have executed; returns the number
  /// of events executed in total.
  std::uint64_t run(std::uint64_t max_time);

  /// Runs until every non-faulty agent reports done() or the budget is
  /// exhausted (events and/or virtual-time horizon, whichever trips first);
  /// returns the number of events executed in total.  The completion check
  /// is all_done(), O(1) per event off the core's done() counter.
  std::uint64_t run(const Budget& budget);

  /// Runs until virtual_time() reaches `virtual_horizon` (or all agents are
  /// done) — the continuous-time run loop: horizons are expressed in model
  /// time, so the same horizon means the same thing under every scheduler.
  /// No step starts at or past the horizon, so the overshoot is at most one
  /// step increment.  Requires a scheduler with positive time increments
  /// (all shipped policies); returns the number of events executed.
  std::uint64_t run_until(double virtual_horizon) {
    return run(Budget::until(virtual_horizon));
  }

  /// True when every non-faulty agent reports done() (O(1) once started;
  /// see EngineCore::all_done).
  bool all_done() const { return core_.all_done(); }

  Agent& agent(AgentId id) { return core_.agent(id); }
  const Agent& agent(AgentId id) const { return core_.agent(id); }

  std::uint32_t n() const noexcept { return core_.n(); }
  /// Elapsed simulated time.  Under round-based schedulers this counts
  /// rounds; under sequential ones it counts activations.
  std::uint64_t round() const noexcept { return core_.time(); }
  /// Alias of round() for sequential-model call sites.
  std::uint64_t steps() const noexcept { return core_.time(); }
  /// Elapsed virtual time: equals round()/steps() under discrete policies,
  /// the continuous Gillespie clock under PoissonClockScheduler.
  double virtual_time() const noexcept { return core_.virtual_time(); }
  const Metrics& metrics() const noexcept { return core_.metrics(); }

  const Scheduler& scheduler() const noexcept { return *scheduler_; }

  /// The read-only observation window handed to the scheduler each step —
  /// exposed for tests and external adaptive drivers.
  const EngineView& view() const noexcept { return view_; }

  /// Observer invoked after every step (for traces and tests).
  using RoundObserver = std::function<void(const Engine&)>;
  void set_round_observer(RoundObserver obs) { observer_ = std::move(obs); }

  /// Bits charged for a pull *request* (the "send me your X" control
  /// message): one peer label, per the paper's accounting.
  std::uint64_t pull_request_bits() const noexcept {
    return core_.pull_request_bits();
  }

  /// Sets the synchronous round's delivery block size (see
  /// EngineCore::set_block_labels); every size gives the same execution.
  void set_block_labels(std::uint32_t labels) {
    core_.set_block_labels(labels);
  }

 private:
  EngineCore core_;
  EngineView view_;  ///< Read-only window over core_, reused every step.
  SchedulerPtr scheduler_;
  RoundObserver observer_;
};

}  // namespace rfc::sim
