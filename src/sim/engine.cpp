#include "sim/engine.hpp"

namespace rfc::sim {

Engine::Engine(EngineConfig cfg)
    : core_(cfg.n, cfg.seed, std::move(cfg.topology)),
      view_(core_),
      scheduler_(cfg.scheduler != nullptr ? std::move(cfg.scheduler)
                                          : make_synchronous_scheduler()) {
  if (cfg.network != nullptr) core_.set_network(std::move(cfg.network));
  scheduler_->attach(core_);
}

void Engine::step() {
  // Start-up (agent checks, RNG derivation, on_start) is the scheduler's
  // responsibility via the execution primitives: the sharded executor
  // prefetches RNG blocks in parallel *before* the agents start, which an
  // eager ensure_started here would defeat.
  const std::uint64_t before = core_.time();
  core_.advance_virtual_time(scheduler_->step(core_, view_));
  // The observer sees *events*: a step on which the scheduler had nothing
  // left to schedule (no execution primitive ran, so the event clock did
  // not move) is not one, and reporting it would break the events ==
  // trace-length contract of the run loops.
  if (observer_ && core_.time() != before) observer_(*this);
}

std::uint64_t Engine::run(std::uint64_t max_time) {
  // run(0) means "no events", not Budget's "no event cap".
  if (max_time == 0) return core_.time();
  return run(Budget::of_events(max_time));
}

std::uint64_t Engine::run(const Budget& budget) {
  while (!budget.exhausted(core_.time(), core_.virtual_time()) &&
         !all_done()) {
    step();
  }
  return core_.time();
}

}  // namespace rfc::sim
