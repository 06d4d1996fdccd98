// Microbenchmarks of the GOSSIP simulation engine itself: raw round
// throughput with idle, pushing, and pulling agents, plus per-policy
// scheduler dispatch overhead.  These bound how large an n the experiment
// sweeps can afford and baseline future scheduler work.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "gossip/rumor.hpp"
#include "sim/agent.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler_spec.hpp"

namespace {

using rfc::sim::Action;
using rfc::sim::Agent;
using rfc::sim::Context;
using rfc::sim::Engine;

/// An agent that does nothing — measures pure engine dispatch overhead.
class IdleAgent final : public Agent {
 public:
  Action on_round(const Context&) override { return Action::idle(); }
  rfc::sim::Payload serve_pull(const Context&, rfc::sim::AgentId) override {
    return {};
  }
  bool done() const override { return false; }
};

/// An agent that pulls a random peer every round (peer replies nothing).
class PullAgent final : public Agent {
 public:
  Action on_round(const Context& ctx) override {
    return Action::pull(ctx.random_peer());
  }
  rfc::sim::Payload serve_pull(const Context&, rfc::sim::AgentId) override {
    return {};
  }
  bool done() const override { return false; }
};

template <typename AgentT>
void run_rounds(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Engine engine({n, 42});
  for (std::uint32_t i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<AgentT>());
  }
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_EngineIdleRound(benchmark::State& state) {
  run_rounds<IdleAgent>(state);
}
BENCHMARK(BM_EngineIdleRound)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EnginePullRound(benchmark::State& state) {
  run_rounds<PullAgent>(state);
}
BENCHMARK(BM_EnginePullRound)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EngineRumorRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Engine engine({n, 42});
  for (std::uint32_t i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<rfc::gossip::RumorAgent>(
                            rfc::gossip::Mechanism::kPushPull, i == 0, 64));
  }
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// The two large args run several 2^16-label delivery blocks: the
// acceptance bar for the million-agent engine is the
// n=2^20 single-thread ns/agent staying within 1.5x of the seed's n=4096
// figure.
BENCHMARK(BM_EngineRumorRound)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(1 << 17)
    ->Arg(1 << 20);

/// Tail-regime agent for the sparse-round benchmark: a fixed 90% of labels
/// are done() from the start, the rest idle forever.  Opts into cacheable
/// observations (like every shipped protocol agent) so the engine's SoA
/// caches — and with them the incremental live list — are enabled.
class SparseTailAgent final : public Agent {
 public:
  explicit SparseTailAgent(bool is_done) noexcept : done_(is_done) {}
  Action on_round(const Context&) override { return Action::idle(); }
  rfc::sim::Payload serve_pull(const Context&, rfc::sim::AgentId) override {
    return {};
  }
  bool done() const override { return done_; }
  bool cacheable_observations() const noexcept override { return true; }

 private:
  bool done_;
};

// The sparse tail of a long run: 90% of agents already finished.  The
// live-list round costs O(active + messages) instead of the pre-sparse
// engine's O(n) label scan, so the per-*live*-agent time (items/sec counts
// live agents only) must stay flat as n grows 64x — if it climbs with n,
// the dead 90% are being walked again.
void BM_EngineSparseRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Engine engine({n, 42});
  for (std::uint32_t i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<SparseTailAgent>(i % 10 != 0));
  }
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() * ((n + 9) / 10));
}
BENCHMARK(BM_EngineSparseRound)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// The sharded synchronous round (sim/sharding.hpp) on the same push-pull
// rumor workload as BM_EngineRumorRound: args are (n, shards, threads), so
// {n, 1, 1} is the serial engine (one partition, run inline) and the
// speedup of {n, S, T} over it is the sharding win at equal semantics
// (results are bit-identical by construction).  Thread counts beyond the
// machine's cores measure oversubscription, not speedup.
void BM_ShardedRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto shards = static_cast<std::uint32_t>(state.range(1));
  const auto threads = static_cast<std::uint32_t>(state.range(2));
  Engine engine({n, 42, nullptr,
                 rfc::sim::make_synchronous_scheduler({shards, threads})});
  for (std::uint32_t i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<rfc::gossip::RumorAgent>(
                            rfc::gossip::Mechanism::kPushPull, i == 0, 64));
  }
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ShardedRound)
    ->Args({4096, 1, 1})
    ->Args({4096, 4, 2})
    ->Args({4096, 4, 4})
    ->Args({16384, 4, 4})
    ->Args({65536, 8, 4})
    ->Args({1 << 17, 8, 4})
    ->Args({1 << 20, 8, 4});

// Engine setup cost at scale: construction + agent installation + the
// per-agent RNG-stream derivation + one idle round — the fixed cost every
// Monte-Carlo trial pays before its first event.  Args are (n, shards,
// threads): {n, 1, 1} derives all n streams serially inside
// ensure_started; sharded configs prefetch each shard's RNG block on its
// own worker (sim/sharding.hpp), moving the O(n) SplitMix expansion off
// the serial path.
void BM_EngineSetup(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto shards = static_cast<std::uint32_t>(state.range(1));
  const auto threads = static_cast<std::uint32_t>(state.range(2));
  for (auto _ : state) {
    Engine engine({n, 42, nullptr,
                   rfc::sim::make_synchronous_scheduler({shards, threads})});
    for (std::uint32_t i = 0; i < n; ++i) {
      engine.set_agent(i, std::make_unique<IdleAgent>());
    }
    engine.step();
    benchmark::DoNotOptimize(engine.round());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineSetup)
    ->Args({65536, 1, 1})
    ->Args({65536, 8, 4})
    ->Args({262144, 8, 4});

// Scheduler dispatch overhead: one engine.step() of idle agents under each
// registered policy, at fixed n.  Round-based policies pay O(n) per step
// (one phased round), activation-based ones O(1) (one wake-up), so
// items/sec is per *event*, not per agent — compare within a policy across
// future scheduler changes, not across policies.  This is the baseline
// number follow-on scheduler work (phase-aware adversary, batched
// delivery, sharded EngineCore) must not regress.
void BM_SchedulerDispatch(benchmark::State& state,
                          const std::string& spec_text) {
  const std::uint32_t n = 1024;
  const auto spec = rfc::sim::SchedulerSpec::parse(spec_text);
  Engine engine({n, 42, nullptr, spec.make()});
  for (std::uint32_t i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<IdleAgent>());
  }
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SchedulerDispatch, synchronous, "synchronous");
BENCHMARK_CAPTURE(BM_SchedulerDispatch, sequential, "sequential");
BENCHMARK_CAPTURE(BM_SchedulerDispatch, partial_async, "partial-async:p=0.5");
BENCHMARK_CAPTURE(BM_SchedulerDispatch, batched, "batched:block=8");
BENCHMARK_CAPTURE(BM_SchedulerDispatch, adversarial,
                  "adversarial:victim_fraction=0.25");
BENCHMARK_CAPTURE(BM_SchedulerDispatch, adversarial_phase,
                  "adversarial:victim_fraction=0.25,phase=vote");
BENCHMARK_CAPTURE(BM_SchedulerDispatch, poisson, "poisson");
BENCHMARK_CAPTURE(BM_SchedulerDispatch, poisson_heap, "poisson:queue=heap");

/// An agent that is done() from the start — engine-level dead weight.
class DoneAgent final : public Agent {
 public:
  Action on_round(const Context&) override { return Action::idle(); }
  rfc::sim::Payload serve_pull(const Context&, rfc::sim::AgentId) override {
    return {};
  }
  bool done() const override { return true; }
};

// Per-event cost of the continuous-time path in the end-phase regime that
// separates the two queue substrates: all agents but one are done, and the
// survivor sits at the *last* label so the run loop's short-circuiting
// all_done() scan walks the full done prefix.  The Gillespie scan path pays
// that O(n) scan per event (its own sampling is O(1) once the active set
// compacts); the heap path replaces it with the scheduler's O(1)
// exhausted() check and schedules only live agents, so its per-event cost
// stays flat as n grows.  Events run through Engine::run in small batches —
// the loop whose predicate is the cost being measured.  items/sec is per
// event; compare the scan-vs-heap trend across ->Arg(n), not absolute
// numbers.
void BM_SchedulerStep(benchmark::State& state, const std::string& spec_text) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto spec = rfc::sim::SchedulerSpec::parse(spec_text);
  Engine engine({n, 42, nullptr, spec.make()});
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    engine.set_agent(i, std::make_unique<DoneAgent>());
  }
  engine.set_agent(n - 1, std::make_unique<IdleAgent>());
  constexpr std::uint64_t kBatch = 16;
  std::uint64_t target = 0;
  for (auto _ : state) {
    target += kBatch;
    engine.run(rfc::sim::Budget::of_events(target));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK_CAPTURE(BM_SchedulerStep, poisson_scan, "poisson")
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17);
BENCHMARK_CAPTURE(BM_SchedulerStep, poisson_heap, "poisson:queue=heap")
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

}  // namespace
