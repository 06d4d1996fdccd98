// Microbenchmarks of the GOSSIP simulation engine itself: push-pull round
// throughput (dense, sparse-tail and sharded), engine setup, and per-policy
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

}  // namespace
