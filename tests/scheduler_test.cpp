// Behavioural tests of the pluggable activation policies: the sequential
// model's contracts (previously AsyncEngine's test suite), the two
// scenario-opening schedulers (partial-async, adversarial), and the
// continuous-time Poisson clock.  Policies are selected through
// sim::SchedulerSpec throughout — the same path the run entry points and
// the --scheduler flag use.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/runner.hpp"
#include "gossip/min_aggregation.hpp"
#include "gossip/rumor.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler_spec.hpp"
#include "support/chi_square.hpp"

namespace rfc::sim {
namespace {

Engine sequential_engine(std::uint32_t n, std::uint64_t seed) {
  return Engine({n, seed, nullptr, make_sequential_scheduler()});
}

/// Records its own wake-ups: per-agent count plus the shared global wake
/// order (for determinism-trace assertions).
class CountingAgent final : public Agent {
 public:
  explicit CountingAgent(std::vector<AgentId>* trace = nullptr) noexcept
      : trace_(trace) {}

  std::uint64_t activations() const noexcept { return activations_; }

  Action on_round(const Context& ctx) override {
    ++activations_;
    if (trace_ != nullptr) trace_->push_back(ctx.self);
    return Action::idle();
  }
  Payload serve_pull(const Context&, AgentId) override { return {}; }
  bool done() const override { return false; }

 private:
  std::vector<AgentId>* trace_;
  std::uint64_t activations_ = 0;
};

Engine counting_engine(std::uint32_t n, std::uint64_t seed,
                       const SchedulerSpec& spec,
                       std::vector<AgentId>* trace = nullptr) {
  Engine engine({n, seed, nullptr, spec.make()});
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<CountingAgent>(trace));
  }
  return engine;
}

std::vector<std::uint64_t> wake_counts(const Engine& engine) {
  std::vector<std::uint64_t> counts(engine.n());
  for (AgentId i = 0; i < engine.n(); ++i) {
    counts[i] =
        static_cast<const CountingAgent&>(engine.agent(i)).activations();
  }
  return counts;
}

TEST(SequentialScheduler, RejectsZeroAgents) {
  EXPECT_THROW(Engine({0, 1, nullptr, make_sequential_scheduler()}),
               std::invalid_argument);
}

TEST(SequentialScheduler, MissingAgentThrows) {
  Engine engine = sequential_engine(2, 1);
  engine.set_agent(0, std::make_unique<gossip::RumorAgent>(
                          gossip::Mechanism::kPull, true, 8));
  EXPECT_THROW(engine.step(), std::logic_error);
}

TEST(SequentialScheduler, FaultPlanLockedAfterStart) {
  Engine engine = sequential_engine(2, 1);
  for (AgentId i = 0; i < 2; ++i) {
    engine.set_agent(i, std::make_unique<gossip::RumorAgent>(
                            gossip::Mechanism::kPull, i == 0, 8));
  }
  engine.step();
  EXPECT_THROW(engine.set_faulty(1), std::logic_error);
}

TEST(SequentialScheduler, RumorEventuallyReachesEveryone) {
  gossip::SpreadConfig cfg;
  cfg.n = 128;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 3;
  cfg.scheduler = SchedulerSpec::sequential();
  cfg.max_rounds = 100'000;
  const auto r = gossip::run_rumor_spreading(cfg);
  EXPECT_TRUE(r.complete);
  EXPECT_GT(r.rounds, 128u);  // Needs far more steps than agents.
}

TEST(SequentialScheduler, StepsScaleAsNLogN) {
  // Coupon-collector behaviour: steps/(n ln n) bounded for push-pull.
  for (const std::uint32_t n : {128u, 512u}) {
    gossip::SpreadConfig cfg;
    cfg.n = n;
    cfg.mechanism = gossip::Mechanism::kPushPull;
    cfg.scheduler = SchedulerSpec::sequential();
    cfg.max_rounds = 1'000'000;
    double mean = 0;
    constexpr int kReps = 5;
    for (int i = 0; i < kReps; ++i) {
      cfg.seed = 50 + i;
      const auto r = gossip::run_rumor_spreading(cfg);
      ASSERT_TRUE(r.complete);
      mean += static_cast<double>(r.rounds) / kReps;
    }
    const double normalized = mean / (n * std::log(n));
    EXPECT_GT(normalized, 0.3) << "n=" << n;
    EXPECT_LT(normalized, 6.0) << "n=" << n;
  }
}

TEST(SequentialScheduler, SeedReproducible) {
  gossip::SpreadConfig cfg;
  cfg.n = 96;
  cfg.mechanism = gossip::Mechanism::kPull;
  cfg.seed = 12;
  cfg.scheduler = SchedulerSpec::sequential();
  cfg.max_rounds = 100'000;
  const auto a = gossip::run_rumor_spreading(cfg);
  const auto b = gossip::run_rumor_spreading(cfg);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
}

TEST(SequentialScheduler, FaultyAgentsNeverWake) {
  gossip::SpreadConfig cfg;
  cfg.n = 64;
  cfg.num_faulty = 32;
  cfg.placement = FaultPlacement::kPrefix;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 7;
  cfg.scheduler = SchedulerSpec::sequential();
  cfg.max_rounds = 200'000;
  const auto r = gossip::run_rumor_spreading(cfg);
  EXPECT_TRUE(r.complete);  // Among active agents.
}

TEST(SequentialScheduler, RespectsTopology) {
  gossip::SpreadConfig cfg;
  cfg.n = 64;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 5;
  cfg.topology = make_ring(64, 1);
  cfg.scheduler = SchedulerSpec::sequential();
  cfg.max_rounds = 500'000;
  const auto r = gossip::run_rumor_spreading(cfg);
  EXPECT_TRUE(r.complete);
  // Ring diameter forces ≫ n log n steps.
  EXPECT_GT(r.rounds, 64u * 6);
}

TEST(SequentialScheduler, MetricsAccountMessages) {
  gossip::SpreadConfig cfg;
  cfg.n = 64;
  cfg.mechanism = gossip::Mechanism::kPull;
  cfg.seed = 6;
  cfg.rumor_bits = 99;
  cfg.scheduler = SchedulerSpec::sequential();
  cfg.max_rounds = 100'000;
  const auto r = gossip::run_rumor_spreading(cfg);
  EXPECT_GT(r.metrics.pull_requests, 0u);
  EXPECT_GE(r.metrics.max_message_bits, 99u);
  EXPECT_LE(r.metrics.active_links, r.rounds);
}

TEST(SequentialScheduler, VirtualTimeCountsSteps) {
  gossip::SpreadConfig cfg;
  cfg.n = 48;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 8;
  cfg.scheduler = SchedulerSpec::sequential();
  cfg.max_rounds = 50'000;
  const auto r = gossip::run_rumor_spreading(cfg);
  EXPECT_DOUBLE_EQ(r.virtual_time, static_cast<double>(r.rounds));
  EXPECT_DOUBLE_EQ(r.metrics.virtual_time, r.virtual_time);
}

// --------------------------------------------------------------------------
// PartialAsyncScheduler
// --------------------------------------------------------------------------

TEST(PartialAsyncScheduler, RejectsInvalidProbability) {
  EXPECT_THROW(make_partial_async_scheduler(-0.1), std::invalid_argument);
  EXPECT_THROW(make_partial_async_scheduler(1.5), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::partial_async(1.5).make(),
               std::invalid_argument);
}

TEST(PartialAsyncScheduler, SpreadsUnderPartialWakes) {
  gossip::SpreadConfig cfg;
  cfg.n = 128;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 17;
  cfg.scheduler = SchedulerSpec::partial_async(0.25);
  cfg.check_every = 1;
  cfg.max_rounds = 20'000;
  const auto r = gossip::run_rumor_spreading(cfg);
  EXPECT_TRUE(r.complete);
}

TEST(PartialAsyncScheduler, InterpolatesBetweenModels) {
  // Fewer awake agents per round => more rounds to completion; the sweep
  // must be monotone-ish between full synchrony and sparse wake-ups.
  gossip::SpreadConfig cfg;
  cfg.n = 256;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 23;
  cfg.check_every = 1;
  cfg.max_rounds = 200'000;
  cfg.scheduler = SchedulerSpec::partial_async(1.0);
  const auto dense = gossip::run_rumor_spreading(cfg);
  cfg.scheduler = SchedulerSpec::partial_async(0.05);
  const auto sparse = gossip::run_rumor_spreading(cfg);
  ASSERT_TRUE(dense.complete);
  ASSERT_TRUE(sparse.complete);
  EXPECT_LT(dense.rounds, sparse.rounds);
}

TEST(PartialAsyncScheduler, FullProbabilityMatchesSynchronousRoundCount) {
  // p = 1 wakes everyone every round: completion time must equal the
  // synchronous engine's (the wake draws differ, but every agent acts).
  gossip::SpreadConfig cfg;
  cfg.n = 128;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 29;
  cfg.max_rounds = 10'000;
  const auto sync = gossip::run_rumor_spreading(cfg);
  cfg.scheduler = SchedulerSpec::partial_async(1.0);
  cfg.check_every = 1;
  const auto p1 = gossip::run_rumor_spreading(cfg);
  ASSERT_TRUE(sync.complete);
  ASSERT_TRUE(p1.complete);
  EXPECT_EQ(sync.rounds, p1.rounds);
  EXPECT_EQ(sync.metrics.total_bits, p1.metrics.total_bits);
}

TEST(PartialAsyncScheduler, SeedReproducible) {
  gossip::SpreadConfig cfg;
  cfg.n = 96;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 31;
  cfg.scheduler = SchedulerSpec::partial_async(0.3);
  cfg.check_every = 1;
  cfg.max_rounds = 50'000;
  const auto a = gossip::run_rumor_spreading(cfg);
  const auto b = gossip::run_rumor_spreading(cfg);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
}

// --------------------------------------------------------------------------
// AdversarialScheduler
// --------------------------------------------------------------------------

TEST(AdversarialScheduler, RejectsInvalidFraction) {
  EXPECT_THROW(make_adversarial_scheduler({.victim_fraction = 1.5}),
               std::invalid_argument);
}

TEST(AdversarialScheduler, StarvedVictimsStillLearnByPush) {
  // Victims never wake while any favored agent is unfinished, but passive
  // receptions still reach them: push-pull spreading completes.
  gossip::SpreadConfig cfg;
  cfg.n = 64;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 37;
  cfg.scheduler =
      SchedulerSpec::adversarial({.victim_fraction = 0.25});
  cfg.check_every = 1;
  cfg.max_rounds = 400'000;
  const auto r = gossip::run_rumor_spreading(cfg);
  EXPECT_TRUE(r.complete);
}

TEST(AdversarialScheduler, StarvationBeatsUniformSchedulingForPullOnly) {
  // Pull-only spreading needs the uninformed agent itself to wake; starving
  // a quarter of the network must not be faster than the uniform sequential
  // schedule at informing everyone.
  gossip::SpreadConfig cfg;
  cfg.n = 64;
  cfg.mechanism = gossip::Mechanism::kPull;
  cfg.seed = 41;
  cfg.check_every = 16;
  cfg.max_rounds = 500'000;
  cfg.scheduler = SchedulerSpec::sequential();
  const auto uniform = gossip::run_rumor_spreading(cfg);
  cfg.scheduler =
      SchedulerSpec::adversarial({.victim_fraction = 0.25});
  const auto adversarial = gossip::run_rumor_spreading(cfg);
  ASSERT_TRUE(uniform.complete);
  EXPECT_LT(uniform.rounds, cfg.max_rounds);
  // Victims can only pull once every favored agent is done — and rumor
  // agents never finish, so pull-only spreading cannot complete while any
  // victim exists: the run must exhaust its full step budget.
  EXPECT_FALSE(adversarial.complete);
  EXPECT_EQ(adversarial.rounds, cfg.max_rounds);
}

TEST(AdversarialScheduler, ZeroFractionIsSeededRoundRobin) {
  gossip::SpreadConfig cfg;
  cfg.n = 96;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 43;
  cfg.scheduler = SchedulerSpec::adversarial({.victim_fraction = 0.0});
  cfg.check_every = 8;
  cfg.max_rounds = 200'000;
  const auto a = gossip::run_rumor_spreading(cfg);
  const auto b = gossip::run_rumor_spreading(cfg);
  EXPECT_TRUE(a.complete);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
}

TEST(AdversarialScheduler, DifferentStreamsGiveDifferentOrderings) {
  gossip::SpreadConfig cfg;
  cfg.n = 96;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 47;
  cfg.check_every = 1;
  cfg.max_rounds = 400'000;
  cfg.scheduler = SchedulerSpec::adversarial(
      {.victim_fraction = 0.25, .stream = 0xADF0u});
  const auto a = gossip::run_rumor_spreading(cfg);
  cfg.scheduler = SchedulerSpec::adversarial(
      {.victim_fraction = 0.25, .stream = 0xBEEFu});
  const auto b = gossip::run_rumor_spreading(cfg);
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(b.complete);
  EXPECT_NE(a.metrics.total_bits, b.metrics.total_bits);
}

TEST(AdversarialScheduler, ExplicitVictimIdsAreStarved) {
  // Counting agents never report done(), so the favored pool never drains
  // and the pinned victims must never wake.
  const std::uint32_t n = 16;
  Engine engine = counting_engine(
      n, 51, SchedulerSpec::adversarial({.victim_ids = {3, 7}}));
  engine.run(400);
  const auto counts = wake_counts(engine);
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(counts[7], 0u);
  for (AgentId i = 0; i < n; ++i) {
    if (i == 3 || i == 7) continue;
    EXPECT_GT(counts[i], 0u) << "agent " << i;
  }
}

TEST(AdversarialScheduler, VictimIdsOverrideFraction) {
  // With victim_ids set the fraction is ignored: everyone else wakes even
  // though victim_fraction alone would starve the whole network.
  const std::uint32_t n = 8;
  Engine engine = counting_engine(
      n, 53,
      SchedulerSpec::adversarial(
          {.victim_fraction = 1.0, .victim_ids = {0}}));
  engine.run(160);
  const auto counts = wake_counts(engine);
  EXPECT_EQ(counts[0], 0u);
  for (AgentId i = 1; i < n; ++i) EXPECT_GT(counts[i], 0u);
}

TEST(AdversarialScheduler, VictimIdOutOfRangeIsIgnored) {
  // A victim label beyond n never wakes anyway; the list must keep working
  // across a sweep over n instead of aborting the run.
  const std::uint32_t n = 4;
  Engine engine =
      counting_engine(n, 55, SchedulerSpec::adversarial({.victim_ids = {9}}));
  engine.run(40);
  const auto counts = wake_counts(engine);
  for (AgentId i = 0; i < n; ++i) EXPECT_GT(counts[i], 0u) << "agent " << i;
}

// --------------------------------------------------------------------------
// PoissonClockScheduler
// --------------------------------------------------------------------------

TEST(PoissonClockScheduler, RejectsNonPositiveRate) {
  EXPECT_THROW(make_poisson_clock_scheduler(0.0), std::invalid_argument);
  EXPECT_THROW(make_poisson_clock_scheduler(-1.0), std::invalid_argument);
}

TEST(PoissonClockScheduler, WakeCountsAreUniformChiSquare) {
  // Independent rate-1 clocks wake every agent equally often: the per-agent
  // wake counts of T events must pass a chi-square uniformity test.
  const std::uint32_t n = 24;
  const std::uint64_t events = 400ull * n;
  Engine engine = counting_engine(n, 61, SchedulerSpec::poisson());
  engine.run(events);
  const auto counts = wake_counts(engine);
  const std::vector<double> uniform(n, 1.0);
  const auto gof = rfc::support::chi_square_gof(counts, uniform);
  EXPECT_EQ(gof.dof, n - 1);
  EXPECT_FALSE(gof.rejected(0.001))
      << "statistic=" << gof.statistic << " p=" << gof.p_value;
}

TEST(PoissonClockScheduler, FixedSeedDeterminismTrace) {
  const std::uint32_t n = 12;
  std::vector<AgentId> trace_a, trace_b;
  Engine a = counting_engine(n, 67, SchedulerSpec::poisson(), &trace_a);
  Engine b = counting_engine(n, 67, SchedulerSpec::poisson(), &trace_b);
  a.run(500);
  b.run(500);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(a.virtual_time(), b.virtual_time());
  // And a different seed must give a different wake order.
  std::vector<AgentId> trace_c;
  Engine c = counting_engine(n, 68, SchedulerSpec::poisson(), &trace_c);
  c.run(500);
  EXPECT_NE(trace_a, trace_c);
}

TEST(PoissonClockScheduler, VirtualTimeMatchesAggregateRate) {
  // T events of an aggregate rate-λn process take ~T/(λn) virtual time.
  const std::uint32_t n = 32;
  const std::uint64_t events = 3200;
  Engine one = counting_engine(n, 71, SchedulerSpec::poisson());
  one.run(events);
  const double expected = static_cast<double>(events) / n;
  EXPECT_NEAR(one.virtual_time(), expected, 0.2 * expected);
  // Doubling every clock's rate halves the elapsed virtual time.
  Engine two = counting_engine(n, 71, SchedulerSpec::poisson(2.0));
  two.run(events);
  EXPECT_NEAR(two.virtual_time(), expected / 2, 0.1 * expected);
}

TEST(PoissonClockScheduler, RumorCompletesInLogVirtualTime) {
  // The continuous-time broadcast bound: push-pull completes in Θ(log n)
  // virtual time, even though it needs Θ(n log n) discrete events.
  gossip::SpreadConfig cfg;
  cfg.n = 256;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 73;
  cfg.scheduler = SchedulerSpec::poisson();
  cfg.max_rounds = 1'000'000;
  const auto r = gossip::run_rumor_spreading(cfg);
  ASSERT_TRUE(r.complete);
  EXPECT_GT(r.rounds, 256u);
  const double log_n = std::log(256.0);
  EXPECT_GT(r.virtual_time, 0.5 * log_n);
  EXPECT_LT(r.virtual_time, 12.0 * log_n);
}

TEST(PoissonClockScheduler, FaultyAgentsNeverWake) {
  const std::uint32_t n = 16;
  Engine engine({n, 79, nullptr, SchedulerSpec::poisson().make()});
  engine.set_faulty(2);
  engine.set_faulty(5);
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<CountingAgent>());
  }
  engine.run(600);
  const auto counts = wake_counts(engine);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[5], 0u);
}

TEST(PoissonClockScheduler, CompactsDoneAgentsOutOfTheActiveSet) {
  // The satellite-3 contract pin: an agent that finishes stops absorbing
  // wake draws, so a population of done-after-k agents completes in
  // *exactly* k·n events — the pre-compaction scheduler wasted extra events
  // re-waking done agents w.h.p. before the run loop noticed completion.
  class DoneAfterAgent final : public Agent {
   public:
    explicit DoneAfterAgent(std::uint64_t k) noexcept : k_(k) {}
    Action on_round(const Context&) override {
      ++activations_;
      return Action::idle();
    }
    Payload serve_pull(const Context&, AgentId) override { return {}; }
    bool done() const override { return activations_ >= k_; }

   private:
    std::uint64_t k_;
    std::uint64_t activations_ = 0;
  };
  const std::uint32_t n = 24;
  const std::uint64_t k = 3;
  Engine engine({n, 83, nullptr, SchedulerSpec::poisson().make()});
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<DoneAfterAgent>(k));
  }
  const std::uint64_t events = engine.run(1'000'000);
  EXPECT_TRUE(engine.all_done());
  EXPECT_EQ(events, k * n);
}

TEST(PoissonClockScheduler, CompletionCheckCostsOneDoneCallPerEvent) {
  // The end-phase regime: every agent but the last label is done, so a
  // completion check that scanned labels would call done() on the whole
  // done prefix every event.  With cacheable observations the engine reads
  // done() once per activation and Engine::run's all_done() is O(1) — the
  // property that keeps the Gillespie scan flat in n.
  class CountedDoneAgent final : public Agent {
   public:
    CountedDoneAgent(bool is_done, std::uint64_t* calls) noexcept
        : done_(is_done), calls_(calls) {}
    Action on_round(const Context&) override { return Action::idle(); }
    Payload serve_pull(const Context&, AgentId) override { return {}; }
    bool done() const override {
      ++*calls_;
      return done_;
    }
    bool cacheable_observations() const noexcept override { return true; }

   private:
    bool done_;
    std::uint64_t* calls_;
  };
  const std::uint32_t n = 1u << 14;
  std::uint64_t calls = 0;
  Engine engine({n, 89, nullptr, SchedulerSpec::poisson().make()});
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i, std::make_unique<CountedDoneAgent>(i + 1 < n, &calls));
  }
  const std::uint64_t warmup = 64;
  const std::uint64_t events = 4096;
  ASSERT_EQ(engine.run(Budget::of_events(warmup)), warmup);
  const std::uint64_t before = calls;
  ASSERT_EQ(engine.run(Budget::of_events(warmup + events)), warmup + events);
  EXPECT_LE(calls - before, events);
}

TEST(ActiveSet, BuildSampleSwapRemove) {
  ActiveSet s;
  EXPECT_FALSE(s.built());
  s.build({2, 4, 6, 8});
  EXPECT_TRUE(s.built());
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.at(1), 4u);
  s.swap_remove(1);  // 4 replaced by the tail (8).
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.at(1), 8u);
  s.swap_remove(2);
  s.swap_remove(0);
  s.swap_remove(0);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.built());  // Emptied, not unbuilt.
}

// --------------------------------------------------------------------------
// Protocol P under the spec-driven entry point (acceptance: poisson and
// adversarial runs go end-to-end through core::RunConfig).
// --------------------------------------------------------------------------

core::RunResult run_protocol_under(const std::string& spec_text) {
  core::RunConfig cfg;
  cfg.n = 32;
  cfg.seed = 11;
  cfg.scheduler = SchedulerSpec::parse(spec_text);
  return core::run_protocol(cfg);
}

TEST(SchedulerSpecProtocol, SynchronousStillElectsALeader) {
  const auto r = run_protocol_under("synchronous");
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.num_active, 32u);
}

TEST(SchedulerSpecProtocol, RunsEndToEndUnderPoisson) {
  const auto r = run_protocol_under("poisson");
  // The synchronous phase schedule reads the global clock, so under
  // activation-based policies completeness is expected to break (that is
  // the experiment) — but the run must execute to termination and report.
  EXPECT_EQ(r.num_active, 32u);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_GT(r.metrics.virtual_time, 0.0);
}

TEST(SchedulerSpecProtocol, RunsEndToEndUnderAdversarial) {
  const auto r = run_protocol_under("adversarial:victim_fraction=0.25");
  EXPECT_EQ(r.num_active, 32u);
  EXPECT_GT(r.rounds, 0u);
}

// --------------------------------------------------------------------------
// Facade plumbing
// --------------------------------------------------------------------------

TEST(Scheduler, NamesAreStable) {
  EXPECT_STREQ(make_synchronous_scheduler()->name(), "synchronous");
  EXPECT_STREQ(make_sequential_scheduler()->name(), "sequential");
  EXPECT_STREQ(make_partial_async_scheduler(0.5)->name(), "partial-async");
  EXPECT_STREQ(make_adversarial_scheduler()->name(), "adversarial");
  EXPECT_STREQ(make_poisson_clock_scheduler()->name(), "poisson");
}

TEST(Scheduler, EngineDefaultsToSynchronous) {
  Engine engine({4, 1});
  EXPECT_STREQ(engine.scheduler().name(), "synchronous");
}

TEST(Scheduler, ObserverFiresUnderEveryPolicy) {
  for (const auto& name : SchedulerSpec::registered_policies()) {
    Engine engine({8, 2, nullptr, SchedulerSpec::parse(name).make()});
    for (AgentId i = 0; i < 8; ++i) {
      engine.set_agent(i, std::make_unique<gossip::RumorAgent>(
                              gossip::Mechanism::kPushPull, i == 0, 8));
    }
    int calls = 0;
    engine.set_round_observer([&calls](const Engine&) { ++calls; });
    engine.run(5);
    EXPECT_EQ(calls, 5) << name;
  }
}

TEST(Scheduler, DiscreteSchedulersPinVirtualTimeToEvents) {
  for (const char* name :
       {"synchronous", "sequential", "partial-async", "adversarial"}) {
    Engine engine = counting_engine(8, 3, SchedulerSpec::parse(name));
    engine.run(17);
    EXPECT_DOUBLE_EQ(engine.virtual_time(), 17.0) << name;
  }
}

}  // namespace
}  // namespace rfc::sim
