// SchedulerSpec: string grammar round-trips, the policy table, factory
// validation, and the steps_per_round exchange rate the run entry points
// use to scale budgets across policies.
#include "sim/scheduler_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/network_spec.hpp"

namespace rfc::sim {
namespace {

TEST(SchedulerSpec, DefaultIsSynchronous) {
  const SchedulerSpec spec;
  EXPECT_EQ(spec.policy(), "synchronous");
  EXPECT_TRUE(spec.params().empty());
  EXPECT_EQ(spec.to_string(), "synchronous");
  EXPECT_STREQ(spec.make()->name(), "synchronous");
}

TEST(SchedulerSpec, AllBuiltinPoliciesAreRegistered) {
  const auto names = SchedulerSpec::registered_policies();
  for (const char* expected : {"synchronous", "sequential", "partial-async",
                               "batched", "adversarial", "poisson"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(SchedulerSpec, ParseToStringRoundTripsForEveryRegisteredPolicy) {
  // Bare policy names...
  for (const auto& name : SchedulerSpec::registered_policies()) {
    const auto spec = SchedulerSpec::parse(name);
    EXPECT_EQ(SchedulerSpec::parse(spec.to_string()), spec) << name;
    EXPECT_NE(spec.make(), nullptr) << name;
  }
  // ...and fully parameterized forms of each shipped policy.
  for (const char* text :
       {"synchronous", "sequential", "partial-async:p=0.25",
        "adversarial:victim_fraction=0.125", "adversarial:victims=0+3+7",
        "adversarial:stream=48879,victim_fraction=0.5",
        "adversarial:budget=1500,phase=vote,victims=0+1",
        "adversarial:phase=commit,victim_fraction=0.25",
        "batched:block=8", "batched:block=8,shards=4,threads=2",
        "poisson:rate=2.5"}) {
    const auto spec = SchedulerSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text) << text;
    EXPECT_EQ(SchedulerSpec::parse(spec.to_string()), spec) << text;
    EXPECT_NE(spec.make(), nullptr) << text;
  }
}

TEST(SchedulerSpec, NamedConstructorsRoundTripThroughParse) {
  const std::vector<SchedulerSpec> specs = {
      SchedulerSpec::synchronous(),
      SchedulerSpec::sequential(),
      SchedulerSpec::partial_async(0.25),
      SchedulerSpec::batched(4),
      SchedulerSpec::batched(4, ShardingConfig{8, 2}),
      SchedulerSpec::adversarial({.victim_fraction = 0.375}),
      SchedulerSpec::adversarial({.victim_ids = {1, 4}, .stream = 0xBEEFu}),
      SchedulerSpec::adversarial({.victim_ids = {1, 4},
                                  .target_phase = AgentPhase::kVote,
                                  .budget = 250}),
      SchedulerSpec::poisson(),
      SchedulerSpec::poisson(0.5),
  };
  for (const auto& spec : specs) {
    EXPECT_EQ(SchedulerSpec::parse(spec.to_string()), spec)
        << spec.to_string();
  }
}

TEST(SchedulerSpec, ParsedParametersReachTheScheduler) {
  const auto spec = SchedulerSpec::parse("partial-async:p=0.25");
  const auto scheduler = spec.make();
  const auto* partial =
      dynamic_cast<const PartialAsyncScheduler*>(scheduler.get());
  ASSERT_NE(partial, nullptr);
  EXPECT_DOUBLE_EQ(partial->wake_probability(), 0.25);

  const auto adv = SchedulerSpec::parse(
      "adversarial:victim_fraction=0.5,stream=48879,victims=2+9,"
      "phase=vote,budget=1500");
  const auto adv_scheduler = adv.make();
  const auto* adversarial =
      dynamic_cast<const PhaseAdversarialScheduler*>(adv_scheduler.get());
  ASSERT_NE(adversarial, nullptr);
  EXPECT_DOUBLE_EQ(adversarial->config().victim_fraction, 0.5);
  EXPECT_EQ(adversarial->config().stream, 0xBEEFu);
  EXPECT_EQ(adversarial->config().victim_ids,
            (std::vector<AgentId>{2, 9}));
  EXPECT_EQ(adversarial->config().target_phase, AgentPhase::kVote);
  EXPECT_EQ(adversarial->config().budget, 1500u);

  const auto batched_scheduler =
      SchedulerSpec::parse("batched:block=5").make();
  const auto* batched =
      dynamic_cast<const BatchedDeliveryScheduler*>(batched_scheduler.get());
  ASSERT_NE(batched, nullptr);
  EXPECT_EQ(batched->config().blocks, 5u);

  const auto poisson = SchedulerSpec::parse("poisson:rate=2.5").make();
  const auto* clock =
      dynamic_cast<const PoissonClockScheduler*>(poisson.get());
  ASSERT_NE(clock, nullptr);
  EXPECT_DOUBLE_EQ(clock->rate(), 2.5);
}

TEST(SchedulerSpec, ParseRejectsMalformedText) {
  EXPECT_THROW(SchedulerSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("warp-drive"), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("poisson:"), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("poisson:rate"), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("poisson:=1"), std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("poisson:rate=1,rate=2"),
               std::invalid_argument);
}

TEST(SchedulerSpec, MakeRejectsBadParameters) {
  // Unknown key for the policy.
  EXPECT_THROW(SchedulerSpec::parse("poisson:p=0.5").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("synchronous:p=0.5").make(),
               std::invalid_argument);
  // poisson's schema is {rate}: the deleted queue= key fails loudly for
  // both of its former values.
  EXPECT_THROW(SchedulerSpec::parse("poisson:queue=heap").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("poisson:queue=scan").make(),
               std::invalid_argument);
  // Malformed values (the satellite case: a typo must not silently fall
  // back to a default).
  EXPECT_THROW(SchedulerSpec::parse("partial-async:p=abc").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("adversarial:stream=-3").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("adversarial:victims=1+x").make(),
               std::invalid_argument);
  // Out-of-range values surface the underlying scheduler's validation.
  EXPECT_THROW(SchedulerSpec::parse("partial-async:p=1.5").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("poisson:rate=0").make(),
               std::invalid_argument);
  // The adaptive-adversary and batched parameters validate the same way.
  EXPECT_THROW(SchedulerSpec::parse("adversarial:phase=warp-drive").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("adversarial:phase=unknown").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("adversarial:budget=-1").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("adversarial:budget=soon").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("batched:block=0").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("batched:block=abc").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("batched:p=0.5").make(),
               std::invalid_argument);
  // Activation-based policies still have no sharded round.
  EXPECT_THROW(SchedulerSpec::parse("adversarial:shards=4").make(),
               std::invalid_argument);
  // No policy has a wasted= key: sequential always draws over the initial
  // pool and adversarial always prunes lazily, so every value of the key
  // fails as unknown, on every policy.
  EXPECT_THROW(SchedulerSpec::parse("sequential:wasted=keep").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("sequential:wasted=skip").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("adversarial:wasted=skip").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("sequential:wasted=banana").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("sequential:wasted=").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("adversarial:wasted=true").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("synchronous:wasted=skip").make(),
               std::invalid_argument);
  EXPECT_THROW(SchedulerSpec::parse("poisson:wasted=skip").make(),
               std::invalid_argument);
}

TEST(SchedulerSpec, StepsPerRoundExchangeRate) {
  const std::uint32_t n = 64;
  EXPECT_EQ(SchedulerSpec::synchronous().steps_per_round(n), 1u);
  EXPECT_EQ(SchedulerSpec::sequential().steps_per_round(n), 64u);
  EXPECT_EQ(SchedulerSpec::poisson().steps_per_round(n), 64u);
  EXPECT_EQ(SchedulerSpec::adversarial({}).steps_per_round(n), 64u);
  EXPECT_EQ(SchedulerSpec::partial_async(1.0).steps_per_round(n), 1u);
  EXPECT_EQ(SchedulerSpec::partial_async(0.25).steps_per_round(n), 4u);
  // One batched rotation (B sub-steps) is a round; blocks clamp to n.
  EXPECT_EQ(SchedulerSpec::batched(8).steps_per_round(n), 8u);
  EXPECT_EQ(SchedulerSpec::batched(1).steps_per_round(n), 1u);
  EXPECT_EQ(SchedulerSpec::batched(200).steps_per_round(n), 64u);
}

TEST(SchedulerSpec, ActivationBasedClassifiesEventCost) {
  EXPECT_FALSE(SchedulerSpec::synchronous().activation_based());
  EXPECT_FALSE(SchedulerSpec::partial_async(0.1).activation_based());
  EXPECT_FALSE(SchedulerSpec::batched(4).activation_based());
  EXPECT_TRUE(SchedulerSpec::sequential().activation_based());
  EXPECT_TRUE(SchedulerSpec::adversarial({}).activation_based());
  EXPECT_TRUE(SchedulerSpec::poisson().activation_based());
}

TEST(SchedulerSpec, WhitespaceIsTolerated) {
  const auto spec = SchedulerSpec::parse("partial-async: p = 0.25");
  EXPECT_EQ(spec.to_string(), "partial-async:p=0.25");
}

TEST(SchedulerSpec, DescribeRegistryListsEveryPolicy) {
  const auto text = SchedulerSpec::describe_registry();
  for (const auto& name : SchedulerSpec::registered_policies()) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST(SchedulerSpec, PolicyTableIsSafeToReadConcurrently) {
  // analysis::run_trials workers parse, make() and scale budgets on their
  // own threads; the policy tables (NetworkSpec's too) are read without a
  // lock, so this is the case the TSan job checks.
  const auto names = SchedulerSpec::registered_policies();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kReps = 50;
  std::vector<std::uint64_t> steps(kThreads, 0);
  std::vector<std::uint64_t> made(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t rep = 0; rep < kReps; ++rep) {
        for (const auto& name : names) {
          const auto spec = SchedulerSpec::parse(name);
          made[t] += spec.make() != nullptr;
          steps[t] += spec.steps_per_round(16);
        }
        made[t] += NetworkSpec::parse("network:drop=0.1").make() != nullptr;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::uint64_t serial_steps = 0;
  for (const auto& name : names) {
    serial_steps += SchedulerSpec::parse(name).steps_per_round(16);
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(made[t], kReps * (names.size() + 1)) << t;
    EXPECT_EQ(steps[t], kReps * serial_steps) << t;
  }
}

}  // namespace
}  // namespace rfc::sim
