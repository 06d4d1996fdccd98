// SchedulerSpec: string grammar round-trips, registry behaviour, factory
// validation, and the steps_per_round exchange rate the run entry points
// use to scale budgets across policies.
#include "sim/scheduler_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

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
        "sequential:wasted=keep", "sequential:wasted=skip",
        "adversarial:victim_fraction=0.25,wasted=skip",
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
      SchedulerSpec::adversarial({.victim_fraction = 0.25,
                                  .skip_wasted = true}),
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

  // The wasted= knob: keep and the bare spec are the default, skip flips it.
  for (const char* text : {"sequential", "sequential:wasted=keep"}) {
    const auto seq = SchedulerSpec::parse(text).make();
    const auto* sequential =
        dynamic_cast<const SequentialScheduler*>(seq.get());
    ASSERT_NE(sequential, nullptr) << text;
    EXPECT_FALSE(sequential->skip_wasted()) << text;
  }
  const auto seq_skip = SchedulerSpec::parse("sequential:wasted=skip").make();
  const auto* seq_skip_sched =
      dynamic_cast<const SequentialScheduler*>(seq_skip.get());
  ASSERT_NE(seq_skip_sched, nullptr);
  EXPECT_TRUE(seq_skip_sched->skip_wasted());
  const auto adv_skip =
      SchedulerSpec::parse("adversarial:victims=3,wasted=skip").make();
  const auto* adv_skip_sched =
      dynamic_cast<const PhaseAdversarialScheduler*>(adv_skip.get());
  ASSERT_NE(adv_skip_sched, nullptr);
  EXPECT_TRUE(adv_skip_sched->config().skip_wasted);
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
  // The wasted= knob accepts exactly keep|skip, on exactly the sampling
  // policies that own a wakeable pool.
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

TEST(SchedulerSpec, RegistryIsOpenForExtension) {
  // An out-of-tree policy becomes parseable, buildable, and listed without
  // touching any run entry point.
  SchedulerSpec::register_policy(
      "test-roundrobin",
      {[](const SchedulerSpec&) { return make_adversarial_scheduler(
           {.victim_fraction = 0.0}); },
       [](std::uint32_t n, const SchedulerSpec&) -> std::uint64_t {
         return n;
       },
       {},
       "deterministic seeded round-robin (test-only)"});
  const auto spec = SchedulerSpec::parse("test-roundrobin");
  EXPECT_EQ(spec.steps_per_round(8), 8u);
  EXPECT_STREQ(spec.make()->name(), "adversarial");
  const auto names = SchedulerSpec::registered_policies();
  EXPECT_NE(std::find(names.begin(), names.end(), "test-roundrobin"),
            names.end());
  EXPECT_THROW(SchedulerSpec::register_policy("bad:name", {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rfc::sim
