// Byte-identical equivalence of the sharded synchronous round with the
// serial engine, for every tested (shards, threads) combination.
//
// The sharded EngineCore path (sim/sharding.hpp) promises bit-identical
// metrics and agent state for ANY shard count and ANY thread count —
// including shards that do not divide n, shards exceeding n, and more
// threads than cores.  These tests pin that promise over the two workloads
// the acceptance bar names: epidemic rumor spreading and Protocol P, each
// compared field-by-field against the unsharded engine (S ∈ {1, 2, 7, 64}
// × threads ∈ {1, 4}), plus the masked round of PartialAsyncScheduler,
// multi-block routing (several units per shard, shard boundaries cutting
// blocks) under the reliable and a fully adversarial network, and a
// property test of the label->shard helper the routing uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "end_state_digest.hpp"
#include "gossip/rumor.hpp"
#include "order_trace_agent.hpp"
#include "rational/strategies.hpp"
#include "sim/engine.hpp"
#include "sim/engine_core.hpp"
#include "sim/fault_model.hpp"
#include "sim/network_spec.hpp"
#include "sim/scheduler_spec.hpp"
#include "sim/sharding.hpp"

namespace rfc::sim {
namespace {

struct ShardCase {
  std::uint32_t shards;
  std::uint32_t threads;
};

const std::vector<ShardCase>& shard_cases() {
  // 2 divides the test sizes, 7 does not, 64 equals/exceeds some of them;
  // 4 threads oversubscribe a small CI box on purpose — scheduling order
  // must not matter.
  static const std::vector<ShardCase> kCases = {
      {1, 1}, {1, 4}, {2, 1}, {2, 4}, {7, 1}, {7, 4}, {64, 1}, {64, 4}};
  return kCases;
}

std::string case_name(const ShardCase& c) {
  return "shards=" + std::to_string(c.shards) +
         ",threads=" + std::to_string(c.threads);
}

SchedulerSpec sharded_spec(const ShardCase& c) {
  return SchedulerSpec::parse("synchronous:" + case_name(c));
}

void expect_metrics_identical(const Metrics& a, const Metrics& b,
                              const std::string& label) {
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.virtual_time, b.virtual_time) << label;
  EXPECT_EQ(a.pushes, b.pushes) << label;
  EXPECT_EQ(a.pull_requests, b.pull_requests) << label;
  EXPECT_EQ(a.pull_replies, b.pull_replies) << label;
  EXPECT_EQ(a.total_bits, b.total_bits) << label;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << label;
  EXPECT_EQ(a.active_links, b.active_links) << label;
  EXPECT_EQ(a.denials, b.denials) << label;
}

// --------------------------------------------------------------------------
// Rumor spreading: full run via the public entry point, plus a
// direct engine drive comparing per-agent final state.
// --------------------------------------------------------------------------

gossip::SpreadResult run_spread(const SchedulerSpec& spec) {
  gossip::SpreadConfig cfg;
  cfg.n = 96;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 20260726;
  cfg.num_faulty = 24;
  cfg.placement = FaultPlacement::kRandom;
  cfg.scheduler = spec;
  return gossip::run_rumor_spreading(cfg);
}

TEST(ShardedEquivalence, RumorSpreadingIdenticalAcrossShardsAndThreads) {
  const gossip::SpreadResult base = run_spread(SchedulerSpec::synchronous());
  ASSERT_TRUE(base.complete);
  for (const ShardCase& c : shard_cases()) {
    const gossip::SpreadResult sharded = run_spread(sharded_spec(c));
    EXPECT_EQ(base.complete, sharded.complete) << case_name(c);
    EXPECT_EQ(base.rounds, sharded.rounds) << case_name(c);
    EXPECT_EQ(base.virtual_time, sharded.virtual_time) << case_name(c);
    expect_metrics_identical(base.metrics, sharded.metrics, case_name(c));
  }
}

TEST(ShardedEquivalence, RumorAgentStateIdenticalMidRun) {
  // Drive engines a fixed number of rounds (mid-spread, where per-round
  // deliveries are dense) and compare every agent's informed flag plus the
  // metric trace after every round.
  const std::uint32_t n = 96;
  const std::uint64_t kRounds = 8;
  const auto build = [n](SchedulerPtr scheduler) {
    auto engine =
        std::make_unique<Engine>(EngineConfig{n, 77, nullptr,
                                              std::move(scheduler)});
    for (std::uint32_t i = 0; i < n; ++i) {
      engine->set_agent(i, std::make_unique<gossip::RumorAgent>(
                               gossip::Mechanism::kPushPull, i == 0, 64));
    }
    return engine;
  };
  const auto base = build(make_synchronous_scheduler());
  for (const ShardCase& c : shard_cases()) {
    const auto sharded = build(sharded_spec(c).make());
    for (std::uint64_t r = 0; r < kRounds; ++r) sharded->step();
    while (base->round() < sharded->round()) base->step();
    expect_metrics_identical(base->metrics(), sharded->metrics(),
                             case_name(c));
    for (std::uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(
          static_cast<const gossip::RumorAgent&>(base->agent(i)).informed(),
          static_cast<const gossip::RumorAgent&>(sharded->agent(i))
              .informed())
          << case_name(c) << " agent " << i;
    }
  }
}

// --------------------------------------------------------------------------
// Protocol P: full consensus runs through core::run_protocol, comparing the
// outcome, the good-execution events, and per-agent decisions.
// --------------------------------------------------------------------------

core::RunResult run_p(const SchedulerSpec& spec, std::uint32_t num_faulty) {
  core::RunConfig cfg;
  cfg.n = 48;
  cfg.gamma = 3.0;
  cfg.seed = 987654321;
  cfg.num_faulty = num_faulty;
  cfg.placement =
      num_faulty > 0 ? FaultPlacement::kRandom : FaultPlacement::kNone;
  cfg.scheduler = spec;
  return core::run_protocol(cfg);
}

void expect_run_identical(const core::RunResult& a, const core::RunResult& b,
                          const std::string& label) {
  EXPECT_EQ(a.winner, b.winner) << label;
  EXPECT_EQ(a.winner_agent, b.winner_agent) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.num_active, b.num_active) << label;
  EXPECT_EQ(a.honest_failures, b.honest_failures) << label;
  EXPECT_EQ(a.max_local_memory_bits, b.max_local_memory_bits) << label;
  expect_metrics_identical(a.metrics, b.metrics, label);
  EXPECT_EQ(a.events.min_votes, b.events.min_votes) << label;
  EXPECT_EQ(a.events.max_votes, b.events.max_votes) << label;
  EXPECT_EQ(a.events.k_values_distinct, b.events.k_values_distinct) << label;
  EXPECT_EQ(a.events.find_min_agreement, b.events.find_min_agreement)
      << label;
  EXPECT_EQ(a.events.every_agent_audited, b.events.every_agent_audited)
      << label;
  EXPECT_EQ(a.events.every_agent_cleanly_voted,
            b.events.every_agent_cleanly_voted)
      << label;
  EXPECT_EQ(a.active_colors, b.active_colors) << label;
}

TEST(ShardedEquivalence, ProtocolPIdenticalAcrossShardsAndThreads) {
  const core::RunResult base = run_p(SchedulerSpec::synchronous(), 0);
  EXPECT_NE(base.winner, core::kNoColor);
  for (const ShardCase& c : shard_cases()) {
    expect_run_identical(base, run_p(sharded_spec(c), 0), case_name(c));
  }
}

TEST(ShardedEquivalence, ProtocolPWithFaultsIdentical) {
  const core::RunResult base = run_p(SchedulerSpec::synchronous(), 12);
  for (const ShardCase& c : shard_cases()) {
    expect_run_identical(base, run_p(sharded_spec(c), 12), case_name(c));
  }
}

// --------------------------------------------------------------------------
// The masked round (PartialAsyncScheduler) shards identically too.
// --------------------------------------------------------------------------

TEST(ShardedEquivalence, PartialAsyncMaskedRoundIdentical) {
  const auto run = [](const std::string& spec_text) {
    gossip::SpreadConfig cfg;
    cfg.n = 80;
    cfg.mechanism = gossip::Mechanism::kPushPull;
    cfg.seed = 4242;
    cfg.scheduler = SchedulerSpec::parse(spec_text);
    return gossip::run_rumor_spreading(cfg);
  };
  const gossip::SpreadResult base = run("partial-async:p=0.4");
  for (const ShardCase& c : shard_cases()) {
    const gossip::SpreadResult sharded =
        run("partial-async:p=0.4," + case_name(c));
    EXPECT_EQ(base.complete, sharded.complete) << case_name(c);
    EXPECT_EQ(base.rounds, sharded.rounds) << case_name(c);
    expect_metrics_identical(base.metrics, sharded.metrics, case_name(c));
  }
}

// --------------------------------------------------------------------------
// Batched delivery: the masked sub-round must shard identically too, so
// batched:block=B traces are pinned for every (shards, threads).
// --------------------------------------------------------------------------

TEST(ShardedEquivalence, BatchedDeliveryIdenticalAcrossShardsAndThreads) {
  const gossip::SpreadResult base =
      run_spread(SchedulerSpec::parse("batched:block=3"));
  ASSERT_TRUE(base.complete);
  for (const ShardCase& c : shard_cases()) {
    const gossip::SpreadResult sharded =
        run_spread(SchedulerSpec::parse("batched:block=3," + case_name(c)));
    EXPECT_EQ(base.complete, sharded.complete) << case_name(c);
    EXPECT_EQ(base.rounds, sharded.rounds) << case_name(c);
    EXPECT_EQ(base.virtual_time, sharded.virtual_time) << case_name(c);
    expect_metrics_identical(base.metrics, sharded.metrics, case_name(c));
  }
}

TEST(ShardedEquivalence, ProtocolPBatchedIdenticalAcrossShardsAndThreads) {
  // Protocol P under batched delivery usually fails (its phase schedule
  // reads the global clock, which now ticks B× per agent wake) — the
  // equivalence claim is about traces, not protocol success.
  const core::RunResult base =
      run_p(SchedulerSpec::parse("batched:block=3"), 0);
  for (const ShardCase& c : shard_cases()) {
    expect_run_identical(
        base, run_p(SchedulerSpec::parse("batched:block=3," + case_name(c)), 0),
        case_name(c));
  }
}

TEST(ShardedEquivalence, BatchedRotationMatchesSynchronousAtOneBlock) {
  // block=1 wakes everyone each sub-step: exactly the synchronous engine.
  const gossip::SpreadResult sync = run_spread(SchedulerSpec::synchronous());
  const gossip::SpreadResult one =
      run_spread(SchedulerSpec::parse("batched:block=1"));
  EXPECT_EQ(sync.rounds, one.rounds);
  expect_metrics_identical(sync.metrics, one.metrics, "batched:block=1");
}

// --------------------------------------------------------------------------
// Shard-safety: agents sharing a coalition blackboard must be rejected at
// executor setup instead of racing (regression for the fail-fast path).
// --------------------------------------------------------------------------

TEST(ShardedEquivalence, CoalitionAgentsRejectedByShardedExecutor) {
  const std::uint32_t n = 8;
  const auto params = core::ProtocolParams::make(n, 3.0);
  const auto coalition = rational::make_prefix_coalition(2);
  const auto build = [&](SchedulerPtr scheduler) {
    auto engine = std::make_unique<Engine>(
        EngineConfig{n, 99, nullptr, std::move(scheduler)});
    for (std::uint32_t i = 0; i < n; ++i) {
      if (coalition->contains(i)) {
        engine->set_agent(i, std::make_unique<rational::SelfishVotingAgent>(
                                 params, static_cast<core::Color>(i),
                                 coalition));
      } else {
        engine->set_agent(i, std::make_unique<core::ProtocolAgent>(
                                 params, static_cast<core::Color>(i)));
      }
    }
    return engine;
  };
  // The sharded round refuses at setup...
  EXPECT_THROW(
      build(SchedulerSpec::parse("synchronous:shards=2").make())->step(),
      std::invalid_argument);
  // ...including through batched delivery's sharded sub-round...
  EXPECT_THROW(
      build(SchedulerSpec::parse("batched:block=2,shards=2").make())->step(),
      std::invalid_argument);
  // ...while the serial round runs the same agents fine.
  EXPECT_NO_THROW(build(SchedulerSpec::synchronous().make())->step());
  EXPECT_NO_THROW(
      build(SchedulerSpec::parse("batched:block=2").make())->step());
}

TEST(ShardedEquivalence, RunProtocolRejectsCoalitionWithShards) {
  core::RunConfig cfg;
  cfg.n = 16;
  cfg.gamma = 3.0;
  cfg.seed = 5;
  cfg.coalition = {0, 1};
  cfg.factory = rational::make_deviating_factory(
      rational::DeviationStrategy::kSelfishVoting,
      rational::make_prefix_coalition(2));
  cfg.scheduler = SchedulerSpec::parse("synchronous:shards=2");
  EXPECT_THROW(core::run_protocol(cfg), std::invalid_argument);
  cfg.scheduler = SchedulerSpec::synchronous();
  EXPECT_NO_THROW(core::run_protocol(cfg));
}

// --------------------------------------------------------------------------
// Pinned pre-refactor digests: the constants below were captured from the
// engine BEFORE the SoA/arena/blocked-delivery refactor (PR 7 tree).  They
// freeze the full observable trace — outcome, every Metrics field, and the
// per-agent end state — at n ∈ {64, 4096}, serial AND sharded.  If any of
// these change, the engine is no longer bit-identical to the pre-refactor
// one: fix the engine, never the constants.
// --------------------------------------------------------------------------

gossip::SpreadConfig pinned_spread_config(std::uint32_t n,
                                          const SchedulerSpec& spec) {
  gossip::SpreadConfig cfg;
  cfg.n = n;
  cfg.mechanism = gossip::Mechanism::kPushPull;
  cfg.seed = 20260726;
  cfg.num_faulty = n / 4;
  cfg.placement = FaultPlacement::kRandom;
  cfg.scheduler = spec;
  return cfg;
}

core::RunConfig pinned_protocol_config(std::uint32_t n,
                                       const SchedulerSpec& spec) {
  core::RunConfig cfg;
  cfg.n = n;
  cfg.gamma = 3.0;
  cfg.seed = 987654321;
  cfg.num_faulty = n / 8;
  cfg.placement = FaultPlacement::kRandom;
  cfg.scheduler = spec;
  return cfg;
}

constexpr std::uint64_t kPinnedRumorDigest64 = 2641881396828198800ull;
constexpr std::uint64_t kPinnedRumorDigest4096 = 16758659222488018666ull;
constexpr std::uint64_t kPinnedProtocolDigest64 = 4567136017251614761ull;
constexpr std::uint64_t kPinnedProtocolDigest4096 = 6452961838860156847ull;

TEST(ShardedEquivalence, PinnedRumorDigests) {
  for (std::uint32_t n : {64u, 4096u}) {
    const std::uint64_t expected =
        n == 64 ? kPinnedRumorDigest64 : kPinnedRumorDigest4096;
    EXPECT_EQ(expected, rfc::testing::rumor_end_state_digest(
                            pinned_spread_config(n, SchedulerSpec::synchronous())))
        << "serial n=" << n;
    for (const ShardCase& c : shard_cases()) {
      EXPECT_EQ(expected, rfc::testing::rumor_end_state_digest(
                              pinned_spread_config(n, sharded_spec(c))))
          << "n=" << n << " " << case_name(c);
    }
  }
}

TEST(ShardedEquivalence, PinnedProtocolDigests) {
  EXPECT_EQ(kPinnedProtocolDigest64,
            rfc::testing::protocol_end_state_digest(
                pinned_protocol_config(64, SchedulerSpec::synchronous())))
      << "serial n=64";
  for (const ShardCase& c : shard_cases()) {
    EXPECT_EQ(kPinnedProtocolDigest64,
              rfc::testing::protocol_end_state_digest(
                  pinned_protocol_config(64, sharded_spec(c))))
        << "n=64 " << case_name(c);
  }
  // n=4096 runs in ~0.6 s apiece: serial plus one non-dividing sharded case.
  EXPECT_EQ(kPinnedProtocolDigest4096,
            rfc::testing::protocol_end_state_digest(
                pinned_protocol_config(4096, SchedulerSpec::synchronous())))
      << "serial n=4096";
  EXPECT_EQ(kPinnedProtocolDigest4096,
            rfc::testing::protocol_end_state_digest(
                pinned_protocol_config(4096, sharded_spec({7, 4}))))
      << "n=4096 shards=7,threads=4";
}

TEST(ShardedEquivalence, PinnedDigestsUnderForcedBlockedDelivery) {
  // Delivery blocks hold 2^16 labels, so these sizes normally run as one
  // block; force many at tiny n with several block sizes (1 label per
  // block is the degenerate extreme, 8 cuts n=64 into 8 blocks, 4096 makes
  // a single block).  Every combination must reproduce the serial
  // constants exactly — the blocked round is bit-identical by
  // construction, and this is the test that keeps it honest.
  for (const std::uint32_t block_labels : {1u, 8u, 4096u}) {
    const auto force = [block_labels](Engine& engine) {
      engine.set_block_labels(block_labels);
    };
    EXPECT_EQ(kPinnedRumorDigest64,
              rfc::testing::rumor_end_state_digest(
                  pinned_spread_config(64, SchedulerSpec::synchronous()),
                  force))
        << "rumor blocked n=64 block_labels=" << block_labels;
    EXPECT_EQ(kPinnedProtocolDigest64,
              rfc::testing::protocol_end_state_digest(
                  pinned_protocol_config(64, SchedulerSpec::synchronous()),
                  force))
        << "protocol blocked n=64 block_labels=" << block_labels;
  }
  // One larger run: n=4096 over 512-label blocks.
  const auto force = [](Engine& engine) {
    engine.set_block_labels(512);
  };
  EXPECT_EQ(kPinnedRumorDigest4096,
            rfc::testing::rumor_end_state_digest(
                pinned_spread_config(4096, SchedulerSpec::synchronous()),
                force))
      << "rumor blocked n=4096 block_labels=512";
  EXPECT_EQ(kPinnedProtocolDigest4096,
            rfc::testing::protocol_end_state_digest(
                pinned_protocol_config(4096, SchedulerSpec::synchronous()),
                force))
      << "protocol blocked n=4096 block_labels=512";
}

// --------------------------------------------------------------------------
// Multi-block routing: with 16-label blocks every shard owns several units,
// and at prime n (so no shard count divides it) shard boundaries cut blocks
// in two.  Every (shards, threads) run must match the serial digest,
// under the reliable network and under every fault axis at once.
// --------------------------------------------------------------------------

const std::vector<ShardCase>& multi_block_cases() {
  static const std::vector<ShardCase> kCases = {
      {2, 1}, {2, 4}, {7, 1}, {7, 4}, {64, 1}, {64, 4}};
  return kCases;
}

std::vector<NetworkSpec> multi_block_networks() {
  return {NetworkSpec::none(),
          NetworkSpec::parse("network:drop=0.1,dup=0.1,reorder=0.1,delay=2,"
                             "corrupt=0.05,churn=0.01,rejoin=4,seed=5")};
}

void force_16_label_blocks(Engine& engine) {
  engine.set_block_labels(16);
}

TEST(ShardedEquivalence, MultiBlockRumorMatchesSerialDigest) {
  constexpr std::uint32_t kN = 4099;
  for (const NetworkSpec& net : multi_block_networks()) {
    gossip::SpreadConfig base_cfg =
        pinned_spread_config(kN, SchedulerSpec::synchronous());
    base_cfg.network = net;
    const std::uint64_t serial =
        rfc::testing::rumor_end_state_digest(base_cfg);
    for (const ShardCase& c : multi_block_cases()) {
      gossip::SpreadConfig cfg = pinned_spread_config(kN, sharded_spec(c));
      cfg.network = net;
      EXPECT_EQ(serial, rfc::testing::rumor_end_state_digest(
                            cfg, force_16_label_blocks))
          << net.to_string() << " " << case_name(c);
    }
  }
}

TEST(ShardedEquivalence, MultiBlockProtocolPMatchesSerialDigest) {
  // A smaller prime than the rumor case keeps the sanitizer jobs quick
  // (Protocol P's certificates make a round far dearer); 16-label blocks
  // still give every shard count several units or a cut block.
  constexpr std::uint32_t kN = 1031;
  for (const NetworkSpec& net : multi_block_networks()) {
    core::RunConfig base_cfg =
        pinned_protocol_config(kN, SchedulerSpec::synchronous());
    base_cfg.network = net;
    const std::uint64_t serial =
        rfc::testing::protocol_end_state_digest(base_cfg);
    for (const ShardCase& c : multi_block_cases()) {
      core::RunConfig cfg = pinned_protocol_config(kN, sharded_spec(c));
      cfg.network = net;
      EXPECT_EQ(serial, rfc::testing::protocol_end_state_digest(
                            cfg, force_16_label_blocks))
          << net.to_string() << " " << case_name(c);
    }
  }
}

// --------------------------------------------------------------------------
// Delivery order and the barrier's done bookkeeping, with an agent that
// observes both: every multi-block sharded run must reach the serial end
// state, with all_done() after each round agreeing with the serial engine
// and with a scan of the agents.
// --------------------------------------------------------------------------

constexpr PayloadTag kOrderTag = 0xF2;

/// Folds everything its callbacks see into a running hash, and answers
/// each pull with the number of pulls it has served so far — so a server
/// seeing its pullers, or a receiver its senders, in any other order ends
/// in a different state.  It finishes on its third received push or its
/// (12 + label % 5)-th round, so done() flips in both the collect and the
/// push phase, at label-dependent rounds.
class OrderHashAgent final : public Agent {
 public:
  void on_start(const Context& ctx) override {
    round_limit_ = 12 + ctx.self % 5;
  }
  Action on_round(const Context& ctx) override {
    ++rounds_;
    const AgentId peer = ctx.random_peer();
    if (ctx.rng->below(2) == 0) return Action::pull(peer);
    return Action::push(peer, Payload::inline_words(kOrderTag, 16, rounds_));
  }
  Payload serve_pull(const Context&, AgentId requester) override {
    mix(requester);
    return Payload::inline_words(kOrderTag, 16, ++served_);
  }
  void on_pull_reply(const Context&, AgentId target,
                     const Payload& reply) override {
    mix(target);
    mix(reply.word(0));
  }
  void on_push(const Context&, AgentId sender,
               const Payload& payload) override {
    ++received_;
    mix(sender);
    mix(payload.word(0));
  }
  bool done() const override {
    return received_ >= 3 || rounds_ >= round_limit_;
  }
  bool cacheable_observations() const noexcept override { return true; }

  std::uint64_t hash() const noexcept { return hash_; }

 private:
  void mix(std::uint64_t value) noexcept {
    hash_ = (hash_ ^ value) * 0x100000001b3ull;
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  std::uint32_t rounds_ = 0;
  std::uint32_t received_ = 0;
  std::uint32_t served_ = 0;
  std::uint32_t round_limit_ = ~0u;  ///< Set by on_start.
};

TEST(ShardedEquivalence, MultiBlockDeliveryOrderAndAllDoneMatchSerial) {
  static constexpr std::uint32_t kN = 4099;
  const auto build = [] {
    auto core = std::make_unique<EngineCore>(kN, 31337, nullptr);
    for (AgentId i = 0; i < kN; ++i) {
      core->set_agent(i, std::make_unique<OrderHashAgent>());
      if (i % 97 == 0) core->set_faulty(i);
    }
    core->set_block_labels(16);
    return core;
  };
  for (const ShardCase& c : multi_block_cases()) {
    const auto serial = build();
    const auto sharded = build();
    ShardedRoundExecutor serial_executor(ShardingConfig{1, 1});
    ShardedRoundExecutor executor(ShardingConfig{c.shards, c.threads});
    while (!serial->all_done()) {
      ASSERT_LT(serial->time(), 64u) << case_name(c);
      serial_executor.run_round(*serial, nullptr);
      executor.run_round(*sharded, nullptr);
      const std::string where =
          case_name(c) + " round " + std::to_string(serial->time());
      bool scan = true;
      for (AgentId i = 0; i < kN; ++i) {
        scan = scan && (sharded->is_faulty(i) || sharded->agent(i).done());
      }
      EXPECT_EQ(scan, sharded->all_done()) << where;
      EXPECT_EQ(serial->all_done(), sharded->all_done()) << where;
    }
    EXPECT_GE(sharded->time(), 12u) << case_name(c);
    std::uint32_t diverged = 0;
    for (AgentId i = 0; i < kN; ++i) {
      diverged +=
          static_cast<const OrderHashAgent&>(serial->agent(i)).hash() !=
          static_cast<const OrderHashAgent&>(sharded->agent(i)).hash();
    }
    EXPECT_EQ(diverged, 0u) << case_name(c) << ": agents in another state";
  }
}

/// Runs 12 rounds of OrderTraceAgents at n = 4099 (every 97th label faulty)
/// and returns each agent's trace hash.
std::vector<std::uint64_t> order_trace_hashes(const SchedulerSpec& spec,
                                              const NetworkSpec& net,
                                              std::uint32_t block_labels,
                                              Metrics* metrics) {
  constexpr std::uint32_t kN = 4099;
  Engine engine(EngineConfig(kN, 4242, nullptr, spec.make(), net.make()));
  for (AgentId i = 0; i < kN; ++i) {
    engine.set_agent(i, std::make_unique<rfc::testing::OrderTraceAgent>());
    if (i % 97 == 0) engine.set_faulty(i);
  }
  engine.set_block_labels(block_labels);
  engine.run(12);
  std::vector<std::uint64_t> hashes;
  for (AgentId i = 0; i < kN; ++i) {
    hashes.push_back(
        static_cast<const rfc::testing::OrderTraceAgent&>(engine.agent(i))
            .hash());
  }
  *metrics = engine.metrics();
  return hashes;
}

TEST(ShardedEquivalence, MultiBlockOrderTraceMatchesSerial) {
  // One global-order block serially against 16-label blocks at every shard
  // case: every agent must meet its requesters, servers and senders in the
  // same order, under the reliable and the fully adversarial network.
  for (const NetworkSpec& net : multi_block_networks()) {
    Metrics serial_metrics;
    const std::vector<std::uint64_t> serial = order_trace_hashes(
        SchedulerSpec::synchronous(), net, 1u << 16, &serial_metrics);
    for (const ShardCase& c : shard_cases()) {
      const std::string where = net.to_string() + " " + case_name(c);
      Metrics metrics;
      const std::vector<std::uint64_t> sharded =
          order_trace_hashes(sharded_spec(c), net, 16, &metrics);
      std::uint32_t diverged = 0;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        diverged += serial[i] != sharded[i];
      }
      EXPECT_EQ(diverged, 0u) << where << ": agents in another state";
      expect_metrics_identical(serial_metrics, metrics, where);
    }
  }
}

TEST(ShardedEquivalence, BlockOfInvertsBlockBegin) {
  // contiguous_block_of routes every message of the sharded round; it must
  // name exactly the block whose [begin, end) range holds the label, for
  // every partition — including more blocks than labels (empty blocks).
  std::uint64_t mismatches = 0;
  for (std::uint32_t n = 1; n <= 300; ++n) {
    for (std::uint32_t blocks = 1; blocks <= n + 2; ++blocks) {
      ASSERT_EQ(contiguous_block_begin(n, blocks, 0), 0u);
      ASSERT_EQ(contiguous_block_begin(n, blocks, blocks), n);
      for (std::uint32_t b = 0; b < blocks; ++b) {
        const std::uint32_t lo = contiguous_block_begin(n, blocks, b);
        const std::uint32_t hi = contiguous_block_begin(n, blocks, b + 1);
        for (std::uint32_t label = lo; label < hi; ++label) {
          if (contiguous_block_of(n, blocks, label) != b) {
            ++mismatches;
            ADD_FAILURE() << "n=" << n << " blocks=" << blocks
                          << " label=" << label << " expected block " << b
                          << ", got " << contiguous_block_of(n, blocks, label);
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// --------------------------------------------------------------------------
// Sparse rounds: once most agents are done, a round's work — counted here
// as done() calls, the engine's per-activation observation — is bounded by
// the live agents plus the round's messages, at every partition count.
// --------------------------------------------------------------------------

constexpr PayloadTag kSparseTag = 0xF3;

/// Counts its done() calls.  Labels >= kLive finish after their second
/// round; the first kLive labels never finish.  Every agent alternates
/// pushes and pulls at random peers and answers every pull, so each pull
/// costs one request and one reply message.
class DoneCountingAgent final : public Agent {
 public:
  static constexpr std::uint32_t kLive = 16;

  Action on_round(const Context& ctx) override {
    ++rounds_;
    if (ctx.self >= kLive && rounds_ >= 2) finished_ = true;
    const AgentId peer = ctx.random_peer();
    if (rounds_ % 2 == 0) return Action::pull(peer);
    return Action::push(peer, Payload::inline_words(kSparseTag, 8, rounds_));
  }
  Payload serve_pull(const Context&, AgentId) override {
    return Payload::inline_words(kSparseTag, 8, rounds_);
  }
  bool done() const override {
    ++done_calls_;
    return finished_;
  }
  bool cacheable_observations() const noexcept override { return true; }

  std::uint64_t done_calls() const noexcept { return done_calls_; }

 private:
  std::uint32_t rounds_ = 0;
  bool finished_ = false;
  mutable std::uint64_t done_calls_ = 0;
};

TEST(ShardedEquivalence, SparseRoundWorkBoundedByLiveAgentsAndMessages) {
  constexpr std::uint32_t kN = 4096;
  for (const char* spec : {"synchronous", "synchronous:shards=4,threads=4"}) {
    Engine engine(EngineConfig{kN, 2024, nullptr,
                               SchedulerSpec::parse(spec).make()});
    for (AgentId i = 0; i < kN; ++i) {
      engine.set_agent(i, std::make_unique<DoneCountingAgent>());
    }
    const auto total_done_calls = [&engine] {
      std::uint64_t calls = 0;
      for (AgentId i = 0; i < kN; ++i) {
        calls += static_cast<const DoneCountingAgent&>(engine.agent(i))
                     .done_calls();
      }
      return calls;
    };
    for (int r = 0; r < 2; ++r) engine.step();
    std::uint32_t live = 0;
    for (AgentId i = 0; i < kN; ++i) live += engine.agent(i).done() ? 0 : 1;
    ASSERT_EQ(live, DoneCountingAgent::kLive) << spec;
    for (int r = 0; r < 6; ++r) {
      const std::uint64_t calls_before = total_done_calls();
      const std::uint64_t messages_before = engine.metrics().messages();
      engine.step();
      const std::uint64_t calls = total_done_calls() - calls_before;
      const std::uint64_t messages =
          engine.metrics().messages() - messages_before;
      EXPECT_GT(messages, 0u) << spec << " round " << engine.round();
      EXPECT_LE(calls, live + messages) << spec << " round " << engine.round();
    }
    EXPECT_FALSE(engine.all_done()) << spec;
  }
}

// --------------------------------------------------------------------------
// Exceptions: every round runs through the executor's phase barrier, so an
// agent's exception must reach Engine::step's caller unchanged — never
// std::terminate from a pool worker — at every partition count.
// --------------------------------------------------------------------------

struct RoundThreeError : std::runtime_error {
  RoundThreeError() : std::runtime_error("push received in round 3") {}
};

/// Pushes to a random peer every round and throws on a push received in
/// the third round.
class ThrowingPushAgent final : public Agent {
 public:
  Action on_round(const Context& ctx) override {
    return Action::push(ctx.random_peer(),
                        Payload::inline_words(kSparseTag, 8, ctx.round));
  }
  Payload serve_pull(const Context&, AgentId) override { return {}; }
  void on_push(const Context& ctx, AgentId, const Payload&) override {
    if (ctx.round == 2) throw RoundThreeError();
  }
  bool done() const override { return false; }
  bool cacheable_observations() const noexcept override { return true; }
};

TEST(ShardedEquivalence, AgentExceptionReachesStepCaller) {
  constexpr std::uint32_t kN = 64;
  for (const char* spec : {"synchronous", "synchronous:shards=4,threads=4",
                           "batched:block=2,shards=2"}) {
    Engine engine(EngineConfig{kN, 7, nullptr,
                               SchedulerSpec::parse(spec).make()});
    for (AgentId i = 0; i < kN; ++i) {
      engine.set_agent(i, std::make_unique<ThrowingPushAgent>());
    }
    EXPECT_NO_THROW(engine.step()) << spec;
    EXPECT_NO_THROW(engine.step()) << spec;
    EXPECT_THROW(engine.step(), RoundThreeError) << spec;
  }
}

// --------------------------------------------------------------------------
// Spec plumbing: round-trip and validation of the sharding parameters.
// --------------------------------------------------------------------------

TEST(ShardedEquivalence, SpecRoundTripAndValidation) {
  const SchedulerSpec spec =
      SchedulerSpec::synchronous(ShardingConfig{8, 4});
  EXPECT_EQ(spec.to_string(), "synchronous:shards=8,threads=4");
  EXPECT_EQ(SchedulerSpec::parse(spec.to_string()), spec);
  // shards=1 collapses to the canonical plain spec.
  EXPECT_EQ(SchedulerSpec::synchronous(ShardingConfig{1, 4}).to_string(),
            "synchronous");
  EXPECT_THROW(SchedulerSpec::parse("synchronous:shards=0").make(),
               std::invalid_argument);
  // Activation-based policies have no sharded round.
  EXPECT_THROW(SchedulerSpec::parse("sequential:shards=4").make(),
               std::invalid_argument);
}

}  // namespace
}  // namespace rfc::sim
