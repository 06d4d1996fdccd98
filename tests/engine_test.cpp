// Tests of the synchronous GOSSIP engine: round phases, snapshot semantics,
// fault silence, message accounting, and determinism.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/engine_core.hpp"
#include "sim/network_spec.hpp"
#include "sim/sharding.hpp"

namespace rfc::sim {
namespace {

constexpr PayloadTag kNumberTag = 0xF0;

Payload number_payload(std::uint64_t v, std::uint64_t bits = 32) {
  return Payload::inline_words(kNumberTag, bits, v);
}

/// Scripted agent: performs a fixed list of actions, records every event.
class ScriptedAgent final : public Agent {
 public:
  std::vector<Action> script;
  std::uint64_t counter_value = 0;  ///< Served to pulls; bumped on replies.
  std::vector<std::pair<AgentId, std::uint64_t>> pushes_seen;
  std::vector<std::pair<AgentId, bool>> pull_replies_seen;
  std::vector<AgentId> pull_requesters_seen;
  bool is_done = false;

  Action on_round(const Context& ctx) override {
    if (ctx.round < script.size()) return script[ctx.round];
    return Action::idle();
  }
  Payload serve_pull(const Context&, AgentId requester) override {
    pull_requesters_seen.push_back(requester);
    return number_payload(counter_value);
  }
  void on_pull_reply(const Context&, AgentId target,
                     const Payload& reply) override {
    pull_replies_seen.emplace_back(target, !reply.empty());
    if (!reply.empty()) counter_value = reply.word(0) + 100;
  }
  void on_push(const Context&, AgentId sender,
               const Payload& payload) override {
    pushes_seen.emplace_back(sender, payload.word(0));
  }
  bool done() const override { return is_done; }
};

ScriptedAgent* install(Engine& engine, AgentId id) {
  auto agent = std::make_unique<ScriptedAgent>();
  ScriptedAgent* ptr = agent.get();
  engine.set_agent(id, std::move(agent));
  return ptr;
}

TEST(Engine, RejectsZeroAgents) {
  EXPECT_THROW(Engine({0, 1}), std::invalid_argument);
}

TEST(Engine, PushIsDeliveredSameRound) {
  Engine engine({2, 1});
  auto* a = install(engine, 0);
  auto* b = install(engine, 1);
  a->script = {Action::push(1, number_payload(7))};
  engine.step();
  ASSERT_EQ(b->pushes_seen.size(), 1u);
  EXPECT_EQ(b->pushes_seen[0], (std::pair<AgentId, std::uint64_t>{0, 7}));
  EXPECT_EQ(engine.metrics().pushes, 1u);
}

TEST(Engine, PullGetsReplyAndRequesterIsAuthentic) {
  Engine engine({2, 1});
  auto* a = install(engine, 0);
  auto* b = install(engine, 1);
  b->counter_value = 55;
  a->script = {Action::pull(1)};
  engine.step();
  ASSERT_EQ(a->pull_replies_seen.size(), 1u);
  EXPECT_EQ(a->pull_replies_seen[0].first, 1u);
  EXPECT_TRUE(a->pull_replies_seen[0].second);
  EXPECT_EQ(a->counter_value, 155u);  // 55 + 100.
  ASSERT_EQ(b->pull_requesters_seen.size(), 1u);
  EXPECT_EQ(b->pull_requesters_seen[0], 0u);
}

TEST(Engine, PullServesRoundStartState) {
  // a pulls b while b pulls c: b's reply to a must reflect b's value
  // *before* b's own pull reply mutates it.
  Engine engine({3, 1});
  auto* a = install(engine, 0);
  auto* b = install(engine, 1);
  auto* c = install(engine, 2);
  b->counter_value = 10;
  c->counter_value = 20;
  a->script = {Action::pull(1)};
  b->script = {Action::pull(2)};
  engine.step();
  EXPECT_EQ(a->counter_value, 110u);  // Saw b's round-start 10.
  EXPECT_EQ(b->counter_value, 120u);  // Saw c's 20.
}

TEST(Engine, FaultyAgentsAreSilentAndReceiveNothing) {
  Engine engine({2, 1});
  auto* a = install(engine, 0);
  auto* b = install(engine, 1);
  engine.set_faulty(1);
  a->script = {Action::pull(1), Action::push(1, number_payload(3))};
  engine.step();
  ASSERT_EQ(a->pull_replies_seen.size(), 1u);
  EXPECT_FALSE(a->pull_replies_seen[0].second);  // Silence.
  engine.step();
  EXPECT_TRUE(b->pushes_seen.empty());
  EXPECT_TRUE(b->pull_requesters_seen.empty());
  // The faulty node performed no active operation either.
  EXPECT_EQ(engine.metrics().active_links, 2u);  // Only a's two actions.
}

TEST(Engine, FaultPlanLockedAfterStart) {
  Engine engine({2, 1});
  install(engine, 0);
  install(engine, 1);
  engine.step();
  EXPECT_THROW(engine.set_faulty(0), std::logic_error);
}

TEST(Engine, FaultPlanSizeChecked) {
  Engine engine({2, 1});
  EXPECT_THROW(engine.apply_fault_plan({true}), std::invalid_argument);
}

TEST(Engine, NumActiveTracksFaults) {
  Engine engine({5, 1});
  for (AgentId i = 0; i < 5; ++i) install(engine, i);
  engine.apply_fault_plan({true, false, true, false, false});
  EXPECT_EQ(engine.num_faulty(), 2u);
  EXPECT_EQ(engine.num_active(), 3u);
}

TEST(Engine, MessageAccountingExact) {
  Engine engine({2, 1});
  auto* a = install(engine, 0);
  install(engine, 1);
  a->script = {Action::push(1, number_payload(1, 128)), Action::pull(1)};
  engine.step();
  EXPECT_EQ(engine.metrics().pushes, 1u);
  EXPECT_EQ(engine.metrics().total_bits, 128u);
  EXPECT_EQ(engine.metrics().max_message_bits, 128u);
  engine.step();
  // Pull: request header (1 bit for n=2) + 32-bit reply.
  EXPECT_EQ(engine.metrics().pull_requests, 1u);
  EXPECT_EQ(engine.metrics().pull_replies, 1u);
  EXPECT_EQ(engine.metrics().total_bits, 128u + engine.pull_request_bits() + 32u);
  EXPECT_EQ(engine.metrics().messages(), 3u);
}

TEST(Engine, RunStopsWhenAllActiveDone) {
  Engine engine({3, 1});
  auto* a = install(engine, 0);
  auto* b = install(engine, 1);
  auto* c = install(engine, 2);
  engine.set_faulty(2);
  c->is_done = false;  // Faulty: ignored by the done-check.
  a->is_done = true;
  b->is_done = true;
  EXPECT_EQ(engine.run(100), 0u);
  EXPECT_TRUE(engine.all_done());
}

TEST(Engine, RunRespectsMaxRounds) {
  Engine engine({1, 1});
  install(engine, 0);  // Never done.
  EXPECT_EQ(engine.run(17), 17u);
  EXPECT_EQ(engine.metrics().rounds, 17u);
}

TEST(Engine, SelfPullWorks) {
  Engine engine({1, 1});
  auto* a = install(engine, 0);
  a->counter_value = 5;
  a->script = {Action::pull(0)};
  engine.step();
  EXPECT_EQ(a->counter_value, 105u);
}

TEST(Engine, RoundObserverInvokedEachRound) {
  Engine engine({1, 1});
  install(engine, 0);
  int calls = 0;
  engine.set_round_observer([&calls](const Engine&) { ++calls; });
  engine.run(5);
  EXPECT_EQ(calls, 5);
}

TEST(Engine, MissingAgentThrows) {
  Engine engine({2, 1});
  install(engine, 0);
  EXPECT_THROW(engine.step(), std::logic_error);
}

TEST(Engine, PerAgentRngStreamsDiffer) {
  Engine engine({2, 99});
  // Two agents pulling "random" peers must not mirror each other; check by
  // comparing the raw streams the engine would hand them.
  rfc::support::Xoshiro256 r0(rfc::support::derive_seed(99, 0));
  rfc::support::Xoshiro256 r1(rfc::support::derive_seed(99, 1));
  EXPECT_NE(r0.next(), r1.next());
}

/// Pulls its ring successor in even rounds and pushes to it in odd ones,
/// recording the last reply and counting the pushes it receives.
class RingProbe final : public Agent {
 public:
  std::uint64_t reply_round = ~0ull;
  bool reply_empty = false;
  std::uint32_t pushes = 0;

  Action on_round(const Context& ctx) override {
    const AgentId next = (ctx.self + 1) % ctx.n;
    if (ctx.round % 2 == 0) return Action::pull(next);
    return Action::push(next, number_payload(ctx.round));
  }
  Payload serve_pull(const Context& ctx, AgentId) override {
    return number_payload(ctx.round);
  }
  void on_pull_reply(const Context& ctx, AgentId,
                     const Payload& reply) override {
    reply_round = ctx.round;
    reply_empty = reply.empty();
  }
  void on_push(const Context&, AgentId, const Payload&) override {
    ++pushes;
  }
  bool done() const override { return false; }
};

TEST(Engine, ChurnDownServerIsSilentAndDownTargetAbsorbsChargedPush) {
  // Churn alone (no per-message fault rate), serial and with shards: an
  // agent churn holds down serves silence and absorbs the pushes sent to
  // it, which are charged all the same.  A round's crash verdicts hold
  // until the next round opens, so is_down() after a round is its state.
  constexpr std::uint32_t kN = 64;
  for (const ShardingConfig cfg :
       {ShardingConfig{1, 1}, ShardingConfig{4, 2}}) {
    EngineCore core(kN, 11, nullptr);
    for (AgentId i = 0; i < kN; ++i) {
      core.set_agent(i, std::make_unique<RingProbe>());
    }
    core.set_network(
        NetworkSpec::parse("network:churn=0.2,rejoin=2,seed=3").make());
    const auto probe = [&core](AgentId i) -> const RingProbe& {
      return static_cast<const RingProbe&>(core.agent(i));
    };
    ShardedRoundExecutor executor(cfg);
    std::uint32_t silent = 0;
    std::uint32_t absorbed = 0;
    for (std::uint64_t round = 0; round < 24; ++round) {
      std::vector<std::uint32_t> received(kN);
      for (AgentId i = 0; i < kN; ++i) received[i] = probe(i).pushes;
      const std::uint64_t pushes_before = core.metrics().pushes;
      executor.run_round(core, nullptr);
      std::uint64_t senders = 0;
      for (AgentId u = 0; u < kN; ++u) {
        const AgentId v = (u + 1) % kN;
        if (core.is_down(u)) continue;  // A down agent idles.
        if (round % 2 == 0) {
          EXPECT_EQ(probe(u).reply_round, round) << u;
          EXPECT_EQ(probe(u).reply_empty, core.is_down(v)) << u;
          silent += core.is_down(v) ? 1 : 0;
        } else {
          ++senders;
          EXPECT_EQ(probe(v).pushes - received[v], core.is_down(v) ? 0u : 1u)
              << v;
          absorbed += core.is_down(v) ? 1 : 0;
        }
      }
      EXPECT_EQ(core.metrics().pushes - pushes_before, senders) << round;
    }
    EXPECT_GT(silent, 0u);
    EXPECT_GT(absorbed, 0u);
  }
}

}  // namespace
}  // namespace rfc::sim
