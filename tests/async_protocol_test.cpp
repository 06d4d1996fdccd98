// The exploratory asynchronous Protocol P: schedule math, guard-band
// effect, fairness when it succeeds, pinned end states, failure causes and
// the lifetime of the audit records.
#include "core/async_protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "core/payloads.hpp"
#include "net/state_digest.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::core {
namespace {

void mix_double(net::Fnv1a& fnv, double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  fnv.mix_u64(bits);
}

/// FNV-1a over an asynchronous run: winner, steps, every Metrics field,
/// and each agent's decision, failure flag, Verification verdict and
/// activation count.
std::uint64_t async_run_digest(const AsyncRunConfig& cfg) {
  const auto engine = build_async_engine(cfg);
  const AsyncRunResult r = run_async_protocol_on(*engine, cfg);
  net::Fnv1a fnv;
  fnv.mix_u64(static_cast<std::uint64_t>(r.winner));
  fnv.mix_u64(r.steps);
  mix_double(fnv, r.virtual_time);
  const sim::Metrics& m = r.metrics;
  for (const std::uint64_t field :
       {m.rounds, m.pushes, m.pull_requests, m.pull_replies, m.total_bits,
        m.max_message_bits, m.active_links, m.denials, m.net_drops, m.net_dups,
        m.net_corruptions, m.net_delays, m.churn_crashes}) {
    fnv.mix_u64(field);
  }
  mix_double(fnv, m.virtual_time);
  for (sim::AgentId u = 0; u < cfg.n; ++u) {
    const auto& agent =
        static_cast<const AsyncProtocolAgent&>(engine->agent(u));
    fnv.mix_bool(engine->is_faulty(u));
    fnv.mix_u64(static_cast<std::uint64_t>(agent.decision()));
    fnv.mix_bool(agent.failed());
    fnv.mix_u64(static_cast<std::uint64_t>(agent.verification_failure()));
    fnv.mix_u64(agent.activations());
  }
  return fnv.value();
}

TEST(AsyncSchedule, PhaseBoundaries) {
  AsyncSchedule s;
  s.q = 10;
  s.slack = 3;
  using P = AsyncSchedule::LocalPhase;
  EXPECT_EQ(s.phase_of(0), P::kCommitment);
  EXPECT_EQ(s.phase_of(9), P::kCommitment);
  EXPECT_EQ(s.phase_of(10), P::kGuard);
  EXPECT_EQ(s.phase_of(12), P::kGuard);
  EXPECT_EQ(s.phase_of(13), P::kVoting);
  EXPECT_EQ(s.phase_of(22), P::kVoting);
  EXPECT_EQ(s.phase_of(23), P::kGuard);
  EXPECT_EQ(s.phase_of(25), P::kGuard);
  EXPECT_EQ(s.phase_of(26), P::kFindMin);
  EXPECT_EQ(s.phase_of(38), P::kFindMin);  // Length q + slack = 13.
  EXPECT_EQ(s.phase_of(39), P::kCoherence);
  EXPECT_EQ(s.phase_of(48), P::kCoherence);
  EXPECT_EQ(s.phase_of(49), P::kFinished);
  EXPECT_EQ(s.total_activations(), 49u);
}

TEST(AsyncSchedule, ZeroSlackIsContiguous) {
  AsyncSchedule s;
  s.q = 5;
  s.slack = 0;
  using P = AsyncSchedule::LocalPhase;
  EXPECT_EQ(s.phase_of(4), P::kCommitment);
  EXPECT_EQ(s.phase_of(5), P::kVoting);
  EXPECT_EQ(s.phase_of(10), P::kFindMin);
  EXPECT_EQ(s.phase_of(15), P::kCoherence);
  EXPECT_EQ(s.phase_of(20), P::kFinished);
}

TEST(AsyncSchedule, IndexWithinPhase) {
  AsyncSchedule s;
  s.q = 10;
  s.slack = 3;
  EXPECT_EQ(s.index_of(0), 0u);
  EXPECT_EQ(s.index_of(9), 9u);
  EXPECT_EQ(s.index_of(13), 0u);  // First voting activation.
  EXPECT_EQ(s.index_of(22), 9u);  // Last voting activation.
  EXPECT_EQ(s.index_of(26), 0u);  // First find-min activation.
}

TEST(AsyncProtocol, GuardBandsMakeItSucceed) {
  // With a generous guard band the full pipeline (audit, vote, broadcast,
  // verify) goes through in the sequential model.
  AsyncRunConfig cfg;
  cfg.n = 96;
  cfg.gamma = 4.0;
  cfg.slack = 40;  // ~2 sqrt(q log n) at this size.
  int successes = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    cfg.seed = seed;
    if (!run_async_protocol(cfg).failed()) ++successes;
  }
  EXPECT_GE(successes, 8);
}

TEST(AsyncProtocol, NaiveScheduleFailsMoreOften) {
  // slack = 0: late votes miss sealed certificates and strict verification
  // fires.  This is the measured obstacle of open problem #2.
  int naive_successes = 0, guarded_successes = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    AsyncRunConfig cfg;
    cfg.n = 96;
    cfg.gamma = 4.0;
    cfg.seed = seed;
    cfg.slack = 0;
    if (!run_async_protocol(cfg).failed()) ++naive_successes;
    cfg.slack = 40;
    if (!run_async_protocol(cfg).failed()) ++guarded_successes;
  }
  EXPECT_GT(guarded_successes, naive_successes);
}

TEST(AsyncProtocol, WinnerIsAValidColor) {
  AsyncRunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 4.0;
  cfg.slack = 40;
  cfg.colors.assign(64, 0);
  for (int i = 0; i < 16; ++i) cfg.colors[i] = 1;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.seed = seed;
    const auto r = run_async_protocol(cfg);
    if (!r.failed()) {
      EXPECT_TRUE(r.winner == 0 || r.winner == 1);
    }
  }
}

TEST(AsyncProtocol, RoughlyFairWhenItSucceeds) {
  AsyncRunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 4.0;
  cfg.slack = 48;
  cfg.colors.assign(64, 0);
  for (int i = 0; i < 32; ++i) cfg.colors[i] = 1;
  int wins1 = 0, successes = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    cfg.seed = seed;
    const auto r = run_async_protocol(cfg);
    if (!r.failed()) {
      ++successes;
      if (r.winner == 1) ++wins1;
    }
  }
  ASSERT_GT(successes, 30);
  const double share =
      static_cast<double>(wins1) / static_cast<double>(successes);
  EXPECT_NEAR(share, 0.5, 0.25);
}

TEST(AsyncProtocol, SeedDeterministic) {
  AsyncRunConfig cfg;
  cfg.n = 48;
  cfg.gamma = 3.0;
  cfg.slack = 30;
  cfg.seed = 77;
  const auto a = run_async_protocol(cfg);
  const auto b = run_async_protocol(cfg);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
}

TEST(AsyncProtocol, ToleratesFaults) {
  AsyncRunConfig cfg;
  cfg.n = 96;
  cfg.gamma = 5.0;
  cfg.slack = 50;
  cfg.num_faulty = 24;
  cfg.placement = sim::FaultPlacement::kRandom;
  int successes = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    cfg.seed = seed;
    const auto r = run_async_protocol(cfg);
    if (!r.failed()) {
      ++successes;
      EXPECT_EQ(r.active_colors.size(), 72u);  // Leader election colors.
    }
  }
  EXPECT_GE(successes, 7);
}

TEST(AsyncProtocol, EndStateDigestsArePinned) {
  // Captured before the agent shared ProtocolAgent's audit state: the
  // sequential model must keep its RNG streams, messages, bit sizes and
  // every agent's verdict exactly, under each activation policy, the
  // message-layer adversary and crash faults.
  struct Pin {
    std::uint32_t n;
    const char* scheduler;
    const char* network;
    std::uint32_t num_faulty;
    std::uint64_t digest;
  };
  const std::vector<Pin> pins = {
      {64, "sequential", "", 0, 0xe49bb801edcda5b9ull},
      {64, "poisson", "", 0, 0x7a826c9fb5b94f55ull},
      {64, "partial-async:p=0.5", "", 0, 0x1edcdb1cd316c695ull},
      {64, "adversarial:phase=vote,budget=64", "", 0, 0x1c8d5459c4260dc1ull},
      {256, "sequential", "", 0, 0x27434398ffaba849ull},
      {256, "poisson", "", 0, 0x52e6146e981cba84ull},
      {256, "partial-async:p=0.5", "", 0, 0x248ba865738c9c2cull},
      {256, "adversarial:phase=vote,budget=64", "", 0, 0xdf785dc2ed2d0398ull},
      {128, "sequential", "network:drop=0.05,corrupt=0.01,delay=2", 0,
       0xf4dbdb43d3b75b21ull},
      {128, "sequential", "", 16, 0x204183a01092ec8cull},
  };
  for (const Pin& pin : pins) {
    AsyncRunConfig cfg;
    cfg.n = pin.n;
    cfg.gamma = 4.0;
    cfg.slack = 24;
    cfg.seed = 11;
    cfg.scheduler = sim::SchedulerSpec::parse(pin.scheduler);
    if (*pin.network != '\0') {
      cfg.network = sim::NetworkSpec::parse(pin.network);
    }
    if (pin.num_faulty > 0) {
      cfg.num_faulty = pin.num_faulty;
      cfg.placement = sim::FaultPlacement::kRandom;
    }
    EXPECT_EQ(async_run_digest(cfg), pin.digest)
        << pin.n << " " << pin.scheduler << " " << pin.network;
  }
}

TEST(AsyncProtocol, FailureCausesSumToHonestFailures) {
  // slack = 0 fails often; every honest failure is counted under exactly
  // one cause, by the tally the synchronous runner uses too.
  AsyncRunConfig cfg;
  cfg.n = 96;
  cfg.gamma = 4.0;
  cfg.slack = 0;
  std::uint32_t failures = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.seed = seed;
    const AsyncRunResult r = run_async_protocol(cfg);
    std::uint32_t counted = r.failure_causes.coherence_or_undecided;
    for (const std::uint32_t n : r.failure_causes.verification) counted += n;
    EXPECT_EQ(r.failure_causes.of(VerificationFailure::kNone), 0u);
    EXPECT_EQ(counted, r.honest_failures) << "seed " << seed;
    if (r.honest_failures > 0) {
      EXPECT_TRUE(r.failed());
    }
    failures += r.honest_failures;
  }
  EXPECT_GT(failures, 0u);
}

TEST(AsyncProtocol, AuditRecordsViewPeersWriteOnceBoxes) {
  // A pull reply carries a pinned view of the server's write-once H_u box,
  // so every well-formed L_u record names the peer's own box, and nothing
  // but the owner counts a reference to it, even though every record and
  // every reply named it.  The network may delay and corrupt pushes; the
  // composite reply has no corruption hook, so replies arrive intact.
  for (const char* network : {"", "network:delay=2,corrupt=0.05"}) {
    SCOPED_TRACE(network);
    AsyncRunConfig cfg;
    cfg.n = 256;
    cfg.gamma = 4.0;
    cfg.slack = 24;
    cfg.seed = 5;
    if (*network != '\0') cfg.network = sim::NetworkSpec::parse(network);
    const auto engine = build_async_engine(cfg);
    run_async_protocol_on(*engine, cfg);
    const auto agent = [&](sim::AgentId u) -> const AsyncProtocolAgent& {
      return static_cast<const AsyncProtocolAgent&>(engine->agent(u));
    };
    long viewed = 0;
    for (sim::AgentId u = 0; u < cfg.n; ++u) {
      const AuditState& audit = agent(u).audit();
      for (const auto& [peer, record] : audit.collected_intentions()) {
        if (record.marked_faulty()) continue;
        const AuditState& owner = agent(peer).audit();
        EXPECT_EQ(record.box(), intention_box_in(owner.intention_payload()));
        // Read through the view, as Verification does.
        EXPECT_EQ(record.intention(), owner.intention());
        ++viewed;
      }
    }
    EXPECT_GT(viewed, 256);
    for (sim::AgentId u = 0; u < cfg.n; ++u) {
      const auto box =
          agent(u).audit().intention_payload().shared_as<IntentionBox>(
              kIntentionPayloadTag);
      ASSERT_NE(box, nullptr);
      EXPECT_EQ(box.use_count() - 1, 1) << "agent " << u;
    }
  }
}

}  // namespace
}  // namespace rfc::core
