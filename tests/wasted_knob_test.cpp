// Wasted activations on the sampling schedulers, a pinned trace contract:
// sequential draws over the *initial* active pool forever — a drawn
// finished agent consumes the step as a wasted activation (the
// coupon-collector tail the analysis notebooks integrate over) — and the
// adversarial walk removes done agents only lazily when the cursor lands on
// them.  The wake traces and Protocol P end-state digests below freeze
// that behaviour, with the engine's SoA caches on and off.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "end_state_digest.hpp"
#include "gossip/rumor.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::sim {
namespace {

// --------------------------------------------------------------------------
// A finite agent: done after a fixed number of activations.  The cacheable
// flag switches the engine's SoA caches on or off.
// --------------------------------------------------------------------------
class DoneAfterAgent final : public Agent {
 public:
  DoneAfterAgent(std::uint64_t limit, std::vector<AgentId>* trace,
                 bool cacheable) noexcept
      : limit_(limit), trace_(trace), cacheable_(cacheable) {}

  Action on_round(const Context& ctx) override {
    ++activations_;
    if (trace_ != nullptr) trace_->push_back(ctx.self);
    return Action::idle();
  }
  Payload serve_pull(const Context&, AgentId) override { return {}; }
  bool done() const override { return activations_ >= limit_; }
  bool cacheable_observations() const noexcept override { return cacheable_; }

 private:
  std::uint64_t limit_;
  std::vector<AgentId>* trace_;
  bool cacheable_;
  std::uint64_t activations_ = 0;
};

struct TraceRun {
  std::vector<AgentId> trace;  ///< Wake order (live activations only).
  std::uint64_t steps = 0;     ///< Scheduler steps to completion.
};

/// Runs n DoneAfterAgent(limit=2) agents to completion under `spec_text`.
TraceRun trace_run(const std::string& spec_text, bool cacheable,
                   std::uint32_t n = 8, std::uint64_t seed = 42) {
  TraceRun out;
  Engine engine({n, seed, nullptr, SchedulerSpec::parse(spec_text).make()});
  for (AgentId i = 0; i < n; ++i) {
    engine.set_agent(i,
                     std::make_unique<DoneAfterAgent>(2, &out.trace, cacheable));
  }
  while (!engine.all_done() && out.steps < 100'000) {
    engine.step();
    ++out.steps;
  }
  EXPECT_TRUE(engine.all_done()) << spec_text;
  return out;
}

// --------------------------------------------------------------------------
// Sequential: the pinned trace.
// --------------------------------------------------------------------------

// Captured from this tree; freeze the contract.  Every agent is woken
// exactly twice (16 live activations), plus wasted steps on already-done
// draws.
const std::vector<AgentId> kSequentialKeepTrace = {
    1, 4, 5, 5, 6, 1, 2, 3, 3, 7, 2, 6, 7, 4, 0, 0};
constexpr std::uint64_t kSequentialKeepSteps = 29;

TEST(WastedKnob, SequentialKeepIsTheDefault) {
  const TraceRun plain = trace_run("sequential", true);
  EXPECT_EQ(plain.trace, kSequentialKeepTrace);
  EXPECT_EQ(plain.steps, kSequentialKeepSteps);
  EXPECT_GT(plain.steps, plain.trace.size());  // Wasted draws cost steps.
}

// --------------------------------------------------------------------------
// Adversarial: the pinned trace, with and without the SoA caches.
// --------------------------------------------------------------------------

// The walk never wastes a *step* (lazy removal consumes no walk slot), so
// it finishes in exactly 16.
const std::vector<AgentId> kAdversarialKeepTrace = {
    0, 5, 1, 4, 6, 7, 0, 5, 1, 4, 6, 7, 3, 2, 3, 2};
constexpr std::uint64_t kAdversarialKeepSteps = 16;

constexpr char kAdvKeep[] = "adversarial:budget=8,victim_fraction=0.25";

TEST(WastedKnob, AdversarialKeepIsTheDefault) {
  const TraceRun plain = trace_run(kAdvKeep, true);
  EXPECT_EQ(plain.trace, kAdversarialKeepTrace);
  EXPECT_EQ(plain.steps, kAdversarialKeepSteps);
}

TEST(WastedKnob, AdversarialKeepTraceIsCacheIndependent) {
  // Non-cacheable agents turn the SoA caches off; the walk reads done()
  // through the virtual call and must reproduce the cached run's trace.
  const TraceRun uncached = trace_run(kAdvKeep, false);
  EXPECT_EQ(uncached.trace, kAdversarialKeepTrace);
  EXPECT_EQ(uncached.steps, kAdversarialKeepSteps);
}

// --------------------------------------------------------------------------
// Protocol P end-state digests: the wake rules pinned on a real protocol,
// where agents finish at scattered times, and cross-checked against the
// sharded synchronous round (S in {1, 4}) on the same population — the
// sparse live-list path must stay shard-invariant.
// --------------------------------------------------------------------------

core::RunConfig knob_protocol_config(const std::string& spec_text) {
  core::RunConfig cfg;
  cfg.n = 64;
  cfg.gamma = 3.0;
  cfg.seed = 987654321;
  cfg.num_faulty = 8;
  cfg.placement = FaultPlacement::kRandom;
  cfg.scheduler = SchedulerSpec::parse(spec_text);
  return cfg;
}

constexpr std::uint64_t kSequentialKeepProtocolDigest =
    13349877110825083527ull;
constexpr std::uint64_t kAdversarialKeepProtocolDigest =
    11668558595272729605ull;

TEST(WastedKnob, PinnedProtocolDigests) {
  EXPECT_EQ(kSequentialKeepProtocolDigest,
            rfc::testing::protocol_end_state_digest(
                knob_protocol_config("sequential")));
  EXPECT_EQ(kAdversarialKeepProtocolDigest,
            rfc::testing::protocol_end_state_digest(
                knob_protocol_config(kAdvKeep)));
}

TEST(WastedKnob, SynchronousDigestShardInvariantOnKnobPopulation) {
  const std::uint64_t serial = rfc::testing::protocol_end_state_digest(
      knob_protocol_config("synchronous"));
  EXPECT_EQ(serial, rfc::testing::protocol_end_state_digest(
                        knob_protocol_config("synchronous:shards=4")));
}

}  // namespace
}  // namespace rfc::sim
