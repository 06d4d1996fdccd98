// Engine robustness fuzz: agents performing random actions must never
// violate the engine's model invariants, whatever they do — and the
// SchedulerSpec grammar must round-trip every valid spec and throw (never
// crash, never silently coerce) on malformed ones, mirroring the strict
// CliArgs parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fault_model.hpp"
#include "sim/network_spec.hpp"
#include "sim/scheduler_spec.hpp"
#include "sim/topology.hpp"

namespace rfc::sim {
namespace {

constexpr PayloadTag kChaosTag = 0xF1;

Payload chaos_payload(std::uint64_t bits) {
  return Payload::inline_words(kChaosTag, bits, /*w0=*/0);
}

/// Acts uniformly at random each round: idle / push / pull, random targets
/// (possibly self), random payload sizes, randomly refuses to serve pulls,
/// randomly declares itself done.
class ChaosAgent final : public Agent {
 public:
  Action on_round(const Context& ctx) override {
    if (!done_ && ctx.rng->bernoulli(0.01)) done_ = true;
    switch (ctx.rng->below(3)) {
      case 0: return Action::idle();
      case 1:
        return Action::push(ctx.random_peer(),
                            ctx.rng->bernoulli(0.2)
                                ? Payload{}  // Even empty payloads.
                                : chaos_payload(ctx.rng->below(512)));
      default: return Action::pull(ctx.random_peer());
    }
  }
  Payload serve_pull(const Context& ctx, AgentId) override {
    if (ctx.rng->bernoulli(0.3)) return {};
    return chaos_payload(ctx.rng->below(256));
  }
  void on_pull_reply(const Context&, AgentId, const Payload&) override {}
  void on_push(const Context&, AgentId, const Payload&) override {}
  bool done() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(EngineFuzz, InvariantsUnderChaos) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Engine engine({64, seed, nullptr});
    rfc::support::Xoshiro256 rng(seed);
    engine.apply_fault_plan(
        make_fault_plan(FaultPlacement::kRandom, 64, 16, rng));
    for (AgentId i = 0; i < 64; ++i) {
      engine.set_agent(i, std::make_unique<ChaosAgent>());
    }
    const std::uint64_t rounds = engine.run(300);
    const Metrics& m = engine.metrics();
    // At most one active op per active agent per round.
    EXPECT_LE(m.active_links, rounds * 48);
    // Replies never exceed requests.
    EXPECT_LE(m.pull_replies, m.pull_requests);
    // Accounting is internally consistent.
    EXPECT_GE(m.total_bits, m.pull_requests * engine.pull_request_bits());
    EXPECT_LE(m.max_message_bits, 512u);
    EXPECT_EQ(m.rounds, rounds);
  }
}

TEST(EngineFuzz, ChaosOnSparseTopology) {
  Engine engine({32, 9, make_ring(32, 1)});
  for (AgentId i = 0; i < 32; ++i) {
    engine.set_agent(i, std::make_unique<ChaosAgent>());
  }
  engine.run(200);
  EXPECT_LE(engine.metrics().active_links, 200u * 32);
}

// --------------------------------------------------------------------------
// SchedulerSpec::parse fuzz: valid specs round-trip, malformed text throws.
// --------------------------------------------------------------------------

/// Draws a random *valid* spec over the full parameter space of the
/// builtin policies, including the reactive target= rules.
rfc::sim::SchedulerSpec random_valid_spec(rfc::support::Xoshiro256& rng) {
  using rfc::sim::SchedulerSpec;
  switch (rng.below(7)) {
    case 0:
      return SchedulerSpec::synchronous(
          {.shards = static_cast<std::uint32_t>(1 + rng.below(8)),
           .threads = static_cast<std::uint32_t>(rng.below(4))});
    case 1: return SchedulerSpec::sequential();
    case 2:
      return SchedulerSpec::partial_async(rng.uniform01());
    case 3:
      return SchedulerSpec::batched(
          static_cast<std::uint32_t>(1 + rng.below(12)),
          {.shards = static_cast<std::uint32_t>(1 + rng.below(4))});
    case 4: return SchedulerSpec::poisson(0.25 + rng.uniform01() * 4.0);
    case 5: {
      rfc::sim::AdversarialConfig cfg;
      cfg.victim_fraction = rng.uniform01();
      cfg.budget = rng.below(10'000);
      if (rng.bernoulli(0.5)) {
        cfg.target_phase = static_cast<rfc::sim::AgentPhase>(
            1 + rng.below(5));
      }
      if (rng.bernoulli(0.3)) {
        cfg.victim_ids = {static_cast<rfc::sim::AgentId>(rng.below(64)),
                          static_cast<rfc::sim::AgentId>(64 + rng.below(64))};
      }
      return SchedulerSpec::adversarial(cfg);
    }
    default: {
      // The reactive adversary: every target rule × random knobs.
      rfc::sim::AdversarialConfig cfg;
      cfg.target = static_cast<rfc::sim::ReactiveTarget>(1 + rng.below(3));
      cfg.victim_fraction = rng.uniform01();
      cfg.budget = rng.below(10'000);
      if (rng.bernoulli(0.5)) {
        cfg.target_phase = static_cast<rfc::sim::AgentPhase>(
            1 + rng.below(5));
      }
      return SchedulerSpec::adversarial(cfg);
    }
  }
}

TEST(SchedulerSpecFuzz, RandomValidSpecsRoundTripAndBuild) {
  rfc::support::Xoshiro256 rng(0x5EEDu);
  for (int i = 0; i < 500; ++i) {
    const auto spec = random_valid_spec(rng);
    const std::string text = spec.to_string();
    // parse(to_string()) is the identity...
    const auto reparsed = rfc::sim::SchedulerSpec::parse(text);
    EXPECT_EQ(reparsed, spec) << text;
    // ...and the canonical form is a fixed point.
    EXPECT_EQ(reparsed.to_string(), text);
    // Every valid spec builds a live scheduler.
    EXPECT_NE(spec.make(), nullptr) << text;
  }
}

TEST(SchedulerSpecFuzz, MalformedTargetRuleNamesThrow) {
  // Mutations of the valid rule names must be rejected at make() with
  // std::invalid_argument — never accepted, coerced, or crashed on.
  rfc::support::Xoshiro256 rng(0xBADu);
  const std::vector<std::string> valid = {"min-cert", "laggard",
                                          "quorum-edge"};
  const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz-_0123456789";
  for (int i = 0; i < 300; ++i) {
    std::string rule = valid[rng.below(valid.size())];
    switch (rng.below(4)) {
      case 0:  // Flip one character.
        rule[rng.below(rule.size())] =
            kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
        break;
      case 1:  // Truncate.
        rule.resize(rng.below(rule.size()));
        break;
      case 2:  // Append garbage.
        rule += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
        break;
      default: {  // Random word.
        rule.clear();
        const auto len = 1 + rng.below(12);
        for (std::uint64_t c = 0; c < len; ++c) {
          rule += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
        }
        break;
      }
    }
    if (std::find(valid.begin(), valid.end(), rule) != valid.end()) {
      continue;  // The mutation landed on a real rule; skip.
    }
    const std::string text = "adversarial:target=" + rule;
    // The *grammar* is fine, so parse() accepts; the value check at make()
    // must throw.
    EXPECT_THROW(rfc::sim::SchedulerSpec::parse(text).make(),
                 std::invalid_argument)
        << text;
  }
}

TEST(SchedulerSpecFuzz, StructurallyMalformedTextThrowsAtParse) {
  const std::vector<std::string> malformed = {
      "",
      ":",
      ":p=1",
      "warp-drive",
      "synchronous:",
      "synchronous:,",
      "synchronous:shards",
      "synchronous:=4",
      "synchronous:shards=1,shards=2",       // Duplicate key.
      "adversarial:target=min-cert,target=laggard",
      "batched:block=3,,threads=2",
      "poisson:rate=1,",
  };
  for (const auto& text : malformed) {
    EXPECT_THROW(rfc::sim::SchedulerSpec::parse(text),
                 std::invalid_argument)
        << '"' << text << '"';
  }
  // Well-formed grammar with out-of-schema keys or broken values fails at
  // make() instead (where the policy schema is known).
  const std::vector<std::string> bad_values = {
      "sequential:warp=1",
      "poisson:rate=fast",
      "poisson:queue=wheel",
      "poisson:queue=heap,rate=-1",
      "batched:block=0",
      "batched:block=-3",
      "adversarial:victims=1+x",
      "adversarial:phase=warp",
      "adversarial:budget=1e3x",
  };
  for (const auto& text : bad_values) {
    EXPECT_THROW(rfc::sim::SchedulerSpec::parse(text).make(),
                 std::invalid_argument)
        << '"' << text << '"';
  }
}

// --------------------------------------------------------------------------
// NetworkSpec::parse fuzz: the network grammar must hold the same line the
// scheduler grammar does — valid specs round-trip and build, structural
// damage throws at parse(), and bad *values* throw at make() naming the
// offending key (never crash, never silently coerce or clamp).
// --------------------------------------------------------------------------

/// Draws a random *valid* network spec: a random subset of the probability
/// and count keys with in-range values.
rfc::sim::NetworkSpec random_valid_network_spec(
    rfc::support::Xoshiro256& rng) {
  std::string text = "network";
  char sep = ':';
  const auto add = [&](const std::string& key, const std::string& value) {
    text += sep;
    text += key + "=" + value;
    sep = ',';
  };
  const auto prob = [&rng] {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.6f", rng.uniform01());
    return std::string(buffer);
  };
  for (const char* key : {"drop", "dup", "reorder", "corrupt", "churn"}) {
    if (rng.bernoulli(0.4)) add(key, prob());
  }
  if (rng.bernoulli(0.4)) add("delay", std::to_string(rng.below(6)));
  if (rng.bernoulli(0.4)) add("rejoin", std::to_string(rng.below(10)));
  if (rng.bernoulli(0.5)) add("seed", std::to_string(rng.below(1 << 20)));
  return rfc::sim::NetworkSpec::parse(text);
}

TEST(NetworkSpecFuzz, RandomValidSpecsRoundTripAndBuild) {
  rfc::support::Xoshiro256 rng(0x0DDFACEu);
  for (int i = 0; i < 500; ++i) {
    const auto spec = random_valid_network_spec(rng);
    const std::string text = spec.to_string();
    const auto reparsed = rfc::sim::NetworkSpec::parse(text);
    EXPECT_EQ(reparsed, spec) << text;
    EXPECT_EQ(reparsed.to_string(), text);
    EXPECT_NE(spec.make(), nullptr) << text;
  }
}

TEST(NetworkSpecFuzz, MutatedSpecsThrowOrBuildButNeverCrash) {
  // Character-level mutations of valid specs: whatever the damage, the
  // outcome is a successful build or std::invalid_argument — nothing else.
  rfc::support::Xoshiro256 rng(0xFACADEu);
  const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz=,.:0123456789-";
  for (int i = 0; i < 500; ++i) {
    std::string text = random_valid_network_spec(rng).to_string();
    const auto mutations = 1 + rng.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      switch (rng.below(3)) {
        case 0:
          text[rng.below(text.size())] =
              kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
          break;
        case 1:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                         rng.below(text.size() + 1)),
                      kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
          break;
        default: text.resize(rng.below(text.size()) + 1); break;
      }
    }
    try {
      (void)rfc::sim::NetworkSpec::parse(text).make();
    } catch (const std::invalid_argument&) {
      // The only acceptable failure mode.
    }
  }
}

TEST(NetworkSpecFuzz, OutOfRangeValuesThrowAtMakeNamingTheKey) {
  // Satellite contract: value errors throw at make(), not parse(), and the
  // message carries the offending key — matching SchedulerSpec.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"network:drop=1.5", "drop"},
      {"network:drop=-0.1", "drop"},
      {"network:dup=2", "dup"},
      {"network:reorder=nan", "reorder"},
      {"network:corrupt=yes", "corrupt"},
      {"network:churn=1.01", "churn"},
      {"network:delay=-1", "delay"},
      {"network:delay=2.5", "delay"},
      {"network:rejoin=-3", "rejoin"},
      {"network:seed=0x", "seed"},
      {"network:drop=0.5,corrupt=1e9", "corrupt"},
  };
  for (const auto& [text, key] : bad) {
    const auto spec = rfc::sim::NetworkSpec::parse(text);  // Grammar is fine.
    try {
      spec.make();
      FAIL() << text << " built a model";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << text << " threw without naming \"" << key << "\": " << e.what();
    }
  }
  // Unknown keys are make()-time errors too, with the key in the message.
  try {
    rfc::sim::NetworkSpec::parse("network:jitter=0.5").make();
    FAIL() << "unknown key built a model";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("jitter"), std::string::npos)
        << e.what();
  }
}

TEST(NetworkSpecFuzz, StructurallyMalformedTextThrowsAtParse) {
  const std::vector<std::string> malformed = {
      "",
      ":",
      ":drop=0.1",
      "subspace",                        // Unknown policy.
      "network:",
      "network:,",
      "network:drop",
      "network:=0.1",
      "network:drop=0.1,drop=0.2",       // Duplicate key.
      "network:drop=0.1,,dup=0.2",
      "network:drop=0.1,",
  };
  for (const auto& text : malformed) {
    EXPECT_THROW(rfc::sim::NetworkSpec::parse(text), std::invalid_argument)
        << '"' << text << '"';
  }
}

TEST(EngineFuzz, TerminatesWhenChaosAgentsAllFinish) {
  // done_ flips with p=0.01 per round: by round 3000 all 16 agents are done
  // with overwhelming probability, and the engine must stop by itself.
  Engine engine({16, 4, nullptr});
  for (AgentId i = 0; i < 16; ++i) {
    engine.set_agent(i, std::make_unique<ChaosAgent>());
  }
  const std::uint64_t rounds = engine.run(10'000);
  EXPECT_LT(rounds, 10'000u);
  EXPECT_TRUE(engine.all_done());
}

}  // namespace
}  // namespace rfc::sim
