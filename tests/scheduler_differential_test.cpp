// Cross-scheduler differential-testing harness.
//
// Reactive policies are the first schedulers whose behavior depends on
// agent *internals* (Agent::phase()/progress() through EngineView), so a
// bug can hide in any (policy, protocol) pairing rather than in a policy
// alone.  This harness runs every policy in the SchedulerSpec registry —
// via one or more representative specs each, including the reactive
// `target=` rules — over a grid of
//
//   {rumor spread, Protocol P, async Protocol P, naive election}
//     × {faults off, faults on} × {shards 1, shards 4}
//
// and asserts the invariants that must hold across the whole spectrum:
//
//   * starvation accounting: Metrics::denials never exceeds the configured
//     budget, and is exactly zero under non-adversarial policies;
//   * virtual time is monotone (positive per-step increments) and
//     policy-consistent (vt == events for unit-time policies, events/B for
//     batched, positive continuous increments for poisson);
//   * runs are deterministic per (spec, seed) — byte-identical metrics;
//   * sharded runs are bit-identical to serial for every policy that
//     accepts shards=;
//   * Metrics::merge_from is associative and commutative, the property the
//     sharded queue merge and Monte-Carlo pooling both lean on — including
//     exact denial sums under analysis::run_trials worker pooling.
//
// A new policy is exercised through its default spec until it gets
// representative specs here, so the harness covers it with no further
// wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "baseline/naive_election.hpp"
#include "core/async_protocol.hpp"
#include "core/runner.hpp"
#include "gossip/rumor.hpp"
#include "net/harness.hpp"
#include "sim/engine.hpp"
#include "sim/fault_model.hpp"
#include "sim/metrics.hpp"
#include "sim/network_spec.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::sim {
namespace {

// --------------------------------------------------------------------------
// The spec universe: every registered policy, via representative specs.
// --------------------------------------------------------------------------

std::vector<SchedulerSpec> specs_for(const std::string& policy) {
  if (policy == "synchronous") {
    return {SchedulerSpec::parse("synchronous")};
  }
  if (policy == "sequential") {
    return {SchedulerSpec::parse("sequential")};
  }
  if (policy == "partial-async") {
    return {SchedulerSpec::parse("partial-async:p=0.4")};
  }
  if (policy == "batched") {
    return {SchedulerSpec::parse("batched:block=3")};
  }
  if (policy == "poisson") {
    return {SchedulerSpec::parse("poisson:rate=2")};
  }
  if (policy == "adversarial") {
    // The static, phase-gated, and all three reactive targeting rules.
    return {
        SchedulerSpec::parse("adversarial:victim_fraction=0.25,budget=64"),
        SchedulerSpec::parse("adversarial:phase=vote,budget=64"),
        SchedulerSpec::parse("adversarial:target=min-cert,budget=64"),
        SchedulerSpec::parse(
            "adversarial:target=laggard,victim_fraction=0.1,budget=64"),
        SchedulerSpec::parse("adversarial:target=quorum-edge,budget=64"),
    };
  }
  // A policy without representative specs here: its default configuration.
  return {SchedulerSpec::parse(policy)};
}

std::vector<SchedulerSpec> all_specs() {
  std::vector<SchedulerSpec> out;
  for (const auto& policy : SchedulerSpec::registered_policies()) {
    for (auto& spec : specs_for(policy)) out.push_back(std::move(spec));
  }
  return out;
}

/// Appends shards=S,threads=T to a spec (policies that accept them).
SchedulerSpec with_shards(const SchedulerSpec& spec, std::uint32_t shards,
                          std::uint32_t threads) {
  const std::string text = spec.to_string();
  const char sep = spec.params().empty() ? ':' : ',';
  return SchedulerSpec::parse(text + sep + "shards=" +
                              std::to_string(shards) +
                              ",threads=" + std::to_string(threads));
}

bool accepts_shards(const SchedulerSpec& spec) {
  return spec.policy() == "synchronous" || spec.policy() == "partial-async" ||
         spec.policy() == "batched";
}

// --------------------------------------------------------------------------
// The workload grid.
// --------------------------------------------------------------------------

struct RunOutcome {
  Metrics metrics;
  std::uint64_t events = 0;
};

struct Workload {
  std::string name;
  std::function<RunOutcome(const SchedulerSpec&, const NetworkSpec&,
                           bool faults, std::uint64_t seed)>
      run;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"rumor",
       [](const SchedulerSpec& spec, const NetworkSpec& net, bool faults,
          std::uint64_t seed) {
         gossip::SpreadConfig cfg;
         cfg.n = 48;
         cfg.mechanism = gossip::Mechanism::kPushPull;
         cfg.seed = seed;
         cfg.scheduler = spec;
         cfg.network = net;
         cfg.num_faulty = faults ? 8 : 0;
         cfg.placement =
             faults ? FaultPlacement::kRandom : FaultPlacement::kNone;
         cfg.max_rounds = 200'000;
         const auto r = gossip::run_rumor_spreading(cfg);
         return RunOutcome{r.metrics, r.rounds};
       }},
      {"protocol-p",
       [](const SchedulerSpec& spec, const NetworkSpec& net, bool faults,
          std::uint64_t seed) {
         core::RunConfig cfg;
         cfg.n = 32;
         cfg.gamma = 3.0;
         cfg.seed = seed;
         cfg.scheduler = spec;
         cfg.network = net;
         cfg.num_faulty = faults ? 5 : 0;
         cfg.placement =
             faults ? FaultPlacement::kRandom : FaultPlacement::kNone;
         const auto r = core::run_protocol(cfg);
         return RunOutcome{r.metrics, r.rounds};
       }},
      {"async-p",
       [](const SchedulerSpec& spec, const NetworkSpec& net, bool faults,
          std::uint64_t seed) {
         core::AsyncRunConfig cfg;
         cfg.n = 32;
         cfg.gamma = 3.0;
         cfg.slack = 8;
         cfg.seed = seed;
         cfg.scheduler = spec;
         cfg.network = net;
         cfg.num_faulty = faults ? 5 : 0;
         cfg.placement =
             faults ? FaultPlacement::kRandom : FaultPlacement::kNone;
         const auto r = core::run_async_protocol(cfg);
         return RunOutcome{r.metrics, r.steps};
       }},
      {"naive-election",
       [](const SchedulerSpec& spec, const NetworkSpec& net, bool faults,
          std::uint64_t seed) {
         baseline::NaiveElectionConfig cfg;
         cfg.n = 32;
         cfg.seed = seed;
         cfg.scheduler = spec;
         cfg.network = net;
         cfg.num_faulty = faults ? 5 : 0;
         cfg.placement =
             faults ? FaultPlacement::kRandom : FaultPlacement::kNone;
         const auto r = baseline::run_naive_election(cfg);
         return RunOutcome{r.metrics, r.rounds};
       }},
  };
  return kWorkloads;
}

// --------------------------------------------------------------------------
// The network universe: the inert spec plus one representative of every
// fault axis and their composition — crossed with the scheduler universe
// below.  Permanent churn (rejoin=0) stays out of the grid: a crashed
// originator would leave completion-bounded workloads spinning to their
// round caps.
// --------------------------------------------------------------------------

std::vector<NetworkSpec> network_universe() {
  return {
      NetworkSpec::none(),
      NetworkSpec::parse("network:drop=0.15,seed=5"),
      NetworkSpec::parse("network:corrupt=0.1,seed=5"),
      NetworkSpec::parse("network:dup=0.2,reorder=0.2,seed=5"),
      NetworkSpec::parse("network:delay=2,seed=5"),
      NetworkSpec::parse("network:churn=0.01,rejoin=4,seed=5"),
      NetworkSpec::parse(
          "network:drop=0.1,dup=0.1,reorder=0.1,delay=2,corrupt=0.05,seed=5"),
  };
}

void expect_metrics_eq(const Metrics& a, const Metrics& b,
                       const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.virtual_time, b.virtual_time) << what;  // Bit-identical.
  EXPECT_EQ(a.pushes, b.pushes) << what;
  EXPECT_EQ(a.pull_requests, b.pull_requests) << what;
  EXPECT_EQ(a.pull_replies, b.pull_replies) << what;
  EXPECT_EQ(a.total_bits, b.total_bits) << what;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << what;
  EXPECT_EQ(a.active_links, b.active_links) << what;
  EXPECT_EQ(a.denials, b.denials) << what;
  EXPECT_EQ(a.net_drops, b.net_drops) << what;
  EXPECT_EQ(a.net_dups, b.net_dups) << what;
  EXPECT_EQ(a.net_corruptions, b.net_corruptions) << what;
  EXPECT_EQ(a.net_delays, b.net_delays) << what;
  EXPECT_EQ(a.churn_crashes, b.churn_crashes) << what;
}

std::string label(const SchedulerSpec& spec, const Workload& w, bool faults) {
  return spec.to_string() + " / " + w.name + (faults ? " +faults" : "");
}

// --------------------------------------------------------------------------
// Registry coverage
// --------------------------------------------------------------------------

TEST(SchedulerDifferential, EveryRegisteredPolicyYieldsRunnableSpecs) {
  const auto policies = SchedulerSpec::registered_policies();
  // The six built-ins must be present; a new policy only extends the grid.
  for (const char* name : {"synchronous", "sequential", "partial-async",
                           "batched", "adversarial", "poisson"}) {
    EXPECT_NE(std::find(policies.begin(), policies.end(), name),
              policies.end())
        << name;
  }
  for (const auto& policy : policies) {
    const auto specs = specs_for(policy);
    ASSERT_FALSE(specs.empty()) << policy;
    for (const auto& spec : specs) {
      EXPECT_EQ(spec.policy(), policy) << spec.to_string();
      EXPECT_NE(spec.make(), nullptr) << spec.to_string();
      // The value contract: the spec survives its own string round-trip.
      EXPECT_EQ(SchedulerSpec::parse(spec.to_string()), spec);
    }
  }
  // The reactive rules are part of the default universe.
  std::uint32_t reactive = 0;
  for (const auto& spec : all_specs()) {
    if (spec.has_param("target")) ++reactive;
  }
  EXPECT_EQ(reactive, 3u);
}

// --------------------------------------------------------------------------
// The main grid: denial accounting + determinism for every (spec, workload,
// faults) cell.
// --------------------------------------------------------------------------

TEST(SchedulerDifferential, DenialAccountingAndDeterminismAcrossGrid) {
  for (const auto& spec : all_specs()) {
    const bool adversarial = spec.policy() == "adversarial";
    const std::uint64_t budget = spec.param_uint("budget", 0);
    for (const Workload& w : workloads()) {
      for (const bool faults : {false, true}) {
        const std::string what = label(spec, w, faults);
        const auto a = w.run(spec, NetworkSpec::none(), faults, 1234);
        if (adversarial) {
          ASSERT_NE(budget, 0u) << what << " (grid specs cap their budget)";
          EXPECT_LE(a.metrics.denials, budget) << what;
        } else {
          EXPECT_EQ(a.metrics.denials, 0u) << what;
        }
        // The inert network really is inert: no faults ever metered.
        EXPECT_EQ(a.metrics.net_drops, 0u) << what;
        EXPECT_EQ(a.metrics.net_corruptions, 0u) << what;
        EXPECT_EQ(a.metrics.churn_crashes, 0u) << what;
        EXPECT_GT(a.events, 0u) << what;
        EXPECT_EQ(a.metrics.rounds, a.events) << what;
        // Deterministic per seed: observation-driven policies must stay a
        // pure function of (config, seed) like everyone else.
        const auto b = w.run(spec, NetworkSpec::none(), faults, 1234);
        expect_metrics_eq(a.metrics, b.metrics, what);
        EXPECT_EQ(a.events, b.events) << what;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Virtual time: monotone, positive increments, policy-consistent totals.
// --------------------------------------------------------------------------

TEST(SchedulerDifferential, VirtualTimeMonotoneAndPolicyConsistent) {
  for (const auto& spec : all_specs()) {
    Engine engine({24, 99, nullptr, spec.make()});
    for (AgentId i = 0; i < 24; ++i) {
      engine.set_agent(i, std::make_unique<gossip::RumorAgent>(
                              gossip::Mechanism::kPushPull, i == 0, 16));
    }
    double last = 0.0;
    bool monotone = true;
    engine.set_round_observer([&](const Engine& e) {
      if (!(e.virtual_time() > last)) monotone = false;
      last = e.virtual_time();
    });
    const std::uint64_t events = engine.run(120);
    EXPECT_TRUE(monotone) << spec.to_string()
                          << ": virtual time must strictly increase";
    EXPECT_EQ(events, 120u) << spec.to_string();
    const double vt = engine.virtual_time();
    if (spec.policy() == "batched") {
      const double blocks =
          static_cast<double>(spec.param_uint("block", 2));
      EXPECT_DOUBLE_EQ(vt, static_cast<double>(events) / blocks)
          << spec.to_string();
    } else if (spec.policy() == "poisson") {
      EXPECT_GT(vt, 0.0) << spec.to_string();
    } else if (spec.policy() == "synchronous" ||
               spec.policy() == "sequential" ||
               spec.policy() == "partial-async" ||
               spec.policy() == "adversarial") {
      // Unit-time policies: the virtual clock is the event count.
      EXPECT_DOUBLE_EQ(vt, static_cast<double>(events)) << spec.to_string();
    }
  }
}

// --------------------------------------------------------------------------
// Sharded runs must stay bit-identical to serial for every policy that
// accepts shards — including when the run also carries faults.
// --------------------------------------------------------------------------

TEST(SchedulerDifferential, ShardedRunsBitIdenticalToSerial) {
  std::uint32_t covered = 0;
  for (const auto& spec : all_specs()) {
    if (!accepts_shards(spec)) continue;
    ++covered;
    const auto sharded = with_shards(spec, 4, 2);
    for (const Workload& w : workloads()) {
      for (const bool faults : {false, true}) {
        const std::string what = label(sharded, w, faults);
        const auto serial = w.run(spec, NetworkSpec::none(), faults, 77);
        const auto split = w.run(sharded, NetworkSpec::none(), faults, 77);
        expect_metrics_eq(serial.metrics, split.metrics, what);
        EXPECT_EQ(serial.events, split.events) << what;
      }
    }
  }
  EXPECT_EQ(covered, 3u);  // synchronous, partial-async, batched.
}

// --------------------------------------------------------------------------
// Metrics::merge_from: associative and commutative over real run deltas —
// the property that makes sharded totals and Monte-Carlo pools exact.
// --------------------------------------------------------------------------

TEST(SchedulerDifferential, MetricsMergeAssociativeAndCommutative) {
  const auto& w = workloads().front();  // Rumor: cheap, message-heavy.
  // Deltas from an adversarial, a lossy/corrupting, and a plain run, so the
  // merge identities are checked with *every* counter populated — denials
  // from the scheduler adversary, net_*/churn_* from the network one.
  const Metrics a =
      w.run(SchedulerSpec::parse("adversarial:target=min-cert,budget=64"),
            NetworkSpec::none(), false, 1)
          .metrics;
  const Metrics b =
      w.run(SchedulerSpec::parse("poisson:rate=2"),
            NetworkSpec::parse(
                "network:drop=0.1,dup=0.1,corrupt=0.1,delay=2,seed=9"),
            true, 2)
          .metrics;
  const Metrics c =
      w.run(SchedulerSpec::parse("batched:block=3"),
            NetworkSpec::parse("network:churn=0.02,rejoin=3,seed=9"), false,
            3)
          .metrics;
  EXPECT_GT(b.net_drops + b.net_dups + b.net_corruptions + b.net_delays, 0u);
  EXPECT_GT(c.churn_crashes, 0u);

  Metrics ab = a;
  ab.merge_from(b);
  Metrics ab_c = ab;
  ab_c.merge_from(c);

  Metrics bc = b;
  bc.merge_from(c);
  Metrics a_bc = a;
  a_bc.merge_from(bc);

  expect_metrics_eq(ab_c, a_bc, "(a+b)+c vs a+(b+c)");

  Metrics ba = b;
  ba.merge_from(a);
  expect_metrics_eq(ab, ba, "a+b vs b+a");
}

// --------------------------------------------------------------------------
// Denials must sum exactly under analysis::run_trials worker pooling
// (satellite: today only single-run paths pin the denial meter).
// --------------------------------------------------------------------------

TEST(SchedulerDifferential, DenialsSumExactlyUnderMonteCarloPooling) {
  const auto spec =
      SchedulerSpec::parse("adversarial:victim_fraction=0.25,budget=40");
  // A live network adversary rides along so the pooling identity is pinned
  // for the net_*/churn_* counters in the same pass as denials.
  const auto net =
      NetworkSpec::parse("network:drop=0.1,corrupt=0.05,seed=31");
  const std::uint64_t kTrials = 12;
  const std::uint64_t kBaseSeed = 909;
  const auto trial = [&](std::uint64_t seed, std::size_t) {
    core::AsyncRunConfig cfg;
    cfg.n = 24;
    cfg.gamma = 3.0;
    cfg.slack = 6;
    cfg.seed = seed;
    cfg.scheduler = spec;
    cfg.network = net;
    return core::run_async_protocol(cfg);
  };

  // Parallel pool (forced multi-worker) vs the serial reference.
  const auto pooled = analysis::run_trials<core::AsyncRunResult>(
      kTrials, kBaseSeed, trial, /*threads=*/3);
  ASSERT_EQ(pooled.size(), kTrials);

  std::uint64_t serial_sum = 0;
  std::uint64_t serial_drops = 0, serial_corruptions = 0;
  Metrics pooled_total;
  std::uint64_t pooled_sum = 0;
  for (std::size_t i = 0; i < kTrials; ++i) {
    const auto reference =
        trial(rfc::support::derive_seed(kBaseSeed, i), i);
    // Trial i is byte-identical no matter which worker ran it.
    expect_metrics_eq(pooled[i].metrics, reference.metrics,
                      "trial " + std::to_string(i));
    EXPECT_LE(pooled[i].metrics.denials, 40u) << i;
    serial_sum += reference.metrics.denials;
    serial_drops += reference.metrics.net_drops;
    serial_corruptions += reference.metrics.net_corruptions;
    pooled_sum += pooled[i].metrics.denials;
    pooled_total.merge_from(pooled[i].metrics);
  }
  EXPECT_GT(serial_sum, 0u);
  EXPECT_EQ(pooled_sum, serial_sum);
  EXPECT_EQ(pooled_total.denials, serial_sum);
  EXPECT_GT(serial_drops, 0u);
  EXPECT_EQ(pooled_total.net_drops, serial_drops);
  EXPECT_EQ(pooled_total.net_corruptions, serial_corruptions);
}

// --------------------------------------------------------------------------
// The (scheduler × network) product: the message adversary must compose
// with every activation policy without breaking the harness invariants —
// per-seed determinism, zero-rate inertness, and shard-count independence.
// --------------------------------------------------------------------------

std::vector<SchedulerSpec> representative_schedulers() {
  return {
      SchedulerSpec::parse("synchronous"),
      SchedulerSpec::parse("sequential"),
      SchedulerSpec::parse("partial-async:p=0.4"),
      SchedulerSpec::parse("batched:block=3"),
      SchedulerSpec::parse("poisson:rate=2"),
      SchedulerSpec::parse("adversarial:victim_fraction=0.25,budget=64"),
  };
}

TEST(NetworkDifferential, SpecUniverseRoundTripsAndClassifiesInertness) {
  for (const auto& net : network_universe()) {
    EXPECT_EQ(NetworkSpec::parse(net.to_string()), net) << net.to_string();
    EXPECT_NE(net.make(), nullptr) << net.to_string();
  }
  EXPECT_TRUE(NetworkSpec::none().inert());
  EXPECT_TRUE(NetworkSpec::parse("network:drop=0,corrupt=0.0").inert());
  EXPECT_TRUE(NetworkSpec::parse("network:seed=42").inert());
  for (std::size_t i = 1; i < network_universe().size(); ++i) {
    EXPECT_FALSE(network_universe()[i].inert())
        << network_universe()[i].to_string();
  }
}

TEST(NetworkDifferential, SchedulerNetworkProductDeterministicPerSeed) {
  // Every (policy, network) cell is a pure function of (config, seed): the
  // fault verdicts are hashes of (seed, kind, time, endpoints), no RNG
  // stream is consumed, so two identical runs must agree byte for byte.
  const std::vector<Workload> grid = {workloads()[0], workloads()[2]};
  for (const auto& sched : representative_schedulers()) {
    for (const auto& net : network_universe()) {
      for (const Workload& w : grid) {
        const std::string what =
            sched.to_string() + " / " + net.to_string() + " / " + w.name;
        const auto a = w.run(sched, net, false, 4242);
        const auto b = w.run(sched, net, false, 4242);
        expect_metrics_eq(a.metrics, b.metrics, what);
        EXPECT_EQ(a.events, b.events) << what;
      }
    }
  }
  // The high-rate axes really bite on a message-heavy workload: drops and
  // corruptions are metered, and corruption never goes unmetered when the
  // rate is saturated onto every reply.
  const auto& rumor = workloads().front();
  EXPECT_GT(rumor
                .run(SchedulerSpec::parse("synchronous"),
                     NetworkSpec::parse("network:drop=0.15,seed=5"), false,
                     4242)
                .metrics.net_drops,
            0u);
  EXPECT_GT(rumor
                .run(SchedulerSpec::parse("synchronous"),
                     NetworkSpec::parse("network:dup=0.2,reorder=0.2,seed=5"),
                     false, 4242)
                .metrics.net_dups,
            0u);
  EXPECT_GT(rumor
                .run(SchedulerSpec::parse("synchronous"),
                     NetworkSpec::parse("network:delay=2,seed=5"), false,
                     4242)
                .metrics.net_delays,
            0u);
  EXPECT_GT(rumor
                .run(SchedulerSpec::parse("synchronous"),
                     NetworkSpec::parse("network:churn=0.01,rejoin=4,seed=5"),
                     false, 4242)
                .metrics.churn_crashes,
            0u);
}

TEST(NetworkDifferential, ZeroRateModelBitIdenticalToNoModelAtAll) {
  // The acceptance pin: installing the default NetworkSpec's model must be
  // indistinguishable from never calling set_network — same metrics, same
  // virtual time, across both the round path and the sequential path.
  for (const char* sched : {"synchronous", "sequential", "poisson:rate=2"}) {
    const auto spec = SchedulerSpec::parse(sched);
    Engine bare({24, 99, nullptr, spec.make()});
    Engine inert({24, 99, nullptr, spec.make(), NetworkSpec::none().make()});
    for (AgentId i = 0; i < 24; ++i) {
      bare.set_agent(i, std::make_unique<gossip::RumorAgent>(
                            gossip::Mechanism::kPushPull, i == 0, 16));
      inert.set_agent(i, std::make_unique<gossip::RumorAgent>(
                             gossip::Mechanism::kPushPull, i == 0, 16));
    }
    bare.run(200);
    inert.run(200);
    expect_metrics_eq(bare.metrics(), inert.metrics(), sched);
    EXPECT_EQ(bare.virtual_time(), inert.virtual_time()) << sched;
  }
}

TEST(NetworkDifferential, ShardedRunsBitIdenticalToSerialUnderActiveNetwork) {
  // The fault verdicts are pure hashes and the delayed/deferred flushes are
  // sorted into total orders, so S shards must reproduce the serial round
  // exactly even while the adversary drops, corrupts, delays, and crashes.
  const std::vector<Workload> grid = {workloads()[0], workloads()[1]};
  for (const auto& sched :
       {SchedulerSpec::parse("synchronous"),
        SchedulerSpec::parse("partial-async:p=0.4"),
        SchedulerSpec::parse("batched:block=3")}) {
    const auto sharded = with_shards(sched, 4, 2);
    for (const auto& net : network_universe()) {
      for (const Workload& w : grid) {
        const std::string what =
            sharded.to_string() + " / " + net.to_string() + " / " + w.name;
        const auto serial = w.run(sched, net, false, 77);
        const auto split = w.run(sharded, net, false, 77);
        expect_metrics_eq(serial.metrics, split.metrics, what);
        EXPECT_EQ(serial.events, split.events) << what;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Transport differential: the distributed node protocol (net/) over the
// deterministic loopback backend must be bit-identical to the in-memory
// engine for every round-based scheduler it supports, at matched seeds —
// the same identity the rest of this harness pins across schedulers, now
// pinned across the *execution substrate*.
// --------------------------------------------------------------------------

TEST(SchedulerDifferential, LoopbackTransportMatchesInMemoryEngine) {
  using rfc::net::ClusterSpec;
  for (const char* scheduler : {"synchronous", "partial-async:p=0.5"}) {
    for (const bool faults : {false, true}) {
      ClusterSpec rumor;
      rumor.kind = ClusterSpec::Kind::kRumor;
      rumor.num_nodes = 3;
      rumor.rumor.n = 48;
      rumor.rumor.seed = 4321;
      rumor.rumor.mechanism = gossip::Mechanism::kPushPull;
      rumor.rumor.num_faulty = faults ? 6 : 0;
      rumor.rumor.placement =
          faults ? FaultPlacement::kRandom : FaultPlacement::kNone;
      rumor.rumor.scheduler = SchedulerSpec::parse(scheduler);
      EXPECT_EQ(rfc::net::cross_check_local(rumor,
                                            rfc::net::TransportKind::kLoopback),
                "")
          << scheduler << " faults=" << faults;

      ClusterSpec protocol;
      protocol.kind = ClusterSpec::Kind::kProtocol;
      protocol.num_nodes = 3;
      protocol.protocol.n = 48;
      protocol.protocol.seed = 4321;
      protocol.protocol.num_faulty = faults ? 4 : 0;
      protocol.protocol.placement =
          faults ? FaultPlacement::kRandom : FaultPlacement::kNone;
      protocol.protocol.scheduler = SchedulerSpec::parse(scheduler);
      EXPECT_EQ(rfc::net::cross_check_local(protocol,
                                            rfc::net::TransportKind::kLoopback),
                "")
          << scheduler << " faults=" << faults;
    }
  }
}

}  // namespace
}  // namespace rfc::sim
