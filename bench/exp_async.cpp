// E12 — open problem #2: the asynchronous (sequential) GOSSIP model.
//
// One uniformly random agent wakes per step.  We measure rumor-spreading
// completion in *steps* and compare against the synchronous model's
// rounds × n (the natural exchange rate: n activations per synchronous
// round).  Expected shape: steps/(n ln n) flat — the sequential model costs
// a Θ(log n)-factor more activations than the synchronous one spends on a
// broadcast, and nothing worse; this is the substrate on which an
// asynchronous Protocol P would run.  All activation policies are selected
// through sim::SchedulerSpec; E12d/E12e sweep the registered spectrum,
// including the continuous-time Poisson clock.
#include <algorithm>
#include <cmath>
#include <string>

#include "analysis/montecarlo.hpp"
#include "baseline/naive_election.hpp"
#include "core/async_protocol.hpp"
#include "core/params.hpp"
#include "exp_util.hpp"
#include "gossip/rumor.hpp"
#include "sim/scheduler_spec.hpp"
#include "support/stats.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  rfc::exputil::print_header(
      "E12 (open problem #2): sequential GOSSIP substrate",
      "Expected shape: async steps / (n ln n) flat in n; sync rounds "
      "* n and async steps within a constant of each other per informed "
      "agent.");

  const auto sizes = rfc::exputil::sweep_sizes(args);
  const auto trials = rfc::exputil::sweep_trials(args, 20, 100);
  // The later sections read --n, --slack, --seed and the run budget with
  // defaults of their own; validate them now so a malformed or unknown
  // flag fails before the first run.
  args.get_uint("n", 0);
  args.get_uint("slack", 0);
  args.get_uint("seed", 0);
  rfc::exputil::run_budget(args);
  rfc::exputil::reject_unread(args);

  rfc::support::Table table({"n", "mechanism", "sync rounds", "async steps",
                             "steps/(n ln n)", "steps/(sync*n)",
                             "complete"});
  for (const auto n : sizes) {
    for (const auto mech :
         {rfc::gossip::Mechanism::kPushPull, rfc::gossip::Mechanism::kPull}) {
      rfc::support::OnlineStats sync_rounds, async_steps;
      std::uint64_t complete = 0;
      const auto results = rfc::analysis::run_trials<
          std::pair<rfc::gossip::SpreadResult, rfc::gossip::SpreadResult>>(
          trials, args.get_uint("seed", 113),
          [&](std::uint64_t seed, std::size_t) {
            rfc::gossip::SpreadConfig cfg;
            cfg.n = n;
            cfg.mechanism = mech;
            cfg.seed = seed;
            cfg.max_rounds = 10'000;
            const auto sync = rfc::gossip::run_rumor_spreading(cfg);
            cfg.scheduler = rfc::sim::SchedulerSpec::sequential();
            cfg.max_rounds = 200ull * n *
                             static_cast<std::uint64_t>(std::log(n) + 1);
            const auto async = rfc::gossip::run_rumor_spreading(cfg);
            return std::make_pair(sync, async);
          });
      for (const auto& [sync, async] : results) {
        sync_rounds.add(static_cast<double>(sync.rounds));
        async_steps.add(static_cast<double>(async.rounds));
        if (async.complete) ++complete;
      }
      const double n_ln_n = n * std::log(static_cast<double>(n));
      table.add_row({
          rfc::support::Table::fmt_int(n),
          rfc::gossip::to_string(mech),
          rfc::support::Table::fmt(sync_rounds.mean(), 1),
          rfc::support::Table::fmt(async_steps.mean(), 0),
          rfc::support::Table::fmt(async_steps.mean() / n_ln_n, 2),
          rfc::support::Table::fmt(
              async_steps.mean() / (sync_rounds.mean() * n), 2),
          rfc::support::Table::fmt(
              static_cast<double>(complete) / static_cast<double>(trials),
              2),
      });
    }
  }
  rfc::exputil::print_table(
      args,
      table,
      "A sequential activation schedule costs Θ(n log n) steps per "
      "broadcast — the coupon-collector price of unsynchronized wake-ups. "
      "Protocol P's phase alignment does not survive this model; providing "
      "it is the paper's second open problem.");

  // E12b: a concrete symptom of lost synchrony.  The naive (non-rational)
  // min-key election still *runs* asynchronously — each agent spends its q
  // pulls whenever it wakes — but agents now finish at different times, so
  // early finishers can freeze on a stale minimum.  Extra budget buys
  // agreement back.
  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 256));
  const auto trials2 = rfc::exputil::sweep_trials(args, 100, 500);
  rfc::support::Table t2({"budget multiplier", "agreement rate (async)",
                          "agreement rate (sync)"});
  for (const double mult : {0.5, 1.0, 2.0, 4.0}) {
    std::uint64_t async_ok = 0, sync_ok = 0;
    const auto results = rfc::analysis::run_trials<std::pair<bool, bool>>(
        trials2, args.get_uint("seed", 114),
        [&](std::uint64_t seed, std::size_t) {
          rfc::baseline::NaiveElectionConfig cfg;
          cfg.n = n;
          cfg.gamma = 4.0 * mult;  // Sync comparison at the same budget.
          cfg.seed = seed;
          const bool sync_agree =
              rfc::baseline::run_naive_election(cfg).agreement;
          cfg.gamma = 4.0;
          cfg.scheduler = rfc::sim::SchedulerSpec::sequential();
          cfg.budget_multiplier = mult;
          const bool async_agree =
              rfc::baseline::run_naive_election(cfg).agreement;
          return std::make_pair(async_agree, sync_agree);
        });
    for (const auto& [async_agree, sync_agree] : results) {
      if (async_agree) ++async_ok;
      if (sync_agree) ++sync_ok;
    }
    t2.add_row({
        rfc::support::Table::fmt(mult, 1),
        rfc::support::Table::fmt(
            static_cast<double>(async_ok) / static_cast<double>(trials2), 3),
        rfc::support::Table::fmt(
            static_cast<double>(sync_ok) / static_cast<double>(trials2), 3),
    });
  }
  rfc::exputil::print_table(
      args, t2,
      "Losing round alignment costs real reliability at equal budgets — "
      "the concrete obstacle an asynchronous Protocol P must overcome.");

  // E12c: our exploratory asynchronous Protocol P (core/async_protocol).
  // Guard bands of `slack` idle activations protect vote completeness, and
  // an extended Find-Min phase absorbs scheduling jitter.  We sweep the
  // slack and report success rate and fairness (50/50 split).
  const auto trials3 = rfc::exputil::sweep_trials(args, 120, 600);
  rfc::support::Table t3({"n", "slack", "success rate",
                          "color-1 win | success", "fair share",
                          "steps/agent"});
  for (const std::uint32_t pn : {96u, 256u}) {
    for (const std::uint32_t slack : {0u, 10u, 20u, 40u, 80u}) {
      std::uint64_t ok = 0, wins1 = 0;
      rfc::support::OnlineStats steps;
      const auto results =
          rfc::analysis::run_trials<rfc::core::AsyncRunResult>(
              trials3, args.get_uint("seed", 115),
              [&](std::uint64_t seed, std::size_t) {
                rfc::core::AsyncRunConfig cfg;
                cfg.n = pn;
                cfg.gamma = 4.0;
                cfg.slack = slack;
                cfg.seed = seed;
                cfg.colors.assign(pn, 0);
                for (std::uint32_t i = 0; i < pn / 2; ++i) {
                  cfg.colors[i] = 1;
                }
                return rfc::core::run_async_protocol(cfg);
              });
      for (const auto& r : results) {
        steps.add(static_cast<double>(r.steps) / pn);
        if (!r.failed()) {
          ++ok;
          if (r.winner == 1) ++wins1;
        }
      }
      t3.add_row({
          rfc::support::Table::fmt_int(pn),
          rfc::support::Table::fmt_int(slack),
          rfc::support::Table::fmt(
              static_cast<double>(ok) / static_cast<double>(trials3), 3),
          ok ? rfc::support::Table::fmt(
                   static_cast<double>(wins1) / static_cast<double>(ok), 3)
             : "-",
          "0.500",
          rfc::support::Table::fmt(steps.mean(), 0),
      });
    }
  }
  rfc::exputil::print_table(
      args, t3,
      "With slack ~ 2 sqrt(q log n) idle activations per barrier the full "
      "audit pipeline survives sequential scheduling and stays fair.  The "
      "*equilibrium* analysis of this variant remains open, as in the "
      "paper.");

  // E12d: the scheduler spectrum, selected entirely through SchedulerSpec.
  // PartialAsyncScheduler interpolates between the paper's lock-step rounds
  // (p = 1) and near-sequential wake-ups (p -> 1/n); batched delivery wakes
  // contiguous rack blocks in rotation; the adversarial policy starves a
  // victim subset; the Poisson clock is the continuous-time asynchronous
  // model, whose virtual time directly exposes the Θ(log n) broadcast
  // bound.  Broadcast cost is reported in *activations* (events x expected
  // awake agents) so all policies share one axis.  `--horizon=V` caps every
  // run at V units of virtual time (Engine::run_until semantics) — the
  // same horizon means the same model time under every policy.
  {
    const auto sn = static_cast<std::uint32_t>(args.get_uint("n", 256));
    const auto trials4 = rfc::exputil::sweep_trials(args, 20, 100);
    const rfc::sim::Budget budget = rfc::exputil::run_budget(args);
    rfc::support::Table t4({"scheduler", "events", "activations/agent",
                            "virtual time", "complete"});
    struct Policy {
      rfc::sim::SchedulerSpec spec;
      double awake_per_event;  ///< Expected activations per event.
    };
    const std::vector<Policy> policies = {
        {rfc::sim::SchedulerSpec::synchronous(), static_cast<double>(sn)},
        {rfc::sim::SchedulerSpec::partial_async(0.5), 0.5 * sn},
        {rfc::sim::SchedulerSpec::partial_async(0.1), 0.1 * sn},
        {rfc::sim::SchedulerSpec::batched(4), sn / 4.0},
        {rfc::sim::SchedulerSpec::sequential(), 1.0},
        {rfc::sim::SchedulerSpec::poisson(), 1.0},
        {rfc::sim::SchedulerSpec::adversarial({.victim_fraction = 0.25}),
         1.0},
    };
    rfc::support::ThreadPool pool(0);  // Shared across the policy sweep.
    for (const Policy& policy : policies) {
      rfc::support::OnlineStats events, virtual_time;
      std::uint64_t complete = 0;
      const auto results =
          rfc::analysis::run_trials<rfc::gossip::SpreadResult>(
              pool, trials4, args.get_uint("seed", 116),
              [&](std::uint64_t seed, std::size_t) {
                rfc::gossip::SpreadConfig cfg;
                cfg.n = sn;
                cfg.mechanism = rfc::gossip::Mechanism::kPushPull;
                cfg.seed = seed;
                cfg.scheduler = policy.spec;
                cfg.budget = budget;
                cfg.max_rounds =
                    400ull * sn *
                    static_cast<std::uint64_t>(std::log(sn) + 1);
                return rfc::gossip::run_rumor_spreading(cfg);
              });
      for (const auto& r : results) {
        events.add(static_cast<double>(r.rounds));
        virtual_time.add(r.virtual_time);
        if (r.complete) ++complete;
      }
      t4.add_row({
          policy.spec.to_string(),
          rfc::support::Table::fmt(events.mean(), 0),
          rfc::support::Table::fmt(
              events.mean() * policy.awake_per_event / sn, 1),
          rfc::support::Table::fmt(virtual_time.mean(), 1),
          rfc::support::Table::fmt(
              static_cast<double>(complete) / static_cast<double>(trials4),
              2),
      });
    }
    rfc::exputil::print_table(
        args, t4,
        "One engine, seven wake models behind one SchedulerSpec: broadcast "
        "pays ~log n activations per agent under every non-adversarial "
        "policy (the Poisson clock's virtual time reads the Θ(log n) bound "
        "off directly), while the starvation adversary shifts the whole "
        "cost onto passive receptions — the robustness axis the rational "
        "analysis must eventually survive.");
  }

  // E12e (ROADMAP): the guard-band async Protocol P under the scheduler
  // spectrum — where does its completeness argument break?  The local
  // schedule counts own activations, so round-based policies keep agents
  // aligned (every agent wakes ~every event) while starvation desynchronizes
  // victims by construction.
  {
    const auto trials5 = rfc::exputil::sweep_trials(args, 60, 300);
    const auto pn = static_cast<std::uint32_t>(args.get_uint("n", 96));
    const auto slack =
        static_cast<std::uint32_t>(args.get_uint("slack", 40));
    rfc::support::Table t5({"scheduler", "success rate",
                            "color-1 win | success", "events/agent"});
    const std::vector<rfc::sim::SchedulerSpec> specs = {
        rfc::sim::SchedulerSpec::sequential(),
        rfc::sim::SchedulerSpec::poisson(),
        rfc::sim::SchedulerSpec::partial_async(0.5),
        rfc::sim::SchedulerSpec::partial_async(0.1),
        rfc::sim::SchedulerSpec::adversarial({.victim_fraction = 0.25}),
    };
    rfc::support::ThreadPool pool(0);
    for (const auto& spec : specs) {
      std::uint64_t ok = 0, wins1 = 0;
      rfc::support::OnlineStats events;
      const auto results =
          rfc::analysis::run_trials<rfc::core::AsyncRunResult>(
              pool, trials5, args.get_uint("seed", 117),
              [&](std::uint64_t seed, std::size_t) {
                rfc::core::AsyncRunConfig cfg;
                cfg.n = pn;
                cfg.gamma = 4.0;
                cfg.slack = slack;
                cfg.seed = seed;
                cfg.scheduler = spec;
                cfg.colors.assign(pn, 0);
                for (std::uint32_t i = 0; i < pn / 2; ++i) {
                  cfg.colors[i] = 1;
                }
                return rfc::core::run_async_protocol(cfg);
              });
      for (const auto& r : results) {
        events.add(static_cast<double>(r.steps) / pn);
        if (!r.failed()) {
          ++ok;
          if (r.winner == 1) ++wins1;
        }
      }
      t5.add_row({
          spec.to_string(),
          rfc::support::Table::fmt(
              static_cast<double>(ok) / static_cast<double>(trials5), 3),
          ok ? rfc::support::Table::fmt(
                   static_cast<double>(wins1) / static_cast<double>(ok), 3)
             : "-",
          rfc::support::Table::fmt(events.mean(), 0),
      });
    }
    rfc::exputil::print_table(
        args, t5,
        "Guard bands tuned for uniformly random wake-ups survive the "
        "Poisson clock (same wake distribution, different time axis) and "
        "round-based policies, but targeted starvation defeats any fixed "
        "slack: victims burn their guard band while favored agents run "
        "ahead — the completeness argument needs scheduler-aware slack, "
        "not more of it.");
  }

  // E12f: the *adaptive* adversary.  The paper's worst-case scheduler picks
  // whom to starve from what the protocol is doing; with the EngineView
  // observation hook the adversarial policy can spend its starvation budget
  // exactly on agents entering their voting window
  // (adversarial:phase=vote,budget=B) instead of pinning a victim set for
  // the whole run.  At equal n, guard band, and victim set, we sweep the
  // budget B and compare against the static victims= adversary; the cost
  // axis is Metrics::denials — wake-ups the policy withheld from an
  // eligible agent.  Expected shape: the static adversary defeats the
  // guard band spending ~total_activations·|victims| denials, while
  // phase=vote already defeats it at B ≈ (q+slack)·|victims| — the
  // adaptive adversary needs a strictly smaller budget because it starves
  // only where the completeness argument is vulnerable.
  {
    const auto trials6 = rfc::exputil::sweep_trials(args, 40, 200);
    const auto pn = static_cast<std::uint32_t>(args.get_uint("n", 96));
    const auto slack =
        static_cast<std::uint32_t>(args.get_uint("slack", 40));
    const auto params = rfc::core::ProtocolParams::make(pn, 4.0);
    std::vector<rfc::sim::AgentId> victims;
    for (rfc::sim::AgentId i = 0; i < std::max(1u, pn / 4); ++i) {
      victims.push_back(i);
    }
    const auto nv = static_cast<std::uint64_t>(victims.size());

    struct Adversary {
      std::string label;
      rfc::sim::SchedulerSpec spec;
    };
    std::vector<Adversary> adversaries = {
        {"static victims (whole run)",
         rfc::sim::SchedulerSpec::adversarial({.victim_ids = victims})}};
    for (const std::uint64_t budget :
         {params.q * nv / 2, params.q * nv, (params.q + slack) * nv,
          2 * (params.q + slack) * nv}) {
      adversaries.push_back(
          {"phase=vote, budget=" + std::to_string(budget),
           rfc::sim::SchedulerSpec::adversarial(
               {.victim_ids = victims,
                .target_phase = rfc::sim::AgentPhase::kVote,
                .budget = budget})});
    }

    rfc::support::Table t6({"adversary", "success rate", "spent denials",
                            "events/agent"});
    rfc::support::ThreadPool pool(0);
    for (const Adversary& adv : adversaries) {
      std::uint64_t ok = 0;
      rfc::support::OnlineStats spent, events;
      const auto results =
          rfc::analysis::run_trials<rfc::core::AsyncRunResult>(
              pool, trials6, args.get_uint("seed", 118),
              [&](std::uint64_t seed, std::size_t) {
                rfc::core::AsyncRunConfig cfg;
                cfg.n = pn;
                cfg.gamma = 4.0;
                cfg.slack = slack;
                cfg.seed = seed;
                cfg.scheduler = adv.spec;
                cfg.colors.assign(pn, 0);
                for (std::uint32_t i = 0; i < pn / 2; ++i) {
                  cfg.colors[i] = 1;
                }
                return rfc::core::run_async_protocol(cfg);
              });
      for (const auto& r : results) {
        if (!r.failed()) ++ok;
        spent.add(static_cast<double>(r.metrics.denials));
        events.add(static_cast<double>(r.steps) / pn);
      }
      t6.add_row({
          adv.label,
          rfc::support::Table::fmt(
              static_cast<double>(ok) / static_cast<double>(trials6), 3),
          rfc::support::Table::fmt(spent.mean(), 0),
          rfc::support::Table::fmt(events.mean(), 0),
      });
    }
    rfc::exputil::print_table(
        args, t6,
        "The adaptive adversary defeats the guard band with a strictly "
        "smaller starvation budget than the static victim set: holding "
        "the victims' voting window closed for ~(q+slack) laps is enough "
        "to drop their votes past every sealed certificate, at a fraction "
        "of the denials the whole-run adversary burns.");
  }

  // E12g: the *reactive* adversary (ROADMAP's last scheduler item).  E12f's
  // phase adversary still pins its victim set up front; the paper's
  // worst-case scheduler re-plans from protocol state.  With the
  // Agent::progress() observation the adversarial policy can re-rank the
  // pool every step (adversarial:target=RULE): min-cert starves the current
  // weakest progress holder, laggard the most-skewed local clock,
  // quorum-edge the agents about to cross a phase boundary.  We map the
  // three rules against the phase-static and whole-run adversaries at
  // equal denial budgets.  Expected shape: tracking the minimum lets the
  // adversary concentrate its whole budget on one victim-of-the-moment, so
  // target=min-cert defeats the guard band at a budget near the *per-agent*
  // schedule length (4q+3·slack) — strictly smaller than the
  // (q+slack)·|victims| the phase=vote adversary needs, because a pinned
  // set must pay per victim for votes to drop, while the reactive rule only
  // needs one agent held behind the certificate seal.
  {
    const auto trials7 = rfc::exputil::sweep_trials(args, 40, 200);
    const auto pn = static_cast<std::uint32_t>(args.get_uint("n", 96));
    const auto slack =
        static_cast<std::uint32_t>(args.get_uint("slack", 40));
    const auto params = rfc::core::ProtocolParams::make(pn, 4.0);
    std::vector<rfc::sim::AgentId> victims;
    for (rfc::sim::AgentId i = 0; i < std::max(1u, pn / 4); ++i) {
      victims.push_back(i);
    }
    const auto nv = static_cast<std::uint64_t>(victims.size());
    // One agent's whole local schedule — the budget that lets a reactive
    // rule hold a single victim behind every sealed certificate.
    const std::uint64_t sched = 4ull * params.q + 3ull * slack;
    const std::uint64_t phase_budget = (params.q + slack) * nv;

    struct Adversary {
      std::string label;
      rfc::sim::SchedulerSpec spec;
    };
    const auto reactive = [&](rfc::sim::ReactiveTarget rule, double fraction,
                              std::uint64_t budget) {
      return rfc::sim::SchedulerSpec::adversarial(
          {.victim_fraction = fraction, .target = rule, .budget = budget});
    };
    // Equal-budget matrix: at budget B the reactive rules starve
    // ceil(B/sched) victims-of-the-moment (each costs one schedule length
    // of laps to hold behind the seal), while phase=vote spreads B over its
    // pinned |victims| set.
    std::vector<Adversary> adversaries = {
        {"static victims (whole run)",
         rfc::sim::SchedulerSpec::adversarial({.victim_ids = victims})}};
    for (const std::uint64_t budget :
         {sched, 2 * sched, 4 * sched, phase_budget}) {
      const auto b = std::to_string(budget);
      const double fraction =
          std::min(1.0, static_cast<double>((budget + sched - 1) / sched) /
                            static_cast<double>(pn));
      adversaries.push_back(
          {"phase=vote, budget=" + b,
           rfc::sim::SchedulerSpec::adversarial(
               {.victim_ids = victims,
                .target_phase = rfc::sim::AgentPhase::kVote,
                .budget = budget})});
      adversaries.push_back(
          {"target=min-cert, budget=" + b,
           reactive(rfc::sim::ReactiveTarget::kMinCert, fraction, budget)});
      adversaries.push_back(
          {"target=laggard, budget=" + b,
           reactive(rfc::sim::ReactiveTarget::kLaggard, fraction, budget)});
      adversaries.push_back(
          {"target=quorum-edge, budget=" + b,
           reactive(rfc::sim::ReactiveTarget::kQuorumEdge, 0.25, budget)});
    }

    rfc::support::Table t7({"adversary", "success rate", "spent denials",
                            "events/agent"});
    rfc::support::ThreadPool pool(0);
    for (const Adversary& adv : adversaries) {
      std::uint64_t ok = 0;
      rfc::support::OnlineStats spent, events;
      const auto results =
          rfc::analysis::run_trials<rfc::core::AsyncRunResult>(
              pool, trials7, args.get_uint("seed", 119),
              [&](std::uint64_t seed, std::size_t) {
                rfc::core::AsyncRunConfig cfg;
                cfg.n = pn;
                cfg.gamma = 4.0;
                cfg.slack = slack;
                cfg.seed = seed;
                cfg.scheduler = adv.spec;
                cfg.colors.assign(pn, 0);
                for (std::uint32_t i = 0; i < pn / 2; ++i) {
                  cfg.colors[i] = 1;
                }
                return rfc::core::run_async_protocol(cfg);
              });
      for (const auto& r : results) {
        if (!r.failed()) ++ok;
        spent.add(static_cast<double>(r.metrics.denials));
        events.add(static_cast<double>(r.steps) / pn);
      }
      t7.add_row({
          adv.label,
          rfc::support::Table::fmt(
              static_cast<double>(ok) / static_cast<double>(trials7), 3),
          rfc::support::Table::fmt(spent.mean(), 0),
          rfc::support::Table::fmt(events.mean(), 0),
      });
    }
    rfc::exputil::print_table(
        args, t7,
        "Reacting beats pinning: a pinned victim set is all-or-nothing — "
        "below (q+slack)·|victims| the guard band absorbs every denial "
        "(success 1.0), at it the protocol collapses.  target=min-cert and "
        "its clock-skew twin target=laggard instead convert *any* budget "
        "into failure probability: one schedule length of denials "
        "(4q+3·slack) holds one victim-of-the-moment behind every sealed "
        "certificate and already breaks the w.h.p. completeness guarantee, "
        "at ~7x less than the phase adversary's threshold.  quorum-edge "
        "spreads the same budget across phase boundaries and behaves like "
        "the pinned set.");
  }

  // E12h: the *message-layer* adversary (sim::NetworkSpec).  The scheduler
  // adversaries above withhold wake-ups; the network adversary attacks the
  // messages themselves — drops starve Find-Min of pull replies, corruption
  // feeds the verifier tampered certificates (which it must catch and
  // meter, never adopt).  We map success probability over a drop × corrupt
  // grid at fixed n, slack, and gamma; every run composes the network spec
  // with the sequential scheduler through the same AsyncRunConfig.  The
  // corruption column is the *caught* tamper count (Metrics::
  // net_corruptions counts flips applied in transit; every one a verifier
  // sees must be rejected — adopting one would poison agreement, so any
  // success-rate cliff here must come from *lost* information, not from
  // accepted forgeries).  The last column attributes the honest failures:
  // the share that Verification rejected, against Coherence mismatches and
  // agents that never decided.
  {
    const auto trials8 = rfc::exputil::sweep_trials(args, 40, 200);
    const auto pn = static_cast<std::uint32_t>(args.get_uint("n", 96));
    const auto slack =
        static_cast<std::uint32_t>(args.get_uint("slack", 40));
    rfc::support::Table t8({"network", "success rate", "net drops",
                            "net corruptions", "events/agent",
                            "verify-rejected share"});
    std::vector<rfc::sim::NetworkSpec> specs = {rfc::sim::NetworkSpec::none()};
    for (const double drop : {0.02, 0.05, 0.10}) {
      char text[64];
      std::snprintf(text, sizeof text, "network:drop=%g", drop);
      specs.push_back(rfc::sim::NetworkSpec::parse(text));
    }
    for (const double corrupt : {0.01, 0.05}) {
      char text[64];
      std::snprintf(text, sizeof text, "network:corrupt=%g", corrupt);
      specs.push_back(rfc::sim::NetworkSpec::parse(text));
    }
    specs.push_back(
        rfc::sim::NetworkSpec::parse("network:drop=0.05,corrupt=0.01"));
    rfc::support::ThreadPool pool(0);
    for (const auto& net : specs) {
      std::uint64_t ok = 0, failures = 0, rejected = 0;
      rfc::support::OnlineStats drops, corruptions, events;
      const auto results =
          rfc::analysis::run_trials<rfc::core::AsyncRunResult>(
              pool, trials8, args.get_uint("seed", 120),
              [&](std::uint64_t seed, std::size_t) {
                rfc::core::AsyncRunConfig cfg;
                cfg.n = pn;
                cfg.gamma = 4.0;
                cfg.slack = slack;
                cfg.seed = seed;
                cfg.network = net;
                cfg.colors.assign(pn, 0);
                for (std::uint32_t i = 0; i < pn / 2; ++i) {
                  cfg.colors[i] = 1;
                }
                return rfc::core::run_async_protocol(cfg);
              });
      for (const auto& r : results) {
        if (!r.failed()) ++ok;
        drops.add(static_cast<double>(r.metrics.net_drops));
        corruptions.add(static_cast<double>(r.metrics.net_corruptions));
        events.add(static_cast<double>(r.steps) / pn);
        failures += r.honest_failures;
        rejected +=
            r.honest_failures - r.failure_causes.coherence_or_undecided;
      }
      t8.add_row({
          net.to_string(),
          rfc::support::Table::fmt(
              static_cast<double>(ok) / static_cast<double>(trials8), 3),
          rfc::support::Table::fmt(drops.mean(), 0),
          rfc::support::Table::fmt(corruptions.mean(), 0),
          rfc::support::Table::fmt(events.mean(), 0),
          failures == 0 ? std::string("-")
                        : rfc::support::Table::fmt(
                              static_cast<double>(rejected) /
                                  static_cast<double>(failures),
                              3),
      });
    }
    rfc::exputil::print_table(
        args, t8,
        "Uniform loss degrades gracefully — the guard band and the pull "
        "budget absorb small drop rates, and failures appear as *incomplete "
        "votes*, not wrong winners.  Corruption is strictly weaker than "
        "loss at equal rates: every tampered certificate is caught by "
        "verification (metered above) and behaves like one more lost "
        "reply.  A forgery-accepting verifier would show up here as a "
        "success-rate *increase* under corruption — the differential "
        "harness pins the opposite.");
  }
  return 0;
}
