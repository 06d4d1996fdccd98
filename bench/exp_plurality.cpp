// E8b — plurality consensus ([6], 3-majority dynamics) solves a *different*
// problem than fair consensus.
//
// Plurality dynamics converge fast, but the initially most common color
// wins almost surely: the winning probability is a step function of the
// initial share.  Protocol P's fairness makes it exactly proportional.
// This experiment sweeps the initial share of color 1 and reports its
// winning frequency under both protocols — a step curve vs the diagonal.
#include "analysis/fairness.hpp"
#include "analysis/montecarlo.hpp"
#include "baseline/plurality.hpp"
#include "core/runner.hpp"
#include "exp_util.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  rfc::exputil::print_header(
      "E8b: plurality dynamics vs proportional fairness",
      "Expected shape: 3-majority win rate jumps 0 -> 1 around share 0.5; "
      "Protocol P's win rate tracks the share (the diagonal).");

  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 256));
  const auto trials = rfc::exputil::sweep_trials(args, 300, 2000);
  const std::uint64_t master_seed = args.get_uint("seed", 111);
  const double gamma = args.get_double("gamma", 4.0);
  rfc::exputil::reject_unread(args);
  const std::vector<double> shares = {0.1, 0.3, 0.4, 0.45, 0.5,
                                      0.55, 0.6, 0.7, 0.9};

  rfc::support::Table table({"share of color 1", "3-majority win rate",
                             "3-majority rounds", "Protocol P win rate",
                             "fair (diagonal)"});
  for (const double share : shares) {
    const auto colors = rfc::core::split_colors(n, {1.0 - share, share});

    std::uint64_t plurality_wins = 0;
    rfc::support::OnlineStats plurality_rounds;
    const auto p_results =
        rfc::analysis::run_trials<rfc::baseline::PluralityResult>(
            trials, master_seed,
            [&](std::uint64_t seed, std::size_t) {
              rfc::baseline::PluralityConfig cfg;
              cfg.n = n;
              cfg.seed = seed;
              cfg.colors = colors;
              return rfc::baseline::run_plurality_consensus(cfg);
            });
    for (const auto& r : p_results) {
      if (r.converged && r.winner == 1) ++plurality_wins;
      plurality_rounds.add(static_cast<double>(r.rounds));
    }

    std::uint64_t fair_wins = 0;
    const auto f_results =
        rfc::analysis::run_trials<rfc::core::RunResult>(
            trials, master_seed,
            [&](std::uint64_t seed, std::size_t) {
              rfc::core::RunConfig cfg;
              cfg.scheduler = scheduler;
              cfg.n = n;
              cfg.gamma = gamma;
              cfg.seed = seed;
              cfg.colors = colors;
              return rfc::core::run_protocol(cfg);
            });
    for (const auto& r : f_results) {
      if (!r.failed() && r.winner == 1) ++fair_wins;
    }

    const auto rate = [trials](std::uint64_t w) {
      return rfc::support::Table::fmt(
          static_cast<double>(w) / static_cast<double>(trials), 3);
    };
    table.add_row({
        rfc::support::Table::fmt(share, 2),
        rate(plurality_wins),
        rfc::support::Table::fmt(plurality_rounds.mean(), 1),
        rate(fair_wins),
        rfc::support::Table::fmt(share, 3),
    });
  }
  rfc::exputil::print_table(
      args,
      table,
      "Plurality consensus amplifies majorities (a sigmoid step at 1/2); "
      "fair consensus preserves minority chances exactly.");
  return 0;
}
