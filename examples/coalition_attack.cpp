// Coalition attack demo: the same attack against Protocol P and against the
// naive verification-free gossip election.
//
// A coalition of t agents wants its color to win.  Against the naive
// protocol, the beneficiary simply claims the minimal key and wins every
// time.  Against Protocol P, every such manipulation is caught by the
// Commitment/Verification machinery: the coalition either gains nothing or
// drives the protocol to ⊥ (which costs the coalition -χ too).
//
//   ./coalition_attack [--n=256] [--t=8] [--trials=400] [--gamma=4]
#include <cstdio>

#include "analysis/equilibrium.hpp"
#include "baseline/naive_election.hpp"
#include "core/runner.hpp"
#include "rational/strategies.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 256));
  const auto t = static_cast<std::uint32_t>(args.get_uint("t", 8));
  const auto trials = args.get_uint("trials", 400);
  const double gamma = args.get_double("gamma", 4.0);
  const auto seed = args.get_uint("seed", 29);
  args.reject_unread();

  std::printf("coalition of %u vs %u agents, fair share = %.3f\n\n", t, n,
              static_cast<double>(t) / n);

  // --- Attack on the naive baseline: one cheater suffices. ---------------
  std::uint64_t naive_wins = 0;
  for (std::uint64_t i = 0; i < trials; ++i) {
    rfc::baseline::NaiveElectionConfig cfg;
    cfg.n = n;
    cfg.gamma = gamma;
    cfg.seed = 1000 + i;
    cfg.colors.assign(n, 0);
    for (std::uint32_t j = 0; j < t; ++j) cfg.colors[j] = 1;
    cfg.cheaters = 1;  // Beneficiary claims key 0.
    const auto result = rfc::baseline::run_naive_election(cfg);
    if (result.winner == 1) ++naive_wins;
  }
  std::printf("naive gossip election, beneficiary claims key 0:\n");
  std::printf("  coalition win rate: %.3f  (fair share %.3f) -- broken\n\n",
              static_cast<double>(naive_wins) / trials,
              static_cast<double>(t) / n);

  // --- The same spirit of attack (and nine others) against Protocol P. ---
  rfc::support::Table table(
      {"deviation", "win rate", "fail rate", "utility(chi=1)", "verdict"});
  for (const auto strategy : rfc::rational::all_deviation_strategies()) {
    rfc::analysis::DeviationConfig cfg;
    cfg.n = n;
    cfg.gamma = gamma;
    cfg.coalition_size = t;
    cfg.strategy = strategy;
    cfg.seed = seed;
    const auto report = rfc::analysis::measure_deviation(cfg, trials);
    const double fair = report.fair_share;
    const bool profitable =
        report.win_ci().lo > fair || report.utility(1.0) > fair + 0.02;
    table.add_row({
        rfc::rational::to_string(strategy),
        rfc::support::Table::fmt(report.win_rate(), 3),
        rfc::support::Table::fmt(report.fail_rate(), 3),
        rfc::support::Table::fmt(report.utility(1.0), 3),
        profitable ? "PROFITABLE (!)" : "no gain",
    });
  }
  std::printf("Protocol P under the full deviation library:\n%s",
              table.render().c_str());
  std::printf("(honest row is the control: win rate == fair share)\n");
  return 0;
}
