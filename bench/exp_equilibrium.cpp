// E7 — Theorem 7: Protocol P is a w.h.p. t-strong equilibrium for
// t = o(n / log n).
//
// For each coalition size and each deviation strategy we measure the
// coalition's win rate and the beneficiary's expected utility
// (win - χ·fail), against the honest control (= the fair share |C|/|A|).
// Expected shape: no deviation's win-rate CI exceeds the fair share;
// failure-inducing deviations have *worse* utility than honesty.
//
// The ablation block repeats the two forging attacks with the completeness
// cross-check disabled (the naive literal reading of footnote 5), showing
// the check is load-bearing: the attacks then win outright.
#include <string>
#include <utility>

#include "analysis/equilibrium.hpp"
#include "exp_util.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  rfc::exputil::print_header(
      "E7 (Theorem 7): w.h.p. t-strong equilibrium",
      "Expected shape: every deviation's win rate <= fair share (within CI "
      "noise); utility(chi=1) never above the honest row.");

  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 256));
  const auto trials = rfc::exputil::sweep_trials(args, 200, 1500);
  const double gamma = args.get_double("gamma", 4.0);
  const double chi = args.get_double("chi", 1.0);
  const std::uint64_t master_seed = args.get_uint("seed", 707);
  rfc::exputil::reject_unread(args);
  const std::vector<std::uint32_t> coalition_sizes = {1, 8, 32};

  for (const auto t : coalition_sizes) {
    std::printf("--- coalition size t=%u (fair share %.4f) ---\n", t,
                static_cast<double>(t) / n);
    rfc::support::Table table({"deviation", "win rate", "95% CI",
                               "fail rate", "utility", "gain vs honest"});
    double honest_utility = 0.0;
    for (const auto strategy : rfc::rational::all_deviation_strategies()) {
      rfc::analysis::DeviationConfig cfg;
      cfg.scheduler = scheduler;
      cfg.n = n;
      cfg.gamma = gamma;
      cfg.coalition_size = t;
      cfg.strategy = strategy;
      cfg.seed = master_seed;
      const auto report = rfc::analysis::measure_deviation(cfg, trials);
      if (strategy == rfc::rational::DeviationStrategy::kHonest) {
        honest_utility = report.utility(chi);
      }
      const double gain = report.utility(chi) - honest_utility;
      // Appended piece by piece: GCC 12's LTO misjudges the bound of a
      // literal + std::string&& insert and warns (-Wstringop-overflow).
      std::string ci = "[";
      ci.append(rfc::support::Table::fmt(report.win_ci().lo, 4))
          .append(", ")
          .append(rfc::support::Table::fmt(report.win_ci().hi, 4))
          .append("]");
      std::string gain_text = gain > 0.01 ? "+" : "";
      gain_text.append(rfc::support::Table::fmt(gain, 4));
      table.add_row({
          rfc::rational::to_string(strategy),
          rfc::support::Table::fmt(report.win_rate(), 4),
          std::move(ci),
          rfc::support::Table::fmt(report.fail_rate(), 3),
          rfc::support::Table::fmt(report.utility(chi), 4),
          std::move(gain_text),
      });
    }
    rfc::exputil::print_table(args, table, "");
  }

  // Ablation: disable the completeness cross-check (verification checks
  // only the votes *present* in W_min against declarations).
  std::printf("--- ablation: verification without the completeness check "
              "(t=8) ---\n");
  rfc::support::Table ablation({"deviation", "strict", "win rate",
                                "fail rate"});
  for (const auto strategy :
       {rfc::rational::DeviationStrategy::kForgedEmptyCert,
        rfc::rational::DeviationStrategy::kForgedCoalitionCert,
        rfc::rational::DeviationStrategy::kVoteDrop}) {
    for (const bool strict : {true, false}) {
      rfc::analysis::DeviationConfig cfg;
      cfg.scheduler = scheduler;
      cfg.n = n;
      cfg.gamma = gamma;
      cfg.coalition_size = 8;
      cfg.strategy = strategy;
      cfg.strict_verification = strict;
      cfg.seed = master_seed;
      const auto report = rfc::analysis::measure_deviation(cfg, trials);
      ablation.add_row({
          rfc::rational::to_string(strategy),
          strict ? "yes" : "no",
          rfc::support::Table::fmt(report.win_rate(), 4),
          rfc::support::Table::fmt(report.fail_rate(), 3),
      });
    }
  }
  rfc::exputil::print_table(
      args,
      ablation,
      "Without completeness the forged-coalition-cert attack wins ~always: "
      "the cross-check is exactly the inconsistency the proof of Claim 1 "
      "relies on.");
  return 0;
}
