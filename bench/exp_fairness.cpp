// E4 — Theorem 4 (fairness): Pr[color c wins] = N(A,c)/|A|.
//
// Four scenarios: balanced 2-color, skewed 90/10, three-way, and full
// leader election (every agent its own color).  For each we run many
// executions, compare observed winning shares against initial shares
// (Wilson 95% CIs), and run a chi-square goodness-of-fit test.
#include <algorithm>
#include <cmath>

#include "analysis/fairness.hpp"
#include "core/runner.hpp"
#include "exp_util.hpp"

namespace {

struct Scenario {
  const char* name;
  std::vector<double> fractions;  ///< Empty = leader election.
};

}  // namespace

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  rfc::exputil::print_header(
      "E4 (Theorem 4): fairness — Pr[c wins] = N(A,c)/|A|",
      "Expected shape: every observed share inside its 95% CI around the "
      "initial share; chi-square p-values not small.");

  const auto n =
      static_cast<std::uint32_t>(args.get_uint("n", 128));
  const auto trials = rfc::exputil::sweep_trials(args, 1500, 8000);
  const std::uint64_t master_seed = args.get_uint("seed", 404);
  const double gamma = args.get_double("gamma", 4.0);
  rfc::exputil::reject_unread(args);

  const std::vector<Scenario> scenarios = {
      {"balanced 50/50", {0.5, 0.5}},
      {"skewed 90/10", {0.9, 0.1}},
      {"three-way 60/30/10", {0.6, 0.3, 0.1}},
      {"leader election", {}},
  };

  for (const auto& scenario : scenarios) {
    rfc::core::RunConfig cfg;
    cfg.scheduler = scheduler;
    cfg.n = n;
    cfg.gamma = gamma;
    cfg.seed = master_seed;
    if (!scenario.fractions.empty()) {
      cfg.colors = rfc::core::split_colors(n, scenario.fractions);
    }
    const auto report = rfc::analysis::measure_fairness(cfg, trials);

    std::printf("--- %s (n=%u, %llu trials, %llu failures) ---\n",
                scenario.name, n,
                static_cast<unsigned long long>(report.trials),
                static_cast<unsigned long long>(report.failures));
    if (scenario.fractions.empty()) {
      // Leader election: 128 shares; summarize instead of listing.
      double max_dev = 0.0;
      std::size_t outside = 0;
      for (const auto& s : report.shares) {
        max_dev = std::max(max_dev, std::abs(s.observed - s.expected));
        if (!s.within_ci) ++outside;
      }
      std::printf("  %zu colors; max |observed-expected| = %.4f; "
                  "%zu/%zu outside 95%% CI (expect ~5%%)\n",
                  report.shares.size(), max_dev, outside,
                  report.shares.size());
    } else {
      rfc::support::Table table(
          {"color", "expected", "observed", "95% CI", "ok"});
      for (const auto& s : report.shares) {
        table.add_row({
            std::to_string(s.color),
            rfc::support::Table::fmt(s.expected, 4),
            rfc::support::Table::fmt(s.observed, 4),
            "[" + rfc::support::Table::fmt(s.ci.lo, 4) + ", " +
                rfc::support::Table::fmt(s.ci.hi, 4) + "]",
            s.within_ci ? "yes" : "NO",
        });
      }
      std::printf("%s", table.render().c_str());
      rfc::exputil::maybe_write_csv(args, table);
    }
    std::printf("  chi-square: stat=%.2f dof=%u p=%.3f\n\n",
                report.chi.statistic, report.chi.dof, report.chi.p_value);
  }
  return 0;
}
