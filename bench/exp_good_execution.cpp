// E6 — Definitions 2 & 5: the "good execution" events hold w.h.p.
//
// Def. 2 (cooperative): (1) every active agent receives Θ(log n) votes,
// (2) all k_u distinct, (3) Find-Min reaches global agreement.
// Def. 5 (with a coalition): (1) every agent is commitment-audited by an
// honest agent, (3) every agent receives a vote from an honest agent the
// coalition did not pull.  We measure each event's empirical frequency.
#include <cmath>

#include "analysis/montecarlo.hpp"
#include "core/runner.hpp"
#include "exp_util.hpp"
#include "rational/strategies.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  rfc::exputil::print_header(
      "E6 (Def. 2 / Def. 5): good-execution events hold w.h.p.",
      "Expected shape: all event frequencies -> 1.0 with n for coalitions "
      "respecting t = o(n / log n); the oversized-coalition rows show the "
      "t bound of Theorem 7 is necessary (D5.3 collapses).");

  const auto trials = rfc::exputil::sweep_trials(args, 200, 1000);
  const auto sizes = rfc::exputil::sweep_sizes(args);
  const double gamma = args.get_double("gamma", 4.0);
  const std::uint64_t master_seed = args.get_uint("seed", 606);
  rfc::exputil::reject_unread(args);

  rfc::support::Table table({"n", "|C|", "C regime", "votes>=1", "k distinct",
                             "find-min agree", "audited (D5.1)",
                             "clean vote (D5.3)"});
  for (const auto n : sizes) {
    // Theorem-compliant coalition: t ~ n / (8 ln n) keeps the coalition's
    // total Commitment pulls (t*q = gamma*t*ln n) at most n/2, so honest
    // un-pulled voters still cover everyone.  The contrast row uses a
    // *linear* coalition (5% of n), which violates t = o(n / log n).
    const auto compliant = static_cast<std::uint32_t>(
        std::max(1.0, n / (8.0 * std::log(static_cast<double>(n)))));
    const auto oversized = std::max(1u, n / 20);
    for (const auto& [t, regime] :
         {std::pair{compliant, "o(n/log n)"},
          std::pair{oversized, "0.05 n (too big)"}}) {
      rfc::core::RunConfig cfg;
      cfg.scheduler = scheduler;
      cfg.n = n;
      cfg.gamma = gamma;
      cfg.seed = master_seed;
      for (std::uint32_t i = 0; i < t; ++i) cfg.coalition.push_back(i);
      // Coalition agents run the honest protocol here: Def. 5's events are
      // about what the *honest* agents achieve regardless of the coalition;
      // deviating strategies are exercised in E7.

      std::uint64_t votes_ok = 0, k_ok = 0, agree_ok = 0, audited_ok = 0,
                    clean_ok = 0;
      const auto results = rfc::analysis::run_trials<rfc::core::RunResult>(
          trials, cfg.seed,
          [&cfg](std::uint64_t seed, std::size_t) {
            rfc::core::RunConfig run = cfg;
            run.seed = seed;
            return rfc::core::run_protocol(run);
          });
      for (const auto& r : results) {
        if (r.events.min_votes >= 1) ++votes_ok;
        if (r.events.k_values_distinct) ++k_ok;
        if (r.events.find_min_agreement) ++agree_ok;
        if (r.events.every_agent_audited) ++audited_ok;
        if (r.events.every_agent_cleanly_voted) ++clean_ok;
      }
      const auto frac = [trials](std::uint64_t c) {
        return rfc::support::Table::fmt(
            static_cast<double>(c) / static_cast<double>(trials), 3);
      };
      table.add_row({rfc::support::Table::fmt_int(n),
                     rfc::support::Table::fmt_int(t), regime, frac(votes_ok),
                     frac(k_ok), frac(agree_ok), frac(audited_ok),
                     frac(clean_ok)});
    }
  }
  rfc::exputil::print_table(
      args,
      table,
      "These events are the preconditions of Claims 1-4; their w.h.p. "
      "failure probability is what the 1/n^Θ(1) terms absorb.");
  return 0;
}
