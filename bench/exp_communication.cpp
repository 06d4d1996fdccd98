// E3 — total communication O(n log^3 n) bits vs the Ω(n^2) LOCAL baseline.
//
// The headline systems claim: prior rational fair consensus protocols
// [2, 3, 14] broadcast all-to-all (Ω(n^2) messages); Protocol P is the first
// with o(n^2) communication.  We sweep n, measure both, fit power laws, and
// locate the crossover.
#include <cmath>

#include "analysis/montecarlo.hpp"
#include "analysis/scaling.hpp"
#include "baseline/local_fair_election.hpp"
#include "exp_util.hpp"
#include "support/regression.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  rfc::exputil::print_header(
      "E3: total communication — Protocol P O(n log^3 n) vs LOCAL Ω(n^2)",
      "Expected shape: P's power-law exponent ~1 (plus log factors), "
      "baseline exactly 2; baseline overtakes P as n grows.");

  const auto sizes = rfc::exputil::sweep_sizes(args);
  const auto trials = rfc::exputil::sweep_trials(args, 16, 64);

  rfc::core::RunConfig base;
  base.scheduler = scheduler;
  base.gamma = args.get_double("gamma", 4.0);
  base.seed = args.get_uint("seed", 303);
  rfc::exputil::reject_unread(args);
  const auto sweep = rfc::analysis::measure_scaling(base, sizes, trials);

  // The same sweep with the coherence-digest optimization (64-bit
  // fingerprints in place of full certificates during Coherence).
  rfc::core::RunConfig digest_base = base;
  digest_base.coherence_digest = true;
  const auto digest_sweep =
      rfc::analysis::measure_scaling(digest_base, sizes, trials);

  rfc::support::Table table({"n", "P msgs", "P bits", "P bits/(n ln^3 n)",
                             "P+digest bits", "digest saves",
                             "LOCAL msgs", "LOCAL bits", "LOCAL/P bits"});
  std::vector<double> ns, local_bits_series;
  for (std::size_t idx = 0; idx < sweep.points.size(); ++idx) {
    const auto& p = sweep.points[idx];
    const auto& pd = digest_sweep.points[idx];
    // The LOCAL baseline is deterministic in its costs; one run suffices.
    rfc::baseline::LocalElectionConfig lc;
    lc.n = p.n;
    lc.seed = base.seed;
    const auto local = rfc::baseline::run_local_fair_election(lc);
    ns.push_back(static_cast<double>(p.n));
    local_bits_series.push_back(static_cast<double>(local.total_bits));

    table.add_row({
        rfc::support::Table::fmt_int(p.n),
        rfc::support::Table::fmt(p.messages.mean(), 0),
        rfc::support::Table::fmt(p.total_bits.mean(), 0),
        rfc::support::Table::fmt(p.bits_per_n_log3_n(), 3),
        rfc::support::Table::fmt(pd.total_bits.mean(), 0),
        rfc::support::Table::fmt_pct(
            1.0 - pd.total_bits.mean() / p.total_bits.mean(), 1),
        rfc::support::Table::fmt_int(local.messages),
        rfc::support::Table::fmt_int(local.total_bits),
        rfc::support::Table::fmt(
            static_cast<double>(local.total_bits) / p.total_bits.mean(), 2),
    });
  }

  const auto p_fit = sweep.total_bits_fit();
  const auto local_fit = rfc::support::fit_power(ns, local_bits_series);
  rfc::exputil::print_table(args, table, "");
  std::printf("power-law fit, total bits ~ C * n^e:\n");
  std::printf("  Protocol P : e = %.3f (R^2 = %.4f)  [~1 + log factors]\n",
              p_fit.exponent, p_fit.r_squared);
  std::printf("  LOCAL      : e = %.3f (R^2 = %.4f)  [exactly 2]\n",
              local_fit.exponent, local_fit.r_squared);
  std::printf("Who wins: LOCAL cheaper at small n (big protocol constants), "
              "P wins from the crossover on and the gap widens as n^%.2f.\n",
              local_fit.exponent - p_fit.exponent);
  return 0;
}
