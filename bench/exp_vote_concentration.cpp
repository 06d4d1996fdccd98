// E10 — Definition 2(1) / Chernoff (Lemma 8): every active agent receives
// Θ(log n) votes.
//
// Each of the ~n active agents receives Binomial(|A| q, 1/n) votes with mean
// γ ln n · |A|/n; the Chernoff + union bound argument of Lemma 3 needs the
// *minimum* over agents to stay a constant fraction of the mean.  We sweep
// n and γ and report min/mean/max over all agents and trials.
#include <cmath>

#include "analysis/scaling.hpp"
#include "exp_util.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  rfc::exputil::print_header(
      "E10 (Def. 2.1): vote-count concentration around gamma ln n",
      "Expected shape: min votes > 0 always; min/mean ratio stable in n "
      "(concentration), mean ~= gamma ln n.");

  const auto sizes = rfc::exputil::sweep_sizes(args);
  const auto trials = rfc::exputil::sweep_trials(args, 24, 150);
  const std::uint64_t master_seed = args.get_uint("seed", 1010);
  rfc::exputil::reject_unread(args);

  rfc::support::Table table({"n", "gamma", "mean q=ceil(g ln n)", "min votes",
                             "max votes", "min/ln n", "max/ln n"});
  for (const double gamma : {2.0, 4.0}) {
    rfc::core::RunConfig base;
    base.scheduler = scheduler;
    base.gamma = gamma;
    base.seed = master_seed;
    const auto sweep = rfc::analysis::measure_scaling(base, sizes, trials);
    for (const auto& p : sweep.points) {
      const double ln_n = std::log(static_cast<double>(p.n));
      table.add_row({
          rfc::support::Table::fmt_int(p.n),
          rfc::support::Table::fmt(gamma, 1),
          rfc::support::Table::fmt(std::ceil(gamma * ln_n), 0),
          rfc::support::Table::fmt(p.min_votes.min(), 0),
          rfc::support::Table::fmt(p.max_votes.max(), 0),
          rfc::support::Table::fmt(p.min_votes.min() / ln_n, 2),
          rfc::support::Table::fmt(p.max_votes.max() / ln_n, 2),
      });
    }
  }
  rfc::exputil::print_table(
      args,
      table,
      "Both normalized extremes stay bounded away from 0 and infinity: the "
      "beta_1 log n <= X_u <= beta_2 log n window of Lemma 3's proof.");
  return 0;
}
