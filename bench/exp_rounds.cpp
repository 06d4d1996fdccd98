// E1 — Theorem 4: Protocol P reaches fair consensus within O(log n) rounds.
//
// The protocol's schedule is 4·ceil(γ ln n)+1 rounds by construction; the
// empirical content of the theorem is that a *constant* γ (independent of n)
// already makes every execution succeed.  We sweep n and γ and report the
// success rate and the normalized round count (rounds / ln n), which must
// stay flat as n grows.
#include <cmath>

#include "analysis/montecarlo.hpp"
#include "core/runner.hpp"
#include "exp_util.hpp"
#include "support/math_util.hpp"
#include "support/stats.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  const auto network = rfc::exputil::network_spec(args);
  rfc::exputil::print_header(
      "E1 (Theorem 4): consensus in O(log n) rounds",
      "Expected shape: rounds/ln(n) flat in n; success rate 1.0 for gamma >= "
      "2 at every size.");

  const auto sizes = rfc::exputil::sweep_sizes(args);
  const auto trials = rfc::exputil::sweep_trials(args, 40, 200);
  const std::uint64_t master_seed = args.get_uint("seed", 101);
  rfc::exputil::reject_unread(args);
  const std::vector<double> gammas = {1.0, 2.0, 4.0};

  rfc::support::Table table({"n", "gamma", "rounds", "rounds/ln n",
                             "success rate", "min votes seen",
                             "find-min agree @ (of q)"});
  for (const auto n : sizes) {
    for (const double gamma : gammas) {
      rfc::core::RunConfig cfg;
      cfg.scheduler = scheduler;
      cfg.network = network;
      cfg.n = n;
      cfg.gamma = gamma;
      cfg.seed = master_seed;
      cfg.measure_convergence = true;

      std::uint64_t successes = 0;
      std::uint64_t rounds = 0;
      std::uint32_t min_votes = ~0u;
      rfc::support::OnlineStats agree_round;
      const auto results =
          rfc::analysis::run_trials<rfc::core::RunResult>(
              trials, cfg.seed,
              [&cfg](std::uint64_t seed, std::size_t) {
                rfc::core::RunConfig run = cfg;
                run.seed = seed;
                return rfc::core::run_protocol(run);
              });
      for (const auto& r : results) {
        if (!r.failed()) ++successes;
        rounds = r.rounds;
        min_votes = std::min(min_votes, r.events.min_votes);
        if (r.find_min_agreement_round !=
            rfc::core::RunResult::kNotMeasured) {
          agree_round.add(
              static_cast<double>(r.find_min_agreement_round) + 1);
        }
      }
      const auto q = rfc::support::round_count(gamma, n);
      table.add_row({
          rfc::support::Table::fmt_int(n),
          rfc::support::Table::fmt(gamma, 1),
          rfc::support::Table::fmt_int(rounds),
          rfc::support::Table::fmt(
              static_cast<double>(rounds) / std::log(n), 2),
          rfc::support::Table::fmt(
              static_cast<double>(successes) / static_cast<double>(trials),
              3),
          rfc::support::Table::fmt_int(min_votes),
          rfc::support::Table::fmt(agree_round.mean(), 1) + " of " +
              std::to_string(q),
      });
    }
  }
  rfc::exputil::print_table(
      args,
      table,
      "rounds/ln(n) ~= 4*gamma + o(1): logarithmic round complexity with a "
      "constant that does not grow with n.");
  return 0;
}
