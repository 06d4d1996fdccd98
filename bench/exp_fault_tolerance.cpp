// E5 — Lemma 3 / Theorem 4: Protocol P tolerates any worst-case permanent
// fault pattern of up to αn agents, 0 <= α < 1, with γ = γ(α).
//
// We sweep the fault fraction α, the adversarial placement family, and γ,
// and report the success rate.  Expected shape: for every α < 1 there is a
// constant γ(α) (growing with α) with success rate 1.0, independent of the
// placement; too-small γ fails first at large α.
#include "analysis/montecarlo.hpp"
#include "core/runner.hpp"
#include "exp_util.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  const auto network = rfc::exputil::network_spec(args);
  rfc::exputil::print_header(
      "E5 (Lemma 3): tolerance of worst-case permanent faults",
      "Expected shape: success 1.0 once gamma >= gamma(alpha); placement "
      "family does not matter (the protocol is label-symmetric).");

  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 256));
  const auto trials = rfc::exputil::sweep_trials(args, 60, 400);
  const std::uint64_t master_seed = args.get_uint("seed", 505);
  rfc::exputil::reject_unread(args);
  const std::vector<double> alphas = {0.0, 0.1, 0.3, 0.5, 0.7};
  const std::vector<double> gammas = {2.0, 4.0, 8.0};

  // Placement sweep at fixed gamma.
  rfc::support::Table table({"alpha", "placement", "gamma", "success rate",
                             "mean min votes"});
  for (const double alpha : alphas) {
    for (const auto placement : rfc::sim::all_fault_placements()) {
      if (alpha == 0.0 && placement != rfc::sim::FaultPlacement::kNone) {
        continue;
      }
      if (alpha > 0.0 && placement == rfc::sim::FaultPlacement::kNone) {
        continue;
      }
      for (const double gamma : gammas) {
        rfc::core::RunConfig cfg;
        cfg.scheduler = scheduler;
        cfg.network = network;
        cfg.n = n;
        cfg.gamma = gamma;
        cfg.seed = master_seed;
        cfg.num_faulty = static_cast<std::uint32_t>(alpha * n);
        cfg.placement = placement;

        std::uint64_t successes = 0;
        double votes = 0;
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
          votes += r.events.min_votes;
        }
        table.add_row({
            rfc::support::Table::fmt(alpha, 1),
            rfc::sim::to_string(placement),
            rfc::support::Table::fmt(gamma, 1),
            rfc::support::Table::fmt(
                static_cast<double>(successes) /
                    static_cast<double>(trials), 3),
            rfc::support::Table::fmt(
                votes / static_cast<double>(trials), 1),
        });
      }
    }
  }
  rfc::exputil::print_table(
      args,
      table,
      "Failures at high alpha with small gamma are vote-starvation and "
      "incomplete Find-Min broadcasts — exactly the events gamma(alpha) "
      "buys back (Lemma 3).");
  return 0;
}
