// Quickstart: rational fair consensus in a dozen lines.
//
// A network of 1000 agents starts 60/40 split between two colors; Protocol P
// drives it to a monochromatic configuration in O(log n) rounds, and over
// many runs color 0 wins ~60% of the time — fairness by construction.
//
//   ./quickstart [--n=1000] [--trials=200] [--gamma=4] [--seed=7]
#include <cstdio>

#include "analysis/fairness.hpp"
#include "core/runner.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);

  rfc::core::RunConfig config;
  config.n = static_cast<std::uint32_t>(args.get_uint("n", 1000));
  config.gamma = args.get_double("gamma", 4.0);
  config.seed = args.get_uint("seed", 7);
  const auto trials = args.get_uint("trials", 200);
  args.reject_unread();
  config.colors = rfc::core::split_colors(config.n, {0.6, 0.4});

  // One execution: run the protocol and look at the outcome.
  const rfc::core::RunResult run = rfc::core::run_protocol(config);
  std::printf("single run : winner color = %lld (agent %u), %llu rounds, "
              "%llu messages, largest message %llu bits\n",
              static_cast<long long>(run.winner), run.winner_agent,
              static_cast<unsigned long long>(run.rounds),
              static_cast<unsigned long long>(run.metrics.messages()),
              static_cast<unsigned long long>(run.metrics.max_message_bits));

  // Many executions: the winning frequency matches the initial shares.
  const rfc::analysis::FairnessReport report =
      rfc::analysis::measure_fairness(config, trials);
  std::printf("over %llu runs: failures = %llu\n",
              static_cast<unsigned long long>(report.trials),
              static_cast<unsigned long long>(report.failures));
  for (const auto& share : report.shares) {
    std::printf("  color %lld: expected %.3f, observed %.3f  [%.3f, %.3f]\n",
                static_cast<long long>(share.color), share.expected,
                share.observed, share.ci.lo, share.ci.hi);
  }
  std::printf("chi-square p-value = %.3f (high = consistent with fairness)\n",
              report.chi.p_value);
  return 0;
}
