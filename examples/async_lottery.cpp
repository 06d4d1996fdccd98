// Proportional lottery in the *sequential* GOSSIP model, using the
// exploratory asynchronous Protocol P (core/async_protocol).
//
// Same scenario as token_lottery, but no global round synchronization: one
// random participant-agent wakes per step (think an opportunistic or
// low-power network).  Demonstrates the guard-band schedule in a realistic
// setting, including its costs (extra activations) and its limits (the
// rational analysis of the async variant is the paper's open problem #2).
//
//   ./async_lottery [--trials=300] [--slack=40] [--gamma=4]
//                   [--scheduler=sequential|poisson|partial-async:p=0.5|...]
#include <cstdio>
#include <map>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "core/async_protocol.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const std::vector<std::uint32_t> stakes = {40, 30, 20, 10};
  std::uint32_t total = 0;
  for (auto s : stakes) total += s;

  rfc::core::AsyncRunConfig config;
  config.n = total * 2;  // 200 agents.
  config.gamma = args.get_double("gamma", 4.0);
  config.slack = static_cast<std::uint32_t>(args.get_uint("slack", 40));
  config.scheduler =
      rfc::sim::SchedulerSpec::parse(args.get("scheduler", "sequential"));
  for (std::size_t p = 0; p < stakes.size(); ++p) {
    for (std::uint32_t t = 0; t < stakes[p] * 2; ++t) {
      config.colors.push_back(static_cast<rfc::core::Color>(p));
    }
  }

  const auto trials = args.get_uint("trials", 300);
  const auto master_seed = args.get_uint("seed", 37);
  args.reject_unread();
  std::printf("asynchronous token lottery: n=%u agents, slack=%u, "
              "scheduler=%s, %llu draws\n",
              config.n, config.slack,
              config.scheduler.to_string().c_str(),
              static_cast<unsigned long long>(trials));

  std::map<rfc::core::Color, std::uint64_t> wins;
  std::uint64_t failures = 0;
  rfc::support::OnlineStats steps;
  const auto results =
      rfc::analysis::run_trials<rfc::core::AsyncRunResult>(
          trials, master_seed,
          [&config](std::uint64_t seed, std::size_t) {
            rfc::core::AsyncRunConfig cfg = config;
            cfg.seed = seed;
            return rfc::core::run_async_protocol(cfg);
          });
  for (const auto& r : results) {
    steps.add(static_cast<double>(r.steps));
    if (r.failed()) {
      ++failures;
    } else {
      ++wins[r.winner];
    }
  }

  const std::uint64_t successes = trials - failures;
  rfc::support::Table table(
      {"participant", "stake share", "observed win share", "95% CI"});
  for (std::size_t p = 0; p < stakes.size(); ++p) {
    const std::uint64_t w = wins.count(static_cast<rfc::core::Color>(p))
                                ? wins.at(static_cast<rfc::core::Color>(p))
                                : 0;
    const auto ci = rfc::support::wilson_interval(w, successes);
    table.add_row({
        "P" + std::to_string(p),
        rfc::support::Table::fmt_pct(
            static_cast<double>(stakes[p]) / total),
        rfc::support::Table::fmt_pct(
            successes ? static_cast<double>(w) / successes : 0.0),
        "[" + rfc::support::Table::fmt_pct(ci.lo) + ", " +
            rfc::support::Table::fmt_pct(ci.hi) + "]",
    });
  }
  std::printf("%s", table.render().c_str());
  std::printf("failed draws: %llu / %llu (guard bands absorb scheduling "
              "jitter; raise --slack if nonzero)\n",
              static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(trials));
  std::printf("mean cost: %.0f sequential activations (~%.1f per agent)\n",
              steps.mean(), steps.mean() / config.n);
  return 0;
}
