// Fair leader election under worst-case permanent faults.
//
// The special case the paper highlights: every agent's initial color is his
// own label, so fair consensus = electing a uniformly random *active* leader.
// We crash α·n agents with an adversarial placement and show that (a) the
// protocol still terminates, and (b) every active agent is elected with the
// same frequency — the faulty ones never.
//
//   ./leader_election [--n=64] [--alpha=0.3] [--gamma=6] [--trials=3000]
//                     [--placement=prefix|random|stride|clustered]
#include <cstdio>
#include <map>
#include <string>

#include "analysis/montecarlo.hpp"
#include "core/runner.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"

namespace {

rfc::sim::FaultPlacement parse_placement(const std::string& name) {
  for (const auto p : rfc::sim::all_fault_placements()) {
    if (rfc::sim::to_string(p) == name) return p;
  }
  std::fprintf(stderr, "unknown placement '%s', using prefix\n", name.c_str());
  return rfc::sim::FaultPlacement::kPrefix;
}

}  // namespace

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 64));
  const double alpha = args.get_double("alpha", 0.3);
  const auto trials = args.get_uint("trials", 3000);

  rfc::core::RunConfig config;
  config.n = n;
  config.gamma = args.get_double("gamma", 6.0);
  config.num_faulty = static_cast<std::uint32_t>(alpha * n);
  config.placement = parse_placement(args.get("placement", "prefix"));
  config.scheduler =
      rfc::sim::SchedulerSpec::parse(args.get("scheduler", "synchronous"));
  const auto master_seed = args.get_uint("seed", 11);
  args.reject_unread();
  // Leader election: colors default to labels.

  std::printf("fair leader election: n=%u, faulty=%u (%s placement), "
              "gamma=%.1f, scheduler=%s, %llu trials\n",
              n, config.num_faulty,
              rfc::sim::to_string(config.placement).c_str(), config.gamma,
              config.scheduler.to_string().c_str(),
              static_cast<unsigned long long>(trials));

  std::map<rfc::core::Color, std::uint64_t> elected;
  std::uint64_t failures = 0;
  rfc::support::OnlineStats rounds;
  const auto results = rfc::analysis::run_trials<rfc::core::RunResult>(
      trials, master_seed,
      [&config](std::uint64_t seed, std::size_t) {
        rfc::core::RunConfig cfg = config;
        cfg.seed = seed;
        return rfc::core::run_protocol(cfg);
      });
  for (const auto& r : results) {
    rounds.add(static_cast<double>(r.rounds));
    if (r.failed()) {
      ++failures;
    } else {
      ++elected[r.winner];
    }
  }

  const std::uint64_t successes = trials - failures;
  const std::uint32_t active = n - config.num_faulty;
  std::printf("failures: %llu / %llu;  mean rounds: %.1f\n",
              static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(trials), rounds.mean());
  std::printf("expected per-active-agent share: %.4f\n", 1.0 / active);

  // Histogram of election counts: faulty agents must be at zero, active
  // agents near trials/active.
  std::uint64_t faulty_wins = 0;
  rfc::support::OnlineStats share;
  for (std::uint32_t id = 0; id < n; ++id) {
    const auto it = elected.find(static_cast<rfc::core::Color>(id));
    const std::uint64_t wins = it == elected.end() ? 0 : it->second;
    const bool is_faulty_label =
        config.placement == rfc::sim::FaultPlacement::kPrefix &&
        id < config.num_faulty;
    if (is_faulty_label) {
      faulty_wins += wins;
    } else {
      share.add(static_cast<double>(wins) / static_cast<double>(successes));
    }
  }
  std::printf("faulty-label wins (must be 0 with prefix placement): %llu\n",
              static_cast<unsigned long long>(faulty_wins));
  std::printf("active-agent observed share: mean %.4f, min %.4f, max %.4f\n",
              share.mean(), share.min(), share.max());
  return 0;
}
