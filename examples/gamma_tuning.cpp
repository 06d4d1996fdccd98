// Practical γ(α) tuning: how a deployer picks the round multiplier.
//
// The paper's guarantees hold "for a suitable choice of γ = γ(α)" but never
// instantiates the constant.  This example does what an operator would do:
// for a target fault tolerance α and network size n, binary-search the
// smallest γ whose empirical failure rate over a trial batch is zero, then
// report the safety margin and the cost (rounds, bits) it buys.
//
//   ./gamma_tuning [--n=256] [--alpha=0.3] [--trials=150] [--margin=1.25]
#include <cstdio>

#include "analysis/montecarlo.hpp"
#include "core/runner.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

double failure_rate(std::uint32_t n, double gamma, double alpha,
                    std::uint64_t trials, std::uint64_t seed) {
  rfc::core::RunConfig cfg;
  cfg.n = n;
  cfg.gamma = gamma;
  cfg.num_faulty = static_cast<std::uint32_t>(alpha * n);
  cfg.placement = cfg.num_faulty > 0 ? rfc::sim::FaultPlacement::kRandom
                                     : rfc::sim::FaultPlacement::kNone;
  std::uint64_t failures = 0;
  const auto results = rfc::analysis::run_trials<rfc::core::RunResult>(
      trials, seed,
      [&cfg](std::uint64_t s, std::size_t) {
        rfc::core::RunConfig run = cfg;
        run.seed = s;
        return rfc::core::run_protocol(run);
      });
  for (const auto& r : results) {
    if (r.failed()) ++failures;
  }
  return static_cast<double>(failures) / static_cast<double>(trials);
}

}  // namespace

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 256));
  const double alpha = args.get_double("alpha", 0.3);
  const auto trials = args.get_uint("trials", 150);
  const double margin = args.get_double("margin", 1.25);
  const auto seed = args.get_uint("seed", 31);
  args.reject_unread();

  std::printf("tuning gamma for n=%u, alpha=%.2f (%llu trials per probe)\n\n",
              n, alpha, static_cast<unsigned long long>(trials));

  // Bracket: grow gamma geometrically until a zero-failure batch.
  double hi = 1.0;
  rfc::support::Table probes({"gamma", "failure rate"});
  double rate = 1.0;
  while (hi <= 64.0) {
    rate = failure_rate(n, hi, alpha, trials, seed);
    probes.add_row({rfc::support::Table::fmt(hi, 2),
                    rfc::support::Table::fmt(rate, 3)});
    if (rate == 0.0) break;
    hi *= 2.0;
  }
  if (rate > 0.0) {
    std::printf("no gamma <= 64 reached zero failures — alpha too high?\n");
    return 1;
  }

  // Bisect [hi/2, hi] to ~5% precision.
  double lo = hi / 2.0;
  while ((hi - lo) / hi > 0.05) {
    const double mid = (lo + hi) / 2.0;
    const double r = failure_rate(n, mid, alpha, trials, seed);
    probes.add_row({rfc::support::Table::fmt(mid, 2),
                    rfc::support::Table::fmt(r, 3)});
    (r == 0.0 ? hi : lo) = mid;
  }
  std::printf("%s\n", probes.render("probe history").c_str());

  const double recommended = hi * margin;
  rfc::core::RunConfig final_cfg;
  final_cfg.n = n;
  final_cfg.gamma = recommended;
  final_cfg.seed = seed;
  const auto run = rfc::core::run_protocol(final_cfg);
  const auto params = rfc::core::ProtocolParams::make(n, recommended);
  std::printf("smallest zero-failure gamma ~ %.2f; recommended (x%.2f "
              "margin): %.2f\n",
              hi, margin, recommended);
  std::printf("cost at recommended gamma: %llu rounds, %.1f KiB total, "
              "largest message %llu bits\n",
              static_cast<unsigned long long>(params.total_rounds()),
              static_cast<double>(run.metrics.total_bits) / 8192.0,
              static_cast<unsigned long long>(run.metrics.max_message_bits));
  return 0;
}
