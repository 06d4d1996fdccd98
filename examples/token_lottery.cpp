// Proportional token lottery — the crypto-currency-flavoured scenario the
// paper's introduction motivates (decentralized systems "such as ...
// e-commerce, and crypto-currency", [18]).
//
// A pool of participants holds tokens; one lottery round must select a
// winning participant with probability proportional to his stake, with no
// trusted coordinator, few messages, and robustness to a selfish coalition.
// Encoding: participant p with s_p tokens controls s_p agents (one per
// token), all supporting color p.  Fair consensus then picks participant p
// with probability s_p / Σ s — a proportional lottery.
//
//   ./token_lottery [--trials=2000] [--gamma=4]
#include <cstdio>
#include <vector>

#include "analysis/fairness.hpp"
#include "core/runner.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);

  // Five participants with unequal stakes (tokens).
  const std::vector<std::uint32_t> stakes = {40, 25, 20, 10, 5};
  std::uint32_t total = 0;
  for (auto s : stakes) total += s;

  rfc::core::RunConfig config;
  config.n = total * 4;  // 4 agents per token: n = 400.
  config.gamma = args.get_double("gamma", 4.0);
  config.seed = args.get_uint("seed", 23);
  config.colors.reserve(config.n);
  for (std::size_t p = 0; p < stakes.size(); ++p) {
    for (std::uint32_t t = 0; t < stakes[p] * 4; ++t) {
      config.colors.push_back(static_cast<rfc::core::Color>(p));
    }
  }

  const auto trials = args.get_uint("trials", 2000);
  args.reject_unread();
  std::printf("token lottery: %zu participants, %u tokens, n=%u agents, "
              "%llu draws\n",
              stakes.size(), total, config.n,
              static_cast<unsigned long long>(trials));

  const auto report = rfc::analysis::measure_fairness(config, trials);

  rfc::support::Table table(
      {"participant", "stake", "expected", "observed", "95% CI", "ok"});
  for (const auto& share : report.shares) {
    const auto p = static_cast<std::size_t>(share.color);
    table.add_row({
        "P" + std::to_string(p),
        std::to_string(stakes[p]) + " tok",
        rfc::support::Table::fmt_pct(share.expected),
        rfc::support::Table::fmt_pct(share.observed),
        "[" + rfc::support::Table::fmt_pct(share.ci.lo) + ", " +
            rfc::support::Table::fmt_pct(share.ci.hi) + "]",
        share.within_ci ? "yes" : "NO",
    });
  }
  std::printf("%s", table.render().c_str());
  std::printf("failed draws: %llu / %llu;  chi-square p = %.3f\n",
              static_cast<unsigned long long>(report.failures),
              static_cast<unsigned long long>(report.trials),
              report.chi.p_value);
  std::printf("mean cost per draw: %.0f rounds, %.0f KiB on the wire\n",
              report.rounds.mean(), report.total_bits.mean() / 8192.0);
  return 0;
}
