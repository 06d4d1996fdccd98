// E13 — the prior-work comparison table (Section 1 of the paper).
//
// Reproduces, protocol-by-protocol, the qualitative comparison the paper's
// introduction makes: ADH-style LOCAL commit-reveal election [2] is fair
// and rationally robust but costs Θ(n^2) messages and dies on a single
// crash between commit and reveal; Protocol P matches the game-theoretic
// guarantees at O(n log^3 n) bits and tolerates αn permanent crashes.
#include "analysis/equilibrium.hpp"
#include "analysis/montecarlo.hpp"
#include "baseline/adh_election.hpp"
#include "core/runner.hpp"
#include "exp_util.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  rfc::exputil::print_header(
      "E13: prior work (ADH commit-reveal, LOCAL model) vs Protocol P",
      "Expected shape: ADH fair & rationally robust but Θ(n^2) msgs and "
      "0% success under one mid-protocol crash; P fair, robust, o(n^2), "
      "crash-tolerant.");

  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 256));
  const auto trials = rfc::exputil::sweep_trials(args, 300, 2000);
  const std::uint64_t master_seed = args.get_uint("seed", 1313);
  rfc::exputil::reject_unread(args);

  struct Row {
    const char* scenario;
    rfc::baseline::AdhDeviation deviation;
    std::uint32_t deviators;
    std::uint32_t pre_faults;
  };
  const std::vector<Row> adh_rows = {
      {"honest", rfc::baseline::AdhDeviation::kNone, 0, 0},
      {"1 crash mid-protocol", rfc::baseline::AdhDeviation::kCrashAfterCommit,
       1, 0},
      {"4 false reveals", rfc::baseline::AdhDeviation::kFalseReveal, 4, 0},
      {"4 abort-if-losing", rfc::baseline::AdhDeviation::kAbortIfLosing, 4,
       0},
      {"25% pre-protocol faults", rfc::baseline::AdhDeviation::kNone, 0,
       n / 4},
  };

  rfc::support::Table table({"protocol / scenario", "success rate",
                             "deviator-color win rate", "fair share",
                             "messages"});
  for (const auto& row : adh_rows) {
    std::uint64_t successes = 0, wins = 0, messages = 0;
    const std::uint32_t colored = std::max(row.deviators, 4u);
    const auto results =
        rfc::analysis::run_trials<rfc::baseline::AdhResult>(
            trials, master_seed,
            [&](std::uint64_t seed, std::size_t) {
              rfc::baseline::AdhConfig cfg;
              cfg.n = n;
              cfg.seed = seed;
              cfg.deviation = row.deviation;
              cfg.deviators = row.deviators;
              cfg.num_faulty = row.pre_faults;
              cfg.placement = row.pre_faults
                                  ? rfc::sim::FaultPlacement::kSuffix
                                  : rfc::sim::FaultPlacement::kNone;
              cfg.colors.assign(n, 0);
              for (std::uint32_t i = 0; i < colored; ++i) cfg.colors[i] = 1;
              return rfc::baseline::run_adh_election(cfg);
            });
    for (const auto& r : results) {
      messages = r.messages;
      if (!r.failed()) {
        ++successes;
        if (r.winner == 1) ++wins;
      }
    }
    table.add_row({
        std::string("ADH, ") + row.scenario,
        rfc::support::Table::fmt(
            static_cast<double>(successes) / static_cast<double>(trials),
            3),
        successes ? rfc::support::Table::fmt(
                        static_cast<double>(wins) /
                            static_cast<double>(successes), 3)
                  : "-",
        rfc::support::Table::fmt(
            static_cast<double>(colored) /
                static_cast<double>(n - row.pre_faults), 3),
        rfc::support::Table::fmt_int(messages),
    });
  }

  // Protocol P under the analogous stress: 25% permanent crashes AND an
  // 8-agent forging coalition, simultaneously.
  {
    rfc::analysis::DeviationConfig cfg;
    cfg.scheduler = scheduler;
    cfg.n = n;
    cfg.gamma = 6.0;  // gamma(0.25).
    cfg.coalition_size = 8;
    cfg.strategy = rfc::rational::DeviationStrategy::kForgedCoalitionCert;
    cfg.num_faulty = n / 4;
    cfg.seed = master_seed;
    const auto report = rfc::analysis::measure_deviation(cfg, trials);
    // "Success" for the deviated protocol = not converted to a coalition
    // win; failures are the protocol *detecting* the forgery.
    table.add_row({
        "Protocol P, 25% faults + 8 forgers",
        rfc::support::Table::fmt(1.0 - report.fail_rate(), 3),
        rfc::support::Table::fmt(report.win_rate(), 3),
        rfc::support::Table::fmt(report.fair_share, 3),
        "(see E3)",
    });

    rfc::analysis::DeviationConfig honest = cfg;
    honest.strategy = rfc::rational::DeviationStrategy::kHonest;
    const auto honest_report = rfc::analysis::measure_deviation(honest,
                                                                trials);
    table.add_row({
        "Protocol P, 25% faults, honest",
        rfc::support::Table::fmt(1.0 - honest_report.fail_rate(), 3),
        rfc::support::Table::fmt(honest_report.win_rate(), 3),
        rfc::support::Table::fmt(honest_report.fair_share, 3),
        "(see E3)",
    });
  }

  rfc::exputil::print_table(
      args, table,
      "ADH dies on one silent participant (crash or rational abort — "
      "indistinguishable); Protocol P absorbs 25% crashes and converts "
      "forgery attempts into detected failures, never into unfair wins, "
      "with gossip-scale communication.  gamma=6 keeps honest success at "
      "1.0 under alpha=0.25.");
  return 0;
}
