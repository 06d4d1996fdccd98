// E11 — open problem #1: GOSSIP rational fair consensus beyond the
// complete graph.
//
// We run (a) the pull-broadcast primitive and (b) the full Protocol P on
// four topology families.  Expected shape: expanders (random d-regular,
// dense Erdős–Rényi) behave like the complete graph — Θ(log n) broadcast,
// protocol succeeds and stays fair; the ring's Θ(n) diameter starves both
// the broadcast and the protocol's fixed Θ(log n) schedule, marking
// exactly where new ideas are needed.
#include <cmath>

#include "analysis/montecarlo.hpp"
#include "core/runner.hpp"
#include "exp_util.hpp"
#include "gossip/rumor.hpp"
#include "sim/topology.hpp"
#include "support/stats.hpp"

namespace {

struct TopoCase {
  const char* label;
  rfc::sim::TopologyPtr (*make)(std::uint32_t n, std::uint64_t seed);
};

rfc::sim::TopologyPtr complete(std::uint32_t n, std::uint64_t) {
  return rfc::sim::make_complete(n);
}
rfc::sim::TopologyPtr regular8(std::uint32_t n, std::uint64_t seed) {
  return rfc::sim::make_random_regular(n, 8, seed);
}
rfc::sim::TopologyPtr er_dense(std::uint32_t n, std::uint64_t seed) {
  const double p = 4.0 * std::log(static_cast<double>(n)) / n;
  return rfc::sim::make_erdos_renyi(n, p, seed);
}
rfc::sim::TopologyPtr ring2(std::uint32_t n, std::uint64_t) {
  return rfc::sim::make_ring(n, 2);
}

}  // namespace

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  rfc::exputil::print_header(
      "E11 (open problem #1): beyond the complete graph",
      "Expected shape: expanders match the complete graph (broadcast "
      "Θ(log n), protocol succeeds, fairness holds); the ring starves the "
      "log-round schedule.");

  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 512));
  const auto trials = rfc::exputil::sweep_trials(args, 100, 600);
  const double gamma = args.get_double("gamma", 4.0);
  const std::uint64_t master_seed = args.get_uint("seed", 112);
  rfc::exputil::reject_unread(args);

  const std::vector<TopoCase> cases = {
      {"complete", complete},
      {"random-8-regular", regular8},
      {"erdos-renyi (4 ln n / n)", er_dense},
      {"ring (k=2)", ring2},
  };

  rfc::support::Table table({"topology", "broadcast rounds", "rounds/log2 n",
                             "P success rate", "minority win rate",
                             "minority share"});
  for (const auto& c : cases) {
    // (a) Pull-broadcast convergence time.
    rfc::support::OnlineStats broadcast_rounds;
    for (std::uint64_t i = 0; i < 20; ++i) {
      rfc::gossip::SpreadConfig sc;
      sc.scheduler = scheduler;
      sc.n = n;
      sc.mechanism = rfc::gossip::Mechanism::kPushPull;
      sc.seed = 900 + i;
      sc.topology = c.make(n, 900 + i);
      sc.max_rounds = 50ull * n;
      const auto r = rfc::gossip::run_rumor_spreading(sc);
      broadcast_rounds.add(static_cast<double>(r.rounds));
    }

    // (b) Full Protocol P with a 30% minority color.
    std::uint64_t successes = 0, minority_wins = 0;
    const auto results = rfc::analysis::run_trials<rfc::core::RunResult>(
        trials, master_seed,
        [&](std::uint64_t seed, std::size_t index) {
          rfc::core::RunConfig cfg;
          cfg.scheduler = scheduler;
          cfg.n = n;
          cfg.gamma = gamma;
          cfg.seed = seed;
          cfg.colors = rfc::core::split_colors(n, {0.7, 0.3});
          cfg.topology = c.make(n, 7000 + index);
          return rfc::core::run_protocol(cfg);
        });
    for (const auto& r : results) {
      if (!r.failed()) {
        ++successes;
        if (r.winner == 1) ++minority_wins;
      }
    }

    table.add_row({
        c.label,
        rfc::support::Table::fmt(broadcast_rounds.mean(), 1),
        rfc::support::Table::fmt(
            broadcast_rounds.mean() / std::log2(n), 2),
        rfc::support::Table::fmt(
            static_cast<double>(successes) / static_cast<double>(trials),
            3),
        successes ? rfc::support::Table::fmt(
                        static_cast<double>(minority_wins) /
                            static_cast<double>(successes), 3)
                  : "-",
        rfc::support::Table::fmt(0.3, 3),
    });
  }
  rfc::exputil::print_table(
      args,
      table,
      "The protocol (unchanged) remains correct and fair on expanders; the "
      "ring needs Θ(n) rounds of broadcast, so the Θ(log n) schedule fails "
      "— the gap open problem #1 asks to close.");
  return 0;
}
