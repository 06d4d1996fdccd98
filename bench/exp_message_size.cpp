// E2 — Theorem 4: messages have size O(log^2 n) bits.
//
// The largest message of Protocol P is the winning certificate, whose W
// contains the Θ(log n) votes the winner received, each of Θ(log n) bits.
// We sweep n and report the largest message observed on the wire, normalized
// by log2(n)^2 — flat means the bound is tight.
#include <cmath>

#include "analysis/scaling.hpp"
#include "exp_util.hpp"

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  const auto scheduler = rfc::exputil::scheduler_spec(args);
  rfc::exputil::print_header(
      "E2 (Theorem 4): message size O(log^2 n) bits",
      "Expected shape: max-message-bits / log2(n)^2 flat in n; mean votes "
      "per certificate Θ(log n).");

  const auto sizes = rfc::exputil::sweep_sizes(args);
  const auto trials = rfc::exputil::sweep_trials(args, 24, 100);

  rfc::core::RunConfig base;
  base.scheduler = scheduler;
  base.gamma = args.get_double("gamma", 4.0);
  base.seed = args.get_uint("seed", 202);
  rfc::exputil::reject_unread(args);

  const auto sweep = rfc::analysis::measure_scaling(base, sizes, trials);

  rfc::support::Table table({"n", "max msg bits (mean)", "max msg bits (max)",
                             "bits/log2(n)^2", "max votes/agent",
                             "votes/ln n", "memory bits",
                             "memory/log2(n)^3"});
  for (const auto& p : sweep.points) {
    const double l = std::log2(static_cast<double>(p.n));
    table.add_row({
        rfc::support::Table::fmt_int(p.n),
        rfc::support::Table::fmt(p.max_message_bits.mean(), 0),
        rfc::support::Table::fmt(p.max_message_bits.max(), 0),
        rfc::support::Table::fmt(p.max_msg_per_log2_n(), 2),
        rfc::support::Table::fmt(p.max_votes.mean(), 1),
        rfc::support::Table::fmt(p.max_votes.mean() / std::log(p.n), 2),
        rfc::support::Table::fmt(p.local_memory_bits.mean(), 0),
        rfc::support::Table::fmt(
            p.local_memory_bits.mean() / (l * l * l), 2),
    });
  }
  rfc::exputil::print_table(
      args,
      table,
      "The largest message is always a certificate carrying Θ(log n) votes "
      "of Θ(log n) bits each.  Local memory is dominated by L_u: Θ(log n) "
      "audited intentions of Θ(log^2 n) bits (Θ(log^2 n) *words*, as the "
      "paper counts).");
  return 0;
}
