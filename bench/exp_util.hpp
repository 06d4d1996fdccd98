// Shared plumbing for the experiment binaries (bench/exp_*.cpp).
//
// Every experiment regenerates one table of EXPERIMENTS.md.  Defaults are
// sized to finish in seconds; pass --full for the paper-scale sweep quoted
// in EXPERIMENTS.md (minutes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/budget.hpp"
#include "sim/network_spec.hpp"
#include "sim/scheduler_spec.hpp"
#include "support/cli.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"

namespace rfc::exputil {

/// Network sizes for scaling sweeps.  `--max-n=N` trims the sweep (CI smoke
/// runs use it to stay in the sub-second range); `--full` extends it to the
/// paper-scale sizes quoted in EXPERIMENTS.md; `--sizes=a,b,...` replaces
/// it with an explicit list (e.g. one size above the sweep), which
/// `--max-n` still trims.  A malformed list exits with status 2.
inline std::vector<std::uint32_t> sweep_sizes(
    const rfc::support::CliArgs& args) {
  std::vector<std::uint32_t> sizes = {64, 128, 256, 512, 1024, 2048};
  if (args.get_bool("full")) {
    sizes.insert(sizes.end(), {4096, 8192});
  }
  if (args.has("sizes")) {
    const std::string list = args.get("sizes", "");
    sizes.clear();
    std::size_t begin = 0;
    while (true) {
      const std::size_t end = std::min(list.find(',', begin), list.size());
      std::uint64_t n = 0;
      if (!rfc::support::parse_uint64(list.substr(begin, end - begin), n) ||
          n == 0 || n > UINT32_MAX) {
        std::fprintf(stderr,
                     "--sizes must be a comma-separated list of positive "
                     "network sizes, got '%s'\n",
                     list.c_str());
        std::exit(2);
      }
      sizes.push_back(static_cast<std::uint32_t>(n));
      if (end == list.size()) break;
      begin = end + 1;
    }
  }
  if (args.has("max-n")) {
    const std::uint64_t cap = args.get_uint("max-n", 0);
    std::vector<std::uint32_t> trimmed;
    for (const auto n : sizes) {
      if (n <= cap) trimmed.push_back(n);
    }
    if (trimmed.empty()) trimmed.push_back(sizes.front());
    sizes = std::move(trimmed);
  }
  return sizes;
}

/// Shared `--scheduler=SPEC` parsing (see sim/scheduler_spec.hpp for the
/// grammar).  Every experiment accepts the flag, so each protocol runs
/// under any registered activation policy; on a malformed spec the process
/// exits with the parse error and the registry listing.
///
/// `--shards=S` (and optionally `--shard-threads=T`) fold into the spec as
/// its shards=/threads= parameters, so `--shards=4` parallelizes the
/// synchronous round of any experiment — runs are bit-identical to the
/// serial engine for every S/T.  Policies without a sharded round
/// (sequential, adversarial, poisson) reject the flag with the usual
/// unknown-parameter error.
inline rfc::sim::SchedulerSpec scheduler_spec(
    const rfc::support::CliArgs& args,
    const std::string& def = "synchronous") {
  std::string text = args.get("scheduler", def);
  try {
    const auto fold_param = [&text](const std::string& key,
                                    std::uint64_t value) {
      text += text.find(':') == std::string::npos ? ':' : ',';
      text += key + "=" + std::to_string(value);
    };
    if (args.has("shards")) {
      fold_param("shards", args.get_uint("shards", 1));
    }
    if (args.has("shard-threads")) {
      if (!args.has("shards")) {
        // Alone it would fold threads= into a shards=1 spec, which never
        // builds a pool — refuse rather than silently run serial.
        throw std::invalid_argument(
            "--shard-threads requires --shards=N (a lone thread count "
            "would leave the run serial)");
      }
      fold_param("threads", args.get_uint("shard-threads", 0));
    }
    const auto spec = rfc::sim::SchedulerSpec::parse(text);
    spec.make();  // Validate parameter values up front, not mid-sweep.
    return spec;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\nregistered schedulers:\n%s", e.what(),
                 rfc::sim::SchedulerSpec::describe_registry().c_str());
    std::exit(2);
  }
}

/// Shared `--network=SPEC` parsing (see sim/network_spec.hpp for the
/// grammar).  Every experiment accepts the flag next to --scheduler, so any
/// registered message adversary (drop/dup/reorder/delay/corrupt, plus
/// churn) composes with any activation policy; the default is the reliable
/// network, bit-identical to running with no adversary at all.  On a
/// malformed spec the process exits with the parse error and the registry
/// listing.
inline rfc::sim::NetworkSpec network_spec(
    const rfc::support::CliArgs& args,
    const std::string& def = "network") {
  const std::string text = args.get("network", def);
  try {
    const auto spec = rfc::sim::NetworkSpec::parse(text);
    spec.make();  // Validate parameter values up front, not mid-sweep.
    return spec;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\nregistered network policies:\n%s", e.what(),
                 rfc::sim::NetworkSpec::describe_registry().c_str());
    std::exit(2);
  }
}

/// Shared run-budget flags: `--horizon=V` caps runs at V units of *virtual
/// time* (the scheduler's clock — Engine::run_until semantics, so the same
/// V means the same model time under every policy) and `--max-events=N`
/// caps discrete scheduling events.  Both unset returns an unbounded
/// Budget, letting each experiment's own default event cap apply.
inline rfc::sim::Budget run_budget(const rfc::support::CliArgs& args) {
  rfc::sim::Budget budget;
  if (args.has("horizon")) {
    budget.virtual_horizon = args.get_double("horizon", 0.0);
    if (!(budget.virtual_horizon > 0.0)) {
      std::fprintf(stderr, "--horizon must be a positive virtual time\n");
      std::exit(2);
    }
  }
  if (args.has("max-events")) {
    budget.events = args.get_uint("max-events", 0);
  }
  return budget;
}

inline std::uint64_t sweep_trials(const rfc::support::CliArgs& args,
                                  std::uint64_t fast_default,
                                  std::uint64_t full_default) {
  const bool full = args.get_bool("full");  // Read even when --trials wins.
  return args.get_uint("trials", full ? full_default : fast_default);
}

/// Ends an experiment's option parsing: exits with status 2, naming them,
/// if any flags were given that the experiment has not read by now.
/// --csv counts as read, since print_table consumes it after the run.
inline void reject_unread(const rfc::support::CliArgs& args) {
  args.has("csv");
  try {
    args.reject_unread();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

inline void print_header(const std::string& id, const std::string& claim) {
  std::printf("=== %s ===\n%s\n\n", id.c_str(), claim.c_str());
}

inline void print_table(const rfc::support::Table& table,
                        const std::string& note) {
  std::printf("%s", table.render().c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("\n");
}

inline void maybe_write_csv(const rfc::support::CliArgs& args,
                            const rfc::support::Table& table);

/// Prints the table and honours --csv=PATH.
inline void print_table(const rfc::support::CliArgs& args,
                        const rfc::support::Table& table,
                        const std::string& note) {
  print_table(table, note);
  maybe_write_csv(args, table);
}

/// With --csv=PATH, additionally writes the table as CSV (appending a
/// numeric suffix for an experiment's second and later tables).
inline void maybe_write_csv(const rfc::support::CliArgs& args,
                            const rfc::support::Table& table) {
  static int table_index = 0;
  ++table_index;
  if (!args.has("csv")) return;
  std::string path = args.get("csv", "");
  if (path.empty()) return;
  if (table_index > 1) {
    const auto dot = path.rfind('.');
    const std::string suffix = "." + std::to_string(table_index);
    if (dot == std::string::npos) {
      path += suffix;
    } else {
      path.insert(dot, suffix);
    }
  }
  if (!table.write_csv(path)) {
    std::fprintf(stderr, "failed to write CSV to %s\n", path.c_str());
  }
}

}  // namespace rfc::exputil
