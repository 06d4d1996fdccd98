// Shared CLI plumbing of the transport binaries: `node` (one node process)
// and `exp_socket` (the launcher) must agree on every workload flag — both
// sides derive the same Workload from the same flags, or the cross-check
// is comparing different experiments.  The NODE-REPORT line is the
// machine-readable channel from a node process back to the launcher.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "net/harness.hpp"
#include "sim/fault_model.hpp"
#include "support/cli.hpp"

namespace rfc::benchnet {

inline rfc::sim::FaultPlacement parse_placement(const std::string& text) {
  for (const auto p : rfc::sim::all_fault_placements()) {
    if (rfc::sim::to_string(p) == text) return p;
  }
  throw std::invalid_argument("unknown fault placement '" + text + "'");
}

inline rfc::gossip::Mechanism parse_mechanism(const std::string& text) {
  for (const auto m : rfc::gossip::all_mechanisms()) {
    if (rfc::gossip::to_string(m) == text) return m;
  }
  throw std::invalid_argument("unknown gossip mechanism '" + text + "'");
}

/// Builds the cluster spec for one workload kind from the shared flags:
/// --n, --seed, --scheduler, --faulty, --placement, --mechanism,
/// --rumor-bits, --gamma, --nodes, --timeout-ms.
inline rfc::net::ClusterSpec cluster_spec_from_cli(
    const rfc::support::CliArgs& args, rfc::net::ClusterSpec::Kind kind) {
  rfc::net::ClusterSpec spec;
  spec.kind = kind;
  spec.num_nodes = static_cast<std::uint32_t>(args.get_uint("nodes", 4));
  spec.sync_timeout_ms =
      static_cast<int>(args.get_uint("timeout-ms", 30000));
  spec.resend_interval_ms =
      static_cast<int>(args.get_uint("resend-ms", 150));
  spec.linger_ms = static_cast<int>(args.get_uint("linger-ms", 0));

  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 48));
  const std::uint64_t seed = args.get_uint("seed", 1234);
  const auto scheduler =
      rfc::sim::SchedulerSpec::parse(args.get("scheduler", "synchronous"));
  const auto num_faulty =
      static_cast<std::uint32_t>(args.get_uint("faulty", 0));
  const auto placement = parse_placement(args.get("placement", "random"));
  // Both workloads' flags are parsed whatever the kind: the launcher
  // forwards one flag set to every node, and each must accept all of it.
  const auto mechanism = parse_mechanism(args.get("mechanism", "push-pull"));
  const std::uint64_t rumor_bits = args.get_uint("rumor-bits", 64);
  const double gamma = args.get_double("gamma", 4.0);

  if (kind == rfc::net::ClusterSpec::Kind::kRumor) {
    spec.rumor.n = n;
    spec.rumor.seed = seed;
    spec.rumor.scheduler = scheduler;
    spec.rumor.num_faulty = num_faulty;
    spec.rumor.placement =
        num_faulty == 0 ? rfc::sim::FaultPlacement::kNone : placement;
    spec.rumor.mechanism = mechanism;
    spec.rumor.rumor_bits = rumor_bits;
  } else {
    spec.protocol.n = n;
    spec.protocol.seed = seed;
    spec.protocol.scheduler = scheduler;
    spec.protocol.num_faulty = num_faulty;
    spec.protocol.placement =
        num_faulty == 0 ? rfc::sim::FaultPlacement::kNone : placement;
    spec.protocol.gamma = gamma;
  }
  return spec;
}

/// One line per node process, parsed back by the launcher.  The network /
/// churn counters are always zero on transport runs today (the NodeDriver
/// is adversary-free) but travel anyway, so the launcher-side cross-check
/// against the engine covers the full Metrics struct.
inline std::string format_node_report(const rfc::net::NodeReport& r) {
  char buffer[640];
  std::snprintf(
      buffer, sizeof buffer,
      "NODE-REPORT node=%" PRIu32 " first=%" PRIu32 " end=%" PRIu32
      " complete=%d rounds=%" PRIu64 " digest=0x%016" PRIx64
      " pushes=%" PRIu64 " pull_requests=%" PRIu64 " pull_replies=%" PRIu64
      " total_bits=%" PRIu64 " max_message_bits=%" PRIu64
      " active_links=%" PRIu64 " denials=%" PRIu64
      " net_drops=%" PRIu64 " net_dups=%" PRIu64 " net_corruptions=%" PRIu64
      " net_delays=%" PRIu64 " churn_crashes=%" PRIu64,
      r.node_id, r.first_label, r.end_label, r.complete ? 1 : 0, r.rounds,
      r.state_digest, r.metrics.pushes, r.metrics.pull_requests,
      r.metrics.pull_replies, r.metrics.total_bits,
      r.metrics.max_message_bits, r.metrics.active_links, r.metrics.denials,
      r.metrics.net_drops, r.metrics.net_dups, r.metrics.net_corruptions,
      r.metrics.net_delays, r.metrics.churn_crashes);
  return buffer;
}

/// Inverse of format_node_report; std::nullopt for any other line.
inline std::optional<rfc::net::NodeReport> parse_node_report(
    const std::string& line) {
  const auto start = line.find("NODE-REPORT ");
  if (start == std::string::npos) return std::nullopt;

  rfc::net::NodeReport r;
  int complete = 0;
  const int fields = std::sscanf(
      line.c_str() + start,
      "NODE-REPORT node=%" SCNu32 " first=%" SCNu32 " end=%" SCNu32
      " complete=%d rounds=%" SCNu64 " digest=0x%" SCNx64
      " pushes=%" SCNu64 " pull_requests=%" SCNu64 " pull_replies=%" SCNu64
      " total_bits=%" SCNu64 " max_message_bits=%" SCNu64
      " active_links=%" SCNu64 " denials=%" SCNu64
      " net_drops=%" SCNu64 " net_dups=%" SCNu64 " net_corruptions=%" SCNu64
      " net_delays=%" SCNu64 " churn_crashes=%" SCNu64,
      &r.node_id, &r.first_label, &r.end_label, &complete, &r.rounds,
      &r.state_digest, &r.metrics.pushes, &r.metrics.pull_requests,
      &r.metrics.pull_replies, &r.metrics.total_bits,
      &r.metrics.max_message_bits, &r.metrics.active_links,
      &r.metrics.denials, &r.metrics.net_drops, &r.metrics.net_dups,
      &r.metrics.net_corruptions, &r.metrics.net_delays,
      &r.metrics.churn_crashes);
  if (fields != 18) return std::nullopt;
  r.complete = complete != 0;
  return r;
}

}  // namespace rfc::benchnet
