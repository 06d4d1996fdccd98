// Cluster harness: run a workload as N communicating nodes and prove the
// execution equal to the in-memory engine's.
//
// The reference side deliberately reuses the production entry points
// (gossip::build_spread_engine + run_rumor_spreading_on,
// core::build_protocol_engine + run_protocol_on), so the comparison is
// against the exact loop experiments run — not a reimplementation.  The
// cross-check compares completion, executed rounds, every Metrics field,
// and the per-block FNV-1a end-state digests (certificates wire-encoded),
// which for the deterministic transports (loopback, tcp) must match bit
// for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "gossip/rumor.hpp"
#include "net/comm_client.hpp"
#include "net/node_driver.hpp"
#include "net/workload.hpp"

namespace rfc::net {

struct ClusterSpec {
  enum class Kind : std::uint8_t { kRumor, kProtocol };
  Kind kind = Kind::kRumor;
  gossip::SpreadConfig rumor;     ///< Used when kind == kRumor.
  core::RunConfig protocol;       ///< Used when kind == kProtocol.
  std::uint32_t num_nodes = 2;
  int sync_timeout_ms = 30000;
  /// Forwarded to NodeOptions (see net/node_driver.hpp): the resend-request
  /// cadence of stalled sync points, and how long a finished node keeps
  /// answering resend requests.  The defaults match reliable transports;
  /// lossy runs (UDP, or an injected-loss client) should set a linger of a
  /// few resend intervals.
  int resend_interval_ms = 150;
  int linger_ms = 0;
};

/// The adapted workload for spec.kind (validation per the workload
/// factories: round-based scheduler, no topology/coalition/horizon).
Workload make_cluster_workload(const ClusterSpec& spec);

/// One cluster-level outcome, comparable across the distributed and the
/// in-memory execution.
struct ClusterResult {
  bool complete = false;
  std::uint64_t rounds = 0;
  sim::Metrics metrics;
  std::vector<std::uint64_t> block_digests;  ///< One per node, in node order.
  std::uint64_t digest = 0;                  ///< combine_block_digests(...).
};

/// Folds per-node reports (any order) into a ClusterResult.  Throws
/// std::runtime_error when the reports do not form one consistent run:
/// missing/duplicate node ids, blocks not tiling [0, n), or nodes
/// disagreeing on rounds or completion.
ClusterResult merge_reports(const Workload& workload,
                            const std::vector<NodeReport>& reports);

/// Runs the same workload on the in-memory engine via the production entry
/// points and summarizes it in the same shape.
ClusterResult reference_result(const ClusterSpec& spec);

/// Runs spec as num_nodes in-process nodes, one thread each, over `kind`
/// (loopback needs no ports; udp/tcp bind 127.0.0.1:port_base+i).  A node
/// failure is rethrown: the first one to occur that is not a
/// SyncPointError (the usual echo of a failed peer), else the first one.
std::vector<NodeReport> run_local_cluster(const ClusterSpec& spec,
                                          TransportKind kind,
                                          std::uint16_t port_base = 0);

/// Builds node `id`'s transport — the hook through which tests wrap a
/// backend (e.g. net/lossy_client.hpp dropping one chosen sync frame).
using ClientFactory = std::function<CommClientPtr(NodeId id)>;

/// As above, but each node's CommClient comes from `factory` (ports are the
/// factory's business; `spec.num_nodes` threads are still spawned here).
std::vector<NodeReport> run_local_cluster(const ClusterSpec& spec,
                                          const ClientFactory& factory);

/// "" when `cluster` and `reference` describe the same execution, else a
/// human-readable description of the first few mismatches.
std::string cross_check(const ClusterResult& cluster,
                        const ClusterResult& reference);

/// Convenience: run_local_cluster + merge + reference + cross_check.
std::string cross_check_local(const ClusterSpec& spec, TransportKind kind,
                              std::uint16_t port_base = 0);

}  // namespace rfc::net
