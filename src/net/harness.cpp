#include "net/harness.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/loopback.hpp"
#include "sim/sharding.hpp"

namespace rfc::net {

namespace {

void append_mismatch(std::ostringstream& out, const char* field,
                     std::uint64_t cluster, std::uint64_t reference) {
  out << field << ": cluster=" << cluster << " reference=" << reference
      << "; ";
}

/// Runs spec.num_nodes NodeDrivers, one thread each, node i on factory(i)
/// with the peer table `peers`; rethrows the root cause of a failure (see
/// run_local_cluster).
std::vector<NodeReport> run_nodes(const ClusterSpec& spec,
                                  const std::vector<PeerEndpoint>& peers,
                                  const ClientFactory& factory) {
  const Workload workload = make_cluster_workload(spec);
  const std::uint32_t num_nodes = spec.num_nodes;
  std::vector<NodeReport> reports(num_nodes);
  // Node failures in the order they occurred, each flagged if it is a
  // SyncPointError.
  std::mutex errors_mutex;
  std::vector<std::pair<std::exception_ptr, bool>> errors;
  std::vector<std::thread> threads;
  threads.reserve(num_nodes);
  for (std::uint32_t id = 0; id < num_nodes; ++id) {
    threads.emplace_back([&, id] {
      try {
        const CommClientPtr client = factory(id);
        NodeOptions options;
        options.node_id = id;
        options.num_nodes = num_nodes;
        options.sync_timeout_ms = spec.sync_timeout_ms;
        options.resend_interval_ms = spec.resend_interval_ms;
        options.linger_ms = spec.linger_ms;
        NodeDriver driver(workload, options, *client);
        reports[id] = driver.run(peers);
      } catch (const SyncPointError&) {
        const std::lock_guard<std::mutex> lock(errors_mutex);
        errors.emplace_back(std::current_exception(), true);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errors_mutex);
        errors.emplace_back(std::current_exception(), false);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (errors.empty()) return reports;
  const auto cause = std::find_if(errors.begin(), errors.end(),
                                  [](const auto& e) { return !e.second; });
  std::rethrow_exception(cause != errors.end() ? cause->first
                                               : errors.front().first);
}

}  // namespace

Workload make_cluster_workload(const ClusterSpec& spec) {
  if (spec.kind == ClusterSpec::Kind::kRumor) {
    return make_rumor_workload(spec.rumor);
  }
  return make_protocol_workload(spec.protocol);
}

ClusterResult merge_reports(const Workload& workload,
                            const std::vector<NodeReport>& reports) {
  if (reports.empty()) {
    throw std::runtime_error("merge_reports: no node reports");
  }
  std::vector<const NodeReport*> by_node(reports.size(), nullptr);
  for (const NodeReport& r : reports) {
    if (r.node_id >= by_node.size() || by_node[r.node_id] != nullptr) {
      throw std::runtime_error("merge_reports: missing or duplicate node id " +
                               std::to_string(r.node_id));
    }
    by_node[r.node_id] = &r;
  }

  const auto num_nodes = static_cast<std::uint32_t>(by_node.size());
  ClusterResult result;
  result.complete = by_node[0]->complete;
  result.rounds = by_node[0]->rounds;
  for (std::uint32_t b = 0; b < num_nodes; ++b) {
    const NodeReport& r = *by_node[b];
    const std::uint32_t lo = sim::contiguous_block_begin(workload.n,
                                                         num_nodes, b);
    const std::uint32_t hi = sim::contiguous_block_begin(workload.n,
                                                         num_nodes, b + 1);
    if (r.first_label != lo || r.end_label != hi) {
      throw std::runtime_error("merge_reports: node " + std::to_string(b) +
                               " does not own block [" + std::to_string(lo) +
                               ", " + std::to_string(hi) + ")");
    }
    if (r.complete != result.complete || r.rounds != result.rounds) {
      throw std::runtime_error(
          "merge_reports: node " + std::to_string(b) +
          " disagrees on the run outcome (rounds/completion)");
    }
    result.metrics.merge_from(r.metrics);
    result.block_digests.push_back(r.state_digest);
  }
  // Node metrics carry only message counters; the common round count is the
  // cluster's, and every executed round advances virtual time by 1 under
  // the (discrete) round-based policies the driver supports.
  result.metrics.rounds = result.rounds;
  result.metrics.virtual_time = static_cast<double>(result.rounds);
  result.digest = combine_block_digests(result.block_digests);
  return result;
}

ClusterResult reference_result(const ClusterSpec& spec) {
  const Workload workload = make_cluster_workload(spec);
  std::unique_ptr<sim::Engine> engine;
  if (spec.kind == ClusterSpec::Kind::kRumor) {
    engine = gossip::build_spread_engine(spec.rumor);
    gossip::run_rumor_spreading_on(*engine, spec.rumor);
  } else {
    engine = core::build_protocol_engine(spec.protocol);
    core::run_protocol_on(*engine, spec.protocol);
  }

  ClusterResult result;
  result.rounds = engine->round();
  result.metrics = engine->metrics();
  result.complete = true;
  for (std::uint32_t i = 0; i < workload.n; ++i) {
    if (!engine->is_faulty(i) && !workload.agent_complete(engine->agent(i))) {
      result.complete = false;
      break;
    }
  }
  for (std::uint32_t b = 0; b < spec.num_nodes; ++b) {
    const std::uint32_t lo = sim::contiguous_block_begin(workload.n,
                                                         spec.num_nodes, b);
    const std::uint32_t hi = sim::contiguous_block_begin(workload.n,
                                                         spec.num_nodes,
                                                         b + 1);
    Fnv1a fnv;
    for (std::uint32_t l = lo; l < hi; ++l) {
      workload.digest_agent(fnv, engine->agent(l), l, engine->is_faulty(l));
    }
    result.block_digests.push_back(fnv.value());
  }
  result.digest = combine_block_digests(result.block_digests);
  return result;
}

std::vector<NodeReport> run_local_cluster(const ClusterSpec& spec,
                                          const ClientFactory& factory) {
  // Endpoints stay defaulted: the factory path is used with loopback-style
  // backends that ignore the peer table (the factory owns any hub/ports).
  return run_nodes(spec, std::vector<PeerEndpoint>(spec.num_nodes), factory);
}

std::vector<NodeReport> run_local_cluster(const ClusterSpec& spec,
                                          TransportKind kind,
                                          std::uint16_t port_base) {
  if (kind != TransportKind::kLoopback && port_base == 0) {
    throw std::invalid_argument(
        "run_local_cluster: socket transports need a port_base");
  }
  LoopbackHub hub(spec.num_nodes);
  std::vector<PeerEndpoint> peers(spec.num_nodes);
  for (std::uint32_t i = 0; i < spec.num_nodes; ++i) {
    peers[i].port = static_cast<std::uint16_t>(port_base + i);
  }
  return run_nodes(spec, peers,
                   [&](NodeId) { return make_comm_client(kind, &hub); });
}

std::string cross_check(const ClusterResult& cluster,
                        const ClusterResult& reference) {
  std::ostringstream out;
  if (cluster.complete != reference.complete) {
    append_mismatch(out, "complete", cluster.complete ? 1 : 0,
                    reference.complete ? 1 : 0);
  }
  if (cluster.rounds != reference.rounds) {
    append_mismatch(out, "rounds", cluster.rounds, reference.rounds);
  }
  // Every Metrics field.  The network-adversary counters are all zero on
  // cluster runs today (the NodeDriver is adversary-free; sim-level faults
  // stay in the engine), so a nonzero reference there means the workloads
  // diverged.
  const sim::Metrics& cm = cluster.metrics;
  const sim::Metrics& rm = reference.metrics;
  if (cm.virtual_time != rm.virtual_time) {
    out << "metrics.virtual_time: cluster=" << cm.virtual_time
        << " reference=" << rm.virtual_time << "; ";
  }
  using Counter = std::uint64_t sim::Metrics::*;
  static constexpr std::pair<const char*, Counter> kCounters[] = {
      {"metrics.rounds", &sim::Metrics::rounds},
      {"metrics.pushes", &sim::Metrics::pushes},
      {"metrics.pull_requests", &sim::Metrics::pull_requests},
      {"metrics.pull_replies", &sim::Metrics::pull_replies},
      {"metrics.total_bits", &sim::Metrics::total_bits},
      {"metrics.max_message_bits", &sim::Metrics::max_message_bits},
      {"metrics.active_links", &sim::Metrics::active_links},
      {"metrics.denials", &sim::Metrics::denials},
      {"metrics.net_drops", &sim::Metrics::net_drops},
      {"metrics.net_dups", &sim::Metrics::net_dups},
      {"metrics.net_corruptions", &sim::Metrics::net_corruptions},
      {"metrics.net_delays", &sim::Metrics::net_delays},
      {"metrics.churn_crashes", &sim::Metrics::churn_crashes},
  };
  for (const auto& [name, counter] : kCounters) {
    if (cm.*counter != rm.*counter) {
      append_mismatch(out, name, cm.*counter, rm.*counter);
    }
  }
  if (cluster.block_digests.size() != reference.block_digests.size()) {
    append_mismatch(out, "block count", cluster.block_digests.size(),
                    reference.block_digests.size());
  } else {
    for (std::size_t b = 0; b < cluster.block_digests.size(); ++b) {
      if (cluster.block_digests[b] != reference.block_digests[b]) {
        out << "block " << b << " digest: cluster=" << std::hex
            << cluster.block_digests[b] << " reference="
            << reference.block_digests[b] << std::dec << "; ";
      }
    }
  }
  if (cluster.digest != reference.digest) {
    out << "combined digest: cluster=" << std::hex << cluster.digest
        << " reference=" << reference.digest << std::dec << "; ";
  }
  return out.str();
}

std::string cross_check_local(const ClusterSpec& spec, TransportKind kind,
                              std::uint16_t port_base) {
  const Workload workload = make_cluster_workload(spec);
  const std::vector<NodeReport> reports =
      run_local_cluster(spec, kind, port_base);
  return cross_check(merge_reports(workload, reports),
                     reference_result(spec));
}

}  // namespace rfc::net
