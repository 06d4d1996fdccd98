// One node process of a distributed GOSSIP run.
//
// Owns the contiguous label block [contiguous_block_begin(n, nodes, id),
// contiguous_block_begin(n, nodes, id+1)) and runs it through
// net::NodeDriver over the selected transport, then prints one NODE-REPORT
// line (bench/cluster_flags.hpp) for the launcher to merge and cross-check
// against the in-memory engine.  Usually spawned by exp_socket, but usable
// by hand, e.g. a 2-node TCP rumor run on one machine:
//
//   run="--workload=rumor --transport=tcp --nodes=2 --port-base=23000"
//   ./node $run --n=64 --seed=7 --node-id=0 &
//   ./node $run --n=64 --seed=7 --node-id=1
//
// Every workload flag must be identical across the node processes of one
// run (they derive the fault plan, RNG streams, and schedule from them).
#include <cstdio>
#include <exception>
#include <string>

#include "cluster_flags.hpp"
#include "net/loopback.hpp"
#include "net/lossy_client.hpp"
#include "sim/sharding.hpp"
#include "support/rng.hpp"

namespace {

std::uint32_t parse_label(const std::string& text) {
  return static_cast<std::uint32_t>(std::stoul(text));
}

}  // namespace

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  try {
    const std::string workload_name = args.get("workload", "rumor");
    rfc::net::ClusterSpec::Kind kind;
    if (workload_name == "rumor") {
      kind = rfc::net::ClusterSpec::Kind::kRumor;
    } else if (workload_name == "protocol") {
      kind = rfc::net::ClusterSpec::Kind::kProtocol;
    } else {
      throw std::invalid_argument(
          "--workload must be rumor or protocol, got '" + workload_name +
          "'");
    }
    const rfc::net::ClusterSpec spec =
        rfc::benchnet::cluster_spec_from_cli(args, kind);
    const rfc::net::Workload workload =
        rfc::net::make_cluster_workload(spec);

    const auto transport =
        rfc::net::parse_transport_kind(args.get("transport", "tcp"));
    rfc::net::NodeOptions options;
    options.node_id =
        static_cast<rfc::net::NodeId>(args.get_uint("node-id", 0));
    options.num_nodes = spec.num_nodes;
    options.sync_timeout_ms = spec.sync_timeout_ms;
    options.resend_interval_ms = spec.resend_interval_ms;
    options.linger_ms = spec.linger_ms;

    // --drop=P injects Bernoulli loss on every outgoing message (seeded per
    // node from --drop-seed, so nodes do not drop in lockstep) — the way
    // the lossy-UDP smoke exercises the driver's resend path on purpose.
    // A lossy run must linger: the final status broadcast may be dropped
    // and only the retransmit linger can answer for it.
    const double drop = args.get_double("drop", 0.0);
    if (!(drop >= 0.0 && drop < 1.0)) {
      throw std::invalid_argument("--drop must be in [0, 1)");
    }
    if (drop > 0.0 && !args.has("linger-ms")) options.linger_ms = 1000;
    const std::uint64_t drop_seed = args.get_uint("drop-seed", 99);

    // --label-range=LO-HI is declarative: the block is determined by
    // (n, nodes, node-id), and a mismatching range means the launcher and
    // this node disagree about the partition — stop before running.
    if (args.has("label-range")) {
      const std::string range = args.get("label-range", "");
      const auto dash = range.find('-');
      if (dash == std::string::npos) {
        throw std::invalid_argument("--label-range must be LO-HI");
      }
      const std::uint32_t lo = parse_label(range.substr(0, dash));
      const std::uint32_t hi = parse_label(range.substr(dash + 1));
      const std::uint32_t expect_lo = rfc::sim::contiguous_block_begin(
          workload.n, options.num_nodes, options.node_id);
      const std::uint32_t expect_hi = rfc::sim::contiguous_block_begin(
          workload.n, options.num_nodes, options.node_id + 1);
      if (lo != expect_lo || hi != expect_hi) {
        throw std::invalid_argument(
            "--label-range=" + range + " but node " +
            std::to_string(options.node_id) + " of " +
            std::to_string(options.num_nodes) + " owns [" +
            std::to_string(expect_lo) + "-" + std::to_string(expect_hi) +
            ")");
      }
    }

    const auto port_base =
        static_cast<std::uint16_t>(args.get_uint("port-base", 23000));
    const std::string host = args.get("host", "127.0.0.1");
    args.reject_unread();
    std::vector<rfc::net::PeerEndpoint> peers(options.num_nodes);
    for (std::uint32_t i = 0; i < options.num_nodes; ++i) {
      peers[i].host = host;
      peers[i].port = static_cast<std::uint16_t>(port_base + i);
    }

    // Loopback lives inside one process; a standalone node can only use it
    // as a single-node cluster (still useful to smoke the driver alone).
    rfc::net::LoopbackHub hub(options.num_nodes);
    rfc::net::CommClientPtr client =
        rfc::net::make_comm_client(transport, &hub);
    if (drop > 0.0) {
      client = rfc::net::make_lossy_client(
          std::move(client), drop,
          rfc::support::derive_seed(drop_seed, options.node_id));
    }

    rfc::net::NodeDriver driver(workload, options, *client);
    const rfc::net::NodeReport report = driver.run(peers);
    std::printf("%s\n", rfc::benchnet::format_node_report(report).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "node: %s\n", e.what());
    return 2;
  }
}
