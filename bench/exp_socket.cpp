// Transport cross-check launcher: run rumor spreading and Protocol P as N
// communicating node processes and prove the distributed execution equal
// to the in-memory engine at the same seeds.
//
// transport=loopback (the default, and what the bench smoke test runs)
// keeps the N nodes as threads of this process; transport=tcp/udp spawns N
// `node` processes (--node-bin) on localhost ports, parses their
// NODE-REPORT lines, and merges them.  Either way the merged result —
// completion, rounds, every Metrics counter, per-block state digests — is
// compared against gossip::run_rumor_spreading / core::run_protocol on the
// engine; any difference is printed and the process exits nonzero, which
// is what makes the CTest socket_smoke_* entries real acceptance tests.
// Loopback runs also print the transport counters (frames, payload
// encodes/decodes and interner hits, link-id definitions and references,
// resends) summed over the nodes.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "cluster_flags.hpp"
#include "net/loopback.hpp"
#include "net/lossy_client.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using rfc::net::ClusterSpec;

struct RunOutcome {
  rfc::net::ClusterResult cluster;
  rfc::net::ClusterResult reference;
  std::string mismatch;
  /// Summed over the nodes; loopback only (a NODE-REPORT line carries none).
  std::optional<rfc::net::TransportCounters> transport;
};

rfc::net::TransportCounters sum_transport(
    const std::vector<rfc::net::NodeReport>& reports) {
  rfc::net::TransportCounters sum;
  for (const rfc::net::NodeReport& r : reports) sum += r.transport;
  return sum;
}

std::vector<std::string> child_args(const rfc::support::CliArgs& args,
                                    const ClusterSpec& spec,
                                    const char* workload,
                                    const std::string& transport,
                                    std::uint32_t node_id,
                                    std::uint16_t port_base) {
  const auto& cfgn = spec.kind == ClusterSpec::Kind::kRumor
                         ? spec.rumor.n
                         : spec.protocol.n;
  const std::uint32_t lo =
      rfc::sim::contiguous_block_begin(cfgn, spec.num_nodes, node_id);
  const std::uint32_t hi =
      rfc::sim::contiguous_block_begin(cfgn, spec.num_nodes, node_id + 1);
  std::vector<std::string> argv;
  argv.push_back("node");
  argv.push_back("--workload=" + std::string(workload));
  argv.push_back("--transport=" + transport);
  argv.push_back("--node-id=" + std::to_string(node_id));
  argv.push_back("--nodes=" + std::to_string(spec.num_nodes));
  argv.push_back("--port-base=" + std::to_string(port_base));
  argv.push_back("--label-range=" + std::to_string(lo) + "-" +
                 std::to_string(hi));
  argv.push_back("--timeout-ms=" + std::to_string(spec.sync_timeout_ms));
  // Workload flags travel verbatim so both sides derive the same Workload;
  // drop/resend/linger tune the transport only (node seeds its loss stream
  // per node id, so one shared --drop-seed does not drop in lockstep).
  for (const char* flag : {"n", "seed", "scheduler", "faulty", "placement",
                           "mechanism", "rumor-bits", "gamma", "drop",
                           "drop-seed", "resend-ms", "linger-ms"}) {
    if (args.has(flag)) {
      argv.push_back("--" + std::string(flag) + "=" + args.get(flag, ""));
    }
  }
  return argv;
}

/// Spawns one `node` process with stdout piped back; returns its pid.
pid_t spawn_node(const std::string& node_bin,
                 const std::vector<std::string>& argv, int* out_fd) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("exp_socket: pipe() failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("exp_socket: fork() failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    execv(node_bin.c_str(), cargv.data());
    std::fprintf(stderr, "exp_socket: execv(%s): %s\n", node_bin.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  close(fds[1]);
  *out_fd = fds[0];
  return pid;
}

std::string read_all(int fd) {
  std::string out;
  char buffer[4096];
  for (;;) {
    const ssize_t got = read(fd, buffer, sizeof buffer);
    if (got <= 0) break;
    out.append(buffer, static_cast<std::size_t>(got));
  }
  close(fd);
  return out;
}

std::vector<rfc::net::NodeReport> run_process_cluster(
    const rfc::support::CliArgs& args, const ClusterSpec& spec,
    const char* workload, const std::string& transport,
    const std::string& node_bin, std::uint16_t port_base) {
  std::vector<pid_t> pids(spec.num_nodes);
  std::vector<int> fds(spec.num_nodes);
  for (std::uint32_t id = 0; id < spec.num_nodes; ++id) {
    pids[id] = spawn_node(
        node_bin,
        child_args(args, spec, workload, transport, id, port_base),
        &fds[id]);
  }

  std::vector<rfc::net::NodeReport> reports;
  bool failed = false;
  for (std::uint32_t id = 0; id < spec.num_nodes; ++id) {
    const std::string output = read_all(fds[id]);
    int status = 0;
    waitpid(pids[id], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "exp_socket: node %u exited with status %d\n", id,
                   WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      failed = true;
      continue;
    }
    std::size_t pos = 0;
    bool parsed = false;
    while (pos < output.size()) {
      const std::size_t eol = output.find('\n', pos);
      const std::string line =
          output.substr(pos, eol == std::string::npos ? eol : eol - pos);
      if (const auto report = rfc::benchnet::parse_node_report(line)) {
        reports.push_back(*report);
        parsed = true;
      }
      if (eol == std::string::npos) break;
      pos = eol + 1;
    }
    if (!parsed) {
      std::fprintf(stderr, "exp_socket: node %u printed no NODE-REPORT\n",
                   id);
      failed = true;
    }
  }
  if (failed) {
    throw std::runtime_error("exp_socket: a node process failed");
  }
  return reports;
}

RunOutcome run_one(const rfc::support::CliArgs& args, ClusterSpec spec,
                   const char* workload, const std::string& transport,
                   const std::string& node_bin, std::uint16_t port_base) {
  const rfc::net::Workload wl = rfc::net::make_cluster_workload(spec);
  const double drop = args.get_double("drop", 0.0);
  RunOutcome outcome;
  if (transport == "loopback") {
    std::vector<rfc::net::NodeReport> reports;
    if (drop > 0.0) {
      // Injected loss on the in-process transport: every outgoing message
      // is dropped with probability `drop`, and the cross-check below must
      // STILL match the engine bit for bit — the driver's resend protocol
      // has to recover every lost frame, not merely terminate.
      if (spec.linger_ms == 0) spec.linger_ms = 1000;
      const std::uint64_t drop_seed = args.get_uint("drop-seed", 99);
      rfc::net::LoopbackHub hub(spec.num_nodes);
      reports = rfc::net::run_local_cluster(spec, [&](rfc::net::NodeId id) {
        return rfc::net::make_lossy_client(
            rfc::net::make_comm_client(rfc::net::TransportKind::kLoopback,
                                       &hub),
            drop, rfc::support::derive_seed(drop_seed, id));
      });
    } else {
      reports = rfc::net::run_local_cluster(
          spec, rfc::net::TransportKind::kLoopback);
    }
    outcome.cluster = rfc::net::merge_reports(wl, reports);
    outcome.transport = sum_transport(reports);
  } else {
    if (node_bin.empty()) {
      throw std::runtime_error(
          "exp_socket: --transport=" + transport +
          " spawns node processes and needs --node-bin=PATH");
    }
    outcome.cluster = rfc::net::merge_reports(
        wl, run_process_cluster(args, spec, workload, transport, node_bin,
                                port_base));
  }
  outcome.reference = rfc::net::reference_result(spec);
  outcome.mismatch = rfc::net::cross_check(outcome.cluster,
                                           outcome.reference);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  try {
    const std::string transport = args.get("transport", "loopback");
    (void)rfc::net::parse_transport_kind(transport);  // Validate early.
    const std::string workload = args.get("workload", "both");
    const std::string node_bin = args.get("node-bin", "");
    const auto port_base = static_cast<std::uint16_t>(args.get_uint(
        "port-base", 22000 + static_cast<std::uint16_t>(getpid() % 15000)));
    const ClusterSpec rumor_spec =
        rfc::benchnet::cluster_spec_from_cli(args, ClusterSpec::Kind::kRumor);
    const ClusterSpec protocol_spec = rfc::benchnet::cluster_spec_from_cli(
        args, ClusterSpec::Kind::kProtocol);
    // run_one reads the loss flags per run; validate them before the first.
    args.get_double("drop", 0.0);
    args.get_uint("drop-seed", 0);
    args.reject_unread();

    std::printf(
        "exp_socket: distributed transport cross-check (transport=%s)\n"
        "Claim: a cluster of communicating node processes computes the "
        "same execution\n"
        "as the in-memory engine at the same seeds — same completion, "
        "rounds, message\n"
        "counters, and per-block state digests.\n\n",
        transport.c_str());

    rfc::support::Table table({"workload", "nodes", "n", "complete",
                               "rounds", "messages", "digest", "check"});
    rfc::support::Table transport_table(
        {"workload", "frames_sent", "frames_received", "payload_encodes",
         "encode_hits", "payload_decodes", "decode_hits", "link_defs",
         "link_refs", "resend_requests", "resends_answered"});
    bool have_transport = false;
    bool ok = true;
    std::uint16_t next_ports = port_base;
    for (const char* kind_name : {"rumor", "protocol"}) {
      if (workload != "both" && workload != kind_name) continue;
      const ClusterSpec& spec =
          std::string(kind_name) == "rumor" ? rumor_spec : protocol_spec;
      const RunOutcome outcome = run_one(args, spec, kind_name, transport,
                                         node_bin, next_ports);
      // Fresh ports per run: the previous listeners are gone but may
      // linger in TIME_WAIT.
      next_ports = static_cast<std::uint16_t>(
          next_ports + spec.num_nodes);
      const bool match = outcome.mismatch.empty();
      ok = ok && match;
      char digest[32];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(outcome.cluster.digest));
      table.add_row({kind_name, std::to_string(spec.num_nodes),
                     std::to_string(spec.kind == ClusterSpec::Kind::kRumor
                                        ? spec.rumor.n
                                        : spec.protocol.n),
                     outcome.cluster.complete ? "yes" : "no",
                     std::to_string(outcome.cluster.rounds),
                     std::to_string(outcome.cluster.metrics.messages()),
                     digest, match ? "ok" : "MISMATCH"});
      if (const auto& t = outcome.transport) {
        have_transport = true;
        transport_table.add_row(
            {kind_name, std::to_string(t->frames_sent),
             std::to_string(t->frames_received),
             std::to_string(t->payloads.encodes),
             std::to_string(t->payloads.encode_hits),
             std::to_string(t->payloads.decodes),
             std::to_string(t->payloads.decode_hits),
             std::to_string(t->link_definitions),
             std::to_string(t->link_references),
             std::to_string(t->resend_requests_sent),
             std::to_string(t->resend_requests_answered)});
      }
      if (!match) {
        std::fprintf(stderr, "exp_socket: %s mismatch: %s\n", kind_name,
                     outcome.mismatch.c_str());
      }
    }
    std::printf("%s", table.render().c_str());
    if (have_transport) {
      std::printf("\nTransport counters, summed over the nodes:\n%s",
                  transport_table.render().c_str());
    }
    if (!ok) return 1;
    std::printf("\nAll transport runs match the in-memory engine.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exp_socket: %s\n", e.what());
    return 2;
  }
}
