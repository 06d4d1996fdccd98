// perfbench: the repository's end-to-end benchmark program.
//
// One process runs one workload as a closed loop of trials (the next trial
// starts when the previous one ends) until --seconds of wall time have
// passed, checks every trial's output, and prints a human-readable table
// followed by one JSON line:
//
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace=0 the metrics are the end-to-end ones (throughput, set-up
// time, peak RSS).  With --trace=1 half the trials are traced: spans are
// recorded around the library's public entry points, kept in memory, and
// written out as JSON lines to --spans=PATH at the end; the metrics are then
// the per-layer ones derived from those spans, plus the tracing overhead
// (traced against untraced trials of the same run).
//
// Usage:
//   perfbench --workload=NAME --seed=S --seconds=T --trace=0|1
//             [--port-base=P] [--spans=PATH]
//   perfbench --self-test
//
// Workloads (see perfbench/README.md for why each exists):
//   spread_1m          4 independent clients, each running one push-pull
//                      rumor spread at n=2^20 at a time on its own thread,
//                      default synchronous scheduler
//   spread_1m_sharded  the same seeds under synchronous:shards=4,threads=4
//   protocol_mc        Protocol P at n=2048, gamma=4, colors {.5,.3,.2},
//                      independent trials on a 4-worker run_trials pool
//   cluster_tcp        the same Protocol P instance as 4 NodeDriver nodes
//                      over TCP on 127.0.0.1, one consensus at a time
//
// Only public entry points are driven: gossip::build_spread_engine /
// run_rumor_spreading_on, core::build_protocol_engine / run_protocol_on,
// analysis::run_trials, net::run_local_cluster / reference_result /
// cross_check, Engine::set_round_observer, and the net::CommClient
// interface (a timing decorator installed through the ClientFactory).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "core/runner.hpp"
#include "gossip/rumor.hpp"
#include "net/comm_client.hpp"
#include "net/harness.hpp"
#include "net/loopback.hpp"
#include "net/state_digest.hpp"
#include "net/wire_frame.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler_spec.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using rfc::sim::Metrics;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- Workloads

constexpr std::uint32_t kSpreadN = 1u << 20;
constexpr std::uint32_t kProtocolN = 2048;
constexpr std::uint32_t kClusterNodes = 4;
constexpr std::size_t kPoolWorkers = 4;
/// Protocol P trials per run_trials call: four per worker, so the pool's
/// tail (workers idle while the last trial of a batch finishes) stays small.
constexpr std::uint64_t kBatch = 16;
/// spread_1m's independent clients, each running one single-thread spread
/// at a time.  On the 4-vCPU development box each vCPU has slow phases of
/// its own (5-30 s, up to 1.6x slower; four spreads pinned to CPUs 0-3 at
/// once showed them uncorrelated), and one thread follows one vCPU's
/// phases for most of a run: one client spread 15% (IQR / median) between
/// ten 25 s runs, where the four-thread sharded spread spread 3%.
constexpr std::size_t kSpreadClients = 4;
constexpr std::uint16_t kDefaultPortBase = 16400;
constexpr const char* kShardedScheduler = "synchronous:shards=4,threads=4";

enum class Kind { kSpread, kSpreadSharded, kProtocolMc, kClusterTcp };

struct Workload {
  const char* name;
  Kind kind;
  std::uint32_t n;
  std::size_t workers;  ///< Trials in flight at once.
  /// Trials every run completes, however short --seconds is.  The count
  /// metrics are taken over exactly these trial ids, so they repeat
  /// exactly for a given seed.
  std::uint64_t min_trials;
};

const Workload kWorkloads[] = {
    {"spread_1m", Kind::kSpread, kSpreadN, kSpreadClients,
     2 * kSpreadClients},
    {"spread_1m_sharded", Kind::kSpreadSharded, kSpreadN, 1, 2},
    {"protocol_mc", Kind::kProtocolMc, kProtocolN, kPoolWorkers, kBatch},
    {"cluster_tcp", Kind::kClusterTcp, kProtocolN, 1, 2},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

rfc::gossip::SpreadConfig spread_config(std::uint64_t seed, bool sharded) {
  rfc::gossip::SpreadConfig cfg;
  cfg.n = kSpreadN;
  cfg.mechanism = rfc::gossip::Mechanism::kPushPull;
  cfg.seed = seed;
  if (sharded) cfg.scheduler = rfc::sim::SchedulerSpec::parse(kShardedScheduler);
  return cfg;
}

rfc::core::RunConfig protocol_config(std::uint64_t seed) {
  rfc::core::RunConfig cfg;
  cfg.n = kProtocolN;
  cfg.gamma = 4.0;
  cfg.seed = seed;
  cfg.colors = rfc::core::split_colors(kProtocolN, {0.5, 0.3, 0.2});
  return cfg;
}

rfc::net::ClusterSpec cluster_spec(std::uint64_t seed) {
  rfc::net::ClusterSpec spec;
  spec.kind = rfc::net::ClusterSpec::Kind::kProtocol;
  spec.protocol = protocol_config(seed);
  spec.num_nodes = kClusterNodes;
  spec.sync_timeout_ms = 20000;
  return spec;
}

// --------------------------------------------------------------- Tracing

/// One timed interval at a layer boundary.  An aggregate span (calls > 1)
/// stands for many calls of one kind: it runs from the first call's start
/// to the last call's end, and busy_ns is the time spent inside the calls.
struct Span {
  const char* name = "";
  std::uint64_t trial = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0: a root span.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t calls = 1;
  std::int64_t busy_ns = -1;  ///< -1: the whole interval.
  std::uint64_t bytes = 0;

  std::int64_t dur() const { return end_ns - start_ns; }
  std::int64_t busy() const { return busy_ns < 0 ? dur() : busy_ns; }
};

/// Keeps every span of the run in memory; trials buffer their own spans
/// and hand them over once, so worker threads touch the lock once a trial.
class Tracer {
 public:
  std::uint32_t next_id() { return next_id_.fetch_add(1); }

  void append(std::vector<Span>&& spans) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  /// Only after every trial has ended.
  const std::vector<Span>& spans() const { return spans_; }

  void write_jsonl(const std::string& path, const char* workload) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (const Span& s : spans_) {
      out << "{\"workload\":\"" << workload << "\",\"trial\":" << s.trial
          << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"calls\":" << s.calls
          << ",\"busy_ns\":" << s.busy() << ",\"bytes\":" << s.bytes
          << "}\n";
    }
  }

 private:
  std::atomic<std::uint32_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// The spans of one trial, recorded by the thread that runs it.
class TrialTrace {
 public:
  TrialTrace(Tracer* tracer, std::uint64_t trial)
      : tracer_(tracer), trial_(trial) {}
  TrialTrace(const TrialTrace&) = delete;
  TrialTrace& operator=(const TrialTrace&) = delete;
  ~TrialTrace() {
    if (tracer_ != nullptr) tracer_->append(std::move(spans_));
  }

  bool on() const { return tracer_ != nullptr; }

  /// Reserves an id for a span whose end is not known yet.
  std::uint32_t reserve() { return on() ? tracer_->next_id() : 0; }

  std::uint32_t add(const char* name, std::uint32_t parent,
                    std::int64_t start, std::int64_t end,
                    std::uint32_t id = 0) {
    if (!on()) return 0;
    Span s;
    s.name = name;
    s.trial = trial_;
    s.id = id != 0 ? id : tracer_->next_id();
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    spans_.push_back(s);
    return s.id;
  }

  void add_aggregate(const char* name, std::uint32_t parent,
                     std::int64_t start, std::int64_t end,
                     std::uint64_t calls, std::int64_t busy,
                     std::uint64_t bytes) {
    if (!on()) return;
    Span s;
    s.name = name;
    s.trial = trial_;
    s.id = tracer_->next_id();
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    s.calls = calls;
    s.busy_ns = busy;
    s.bytes = bytes;
    spans_.push_back(s);
  }

  /// One child span per observed round: the interval from the previous
  /// observer callback (or `begin`) to this one.
  void add_rounds(std::uint32_t parent, std::int64_t begin,
                  const std::vector<std::int64_t>& stamps) {
    std::int64_t prev = begin;
    for (const std::int64_t t : stamps) {
      add("sim.round", parent, prev, t);
      prev = t;
    }
  }

 private:
  Tracer* tracer_;
  std::uint64_t trial_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------- Trial results

struct TrialResult {
  std::uint64_t trial = 0;
  bool traced = false;
  bool ok = true;     ///< Every output check passed.
  std::string error;  ///< The first check that failed.
  std::uint64_t rounds = 0;
  Metrics metrics;
  std::uint64_t digest = 0;
  std::int64_t setup_ns = 0;  ///< build_*_engine; slowest CommClient::start.
  std::int64_t run_ns = 0;    ///< Inside run_*_on; cluster: minus start-up.
  std::int64_t trial_ns = 0;  ///< The trial's part of the timed loop.
  std::int64_t excluded_ns = 0;  ///< Checks kept out of the timed loop.
  std::uint64_t send_calls = 0;  ///< cluster_tcp: all nodes' send() calls.
  std::uint64_t send_bytes = 0;  ///< cluster_tcp: bytes handed to send().
};

// Output checks.  Every verdict goes through check(), so a trial is counted
// failed exactly once, whichever check (or exception) caught it first.
void check(TrialResult& r, bool passed, const std::string& what) {
  if (!passed && r.ok) {
    r.ok = false;
    r.error = what;
  }
}

void check_spread(TrialResult& r, const rfc::gossip::SpreadResult& res) {
  check(r, res.complete, "spread did not complete");
}

void check_digest_match(TrialResult& r, std::uint64_t other,
                        const char* other_name) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "digest %016" PRIx64 " != %s %016" PRIx64,
                r.digest, other_name, other);
  check(r, r.digest == other, buf);
}

void check_protocol(TrialResult& r, const rfc::core::RunResult& res) {
  check(r, !res.failed(), "Protocol P ended in bottom");
}

void check_cluster(TrialResult& r, const rfc::net::ClusterResult& cluster,
                   const rfc::net::ClusterResult& reference) {
  const std::string diff = rfc::net::cross_check(cluster, reference);
  check(r, diff.empty(), "cross_check: " + diff);
}

/// Runs body(r); a thrown exception (a sync timeout included) fails the
/// trial instead of ending the process.
template <typename Body>
TrialResult guarded(std::uint64_t trial, bool traced, Body&& body) {
  TrialResult r;
  r.trial = trial;
  r.traced = traced;
  try {
    body(r);
  } catch (const std::exception& e) {
    check(r, false, std::string("exception: ") + e.what());
  } catch (...) {
    check(r, false, "unknown exception");
  }
  return r;
}

// ---------------------------------------------------------------- Trials

/// The FNV-1a end-state digest exp_spread_scale prints: outcome, metrics,
/// and every agent's informed bit.
std::uint64_t spread_digest(const rfc::gossip::SpreadResult& res,
                            const rfc::sim::Engine& engine) {
  rfc::net::Fnv1a fnv;
  fnv.mix_bool(res.complete);
  fnv.mix_u64(res.rounds);
  fnv.mix_u64(res.metrics.pushes);
  fnv.mix_u64(res.metrics.pull_requests);
  fnv.mix_u64(res.metrics.pull_replies);
  fnv.mix_u64(res.metrics.total_bits);
  fnv.mix_u64(res.metrics.max_message_bits);
  fnv.mix_u64(res.metrics.active_links);
  for (rfc::sim::AgentId u = 0; u < engine.n(); ++u) {
    fnv.mix_bool(
        static_cast<const rfc::gossip::RumorAgent&>(engine.agent(u))
            .informed());
  }
  return fnv.value();
}

/// FNV-1a over a Protocol P outcome: the winner, the rounds and the counts.
std::uint64_t protocol_digest(const rfc::core::RunResult& res) {
  rfc::net::Fnv1a fnv;
  fnv.mix_u64(res.winner);
  fnv.mix_u64(res.rounds);
  fnv.mix_u64(res.metrics.pushes);
  fnv.mix_u64(res.metrics.pull_requests);
  fnv.mix_u64(res.metrics.pull_replies);
  fnv.mix_u64(res.metrics.total_bits);
  fnv.mix_u64(res.metrics.max_message_bits);
  return fnv.value();
}

void install_round_clock(rfc::sim::Engine& engine,
                         std::vector<std::int64_t>& stamps) {
  engine.set_round_observer(
      [&stamps](const rfc::sim::Engine&) { stamps.push_back(now_ns()); });
}

void spread_trial(TrialResult& r, std::uint64_t seed, bool sharded,
                  TrialTrace& tr, std::uint32_t parent) {
  const rfc::gossip::SpreadConfig cfg = spread_config(seed, sharded);
  std::vector<std::int64_t> stamps;
  const std::int64_t t0 = now_ns();
  auto engine = rfc::gossip::build_spread_engine(cfg);
  const std::int64_t t1 = now_ns();
  if (tr.on()) install_round_clock(*engine, stamps);
  const rfc::gossip::SpreadResult res =
      rfc::gossip::run_rumor_spreading_on(*engine, cfg);
  const std::int64_t t2 = now_ns();
  r.rounds = res.rounds;
  r.metrics = res.metrics;
  r.digest = spread_digest(res, *engine);
  check_spread(r, res);
  const std::int64_t t3 = now_ns();
  engine.reset();
  const std::int64_t t4 = now_ns();

  r.setup_ns = t1 - t0;
  r.run_ns = t2 - t1;
  r.trial_ns = t4 - t0;
  const std::uint32_t root = tr.add("trial", parent, t0, t4);
  tr.add("sim.build", root, t0, t1);
  tr.add_rounds(tr.add("gossip.run", root, t1, t2), t1, stamps);
  tr.add("check.digest", root, t2, t3);
  tr.add("sim.teardown", root, t3, t4);
}

void protocol_trial(TrialResult& r, std::uint64_t seed, TrialTrace& tr,
                    std::uint32_t parent) {
  const rfc::core::RunConfig cfg = protocol_config(seed);
  std::vector<std::int64_t> stamps;
  const std::int64_t t0 = now_ns();
  auto engine = rfc::core::build_protocol_engine(cfg);
  const std::int64_t t1 = now_ns();
  if (tr.on()) install_round_clock(*engine, stamps);
  const rfc::core::RunResult res = rfc::core::run_protocol_on(*engine, cfg);
  const std::int64_t t2 = now_ns();
  r.rounds = res.rounds;
  r.metrics = res.metrics;
  r.digest = protocol_digest(res);
  check_protocol(r, res);
  engine.reset();
  const std::int64_t t3 = now_ns();

  r.setup_ns = t1 - t0;
  r.run_ns = t2 - t1;
  r.trial_ns = t3 - t0;
  const std::uint32_t root = tr.add("trial", parent, t0, t3);
  tr.add("sim.build", root, t0, t1);
  tr.add_rounds(tr.add("core.run", root, t1, t2), t1, stamps);
  tr.add("sim.teardown", root, t2, t3);
}

/// Transport timings of one node, written only by that node's thread and
/// read after run_local_cluster has joined it.
struct NodeTiming {
  std::int64_t start_begin = 0;
  std::int64_t start_end = 0;
  std::int64_t stop_end = 0;
  std::uint64_t send_calls = 0;
  std::uint64_t send_bytes = 0;
  std::int64_t send_ns = 0;
  std::int64_t first_send = 0;
  std::int64_t last_send = 0;
  std::uint64_t poll_calls = 0;
  std::int64_t poll_ns = 0;
  std::int64_t first_poll = 0;
  std::int64_t last_poll = 0;
  /// When each round-status broadcast began (the first status frame after
  /// any other frame kind).
  std::vector<std::int64_t> status_sends;
  bool last_was_status = false;
};

/// CommClient decorator: routes start() to the cluster's peer table (the
/// factory path of run_local_cluster leaves endpoints to the factory),
/// always counts send() calls and bytes, times start(), and, when traced,
/// also times every send() and poll().
class TimedClient final : public rfc::net::CommClient {
 public:
  TimedClient(rfc::net::CommClientPtr inner,
              std::vector<rfc::net::PeerEndpoint> peers, NodeTiming& timing,
              bool traced)
      : inner_(std::move(inner)),
        peers_(std::move(peers)),
        t_(timing),
        traced_(traced) {}

  const char* name() const noexcept override { return inner_->name(); }

  void start(rfc::net::NodeId self,
             const std::vector<rfc::net::PeerEndpoint>& /*peers*/,
             rfc::net::CommClientCallback& callback) override {
    t_.start_begin = now_ns();
    inner_->start(self, peers_, callback);
    t_.start_end = now_ns();
  }

  void stop() override {
    inner_->stop();
    if (t_.stop_end == 0) t_.stop_end = now_ns();
  }

  void send(rfc::net::NodeId to, const std::uint8_t* data,
            std::size_t size) override {
    ++t_.send_calls;
    t_.send_bytes += size;
    if (!traced_) {
      inner_->send(to, data, size);
      return;
    }
    const std::int64_t t0 = now_ns();
    const bool status =
        size > 1 && data[1] == static_cast<std::uint8_t>(
                                   rfc::net::FrameKind::kRoundStatus);
    if (status && !t_.last_was_status) t_.status_sends.push_back(t0);
    t_.last_was_status = status;
    inner_->send(to, data, size);
    const std::int64_t t1 = now_ns();
    t_.send_ns += t1 - t0;
    if (t_.first_send == 0) t_.first_send = t0;
    t_.last_send = t1;
  }

  std::size_t poll(int timeout_ms) override {
    if (!traced_) return inner_->poll(timeout_ms);
    const std::int64_t t0 = now_ns();
    const std::size_t got = inner_->poll(timeout_ms);
    const std::int64_t t1 = now_ns();
    ++t_.poll_calls;
    t_.poll_ns += t1 - t0;
    if (t_.first_poll == 0) t_.first_poll = t0;
    t_.last_poll = t1;
    return got;
  }

 private:
  rfc::net::CommClientPtr inner_;
  std::vector<rfc::net::PeerEndpoint> peers_;
  NodeTiming& t_;
  bool traced_;
};

void cluster_trial(TrialResult& r, std::uint64_t seed,
                   std::uint16_t port_base, TrialTrace& tr,
                   std::uint32_t parent) {
  const rfc::net::ClusterSpec spec = cluster_spec(seed);
  std::vector<rfc::net::PeerEndpoint> peers(kClusterNodes);
  for (std::uint32_t i = 0; i < kClusterNodes; ++i) {
    peers[i].port = static_cast<std::uint16_t>(port_base + i);
  }
  std::vector<NodeTiming> timing(kClusterNodes);
  const bool traced = tr.on();
  const rfc::net::ClientFactory factory = [&](rfc::net::NodeId id) {
    return std::make_unique<TimedClient>(
        rfc::net::make_comm_client(rfc::net::TransportKind::kTcp), peers,
        timing[id], traced);
  };

  const std::int64_t t0 = now_ns();
  const std::vector<rfc::net::NodeReport> reports =
      rfc::net::run_local_cluster(spec, factory);
  const std::int64_t t1 = now_ns();
  const rfc::net::ClusterResult cluster = rfc::net::merge_reports(
      rfc::net::make_cluster_workload(spec), reports);
  const std::int64_t t2 = now_ns();
  // Outside the timed section: the in-memory reference run.
  const rfc::net::ClusterResult reference = rfc::net::reference_result(spec);
  const std::int64_t t3 = now_ns();
  check_cluster(r, cluster, reference);
  r.excluded_ns = now_ns() - t2;

  std::int64_t slowest_start = 0;
  for (const NodeTiming& t : timing) {
    slowest_start = std::max(slowest_start, t.start_end - t.start_begin);
    r.send_calls += t.send_calls;
    r.send_bytes += t.send_bytes;
  }
  r.rounds = cluster.rounds;
  r.metrics = cluster.metrics;
  r.digest = cluster.digest;
  r.setup_ns = slowest_start;
  r.run_ns = (t1 - t0) - slowest_start;
  r.trial_ns = t2 - t0;

  if (!tr.on()) return;
  const std::uint32_t root = tr.add("trial", parent, t0, t3);
  const std::uint32_t run = tr.add("net.cluster", root, t0, t1);
  for (std::uint32_t id = 0; id < kClusterNodes; ++id) {
    const NodeTiming& t = timing[id];
    const std::uint32_t node = tr.add(id == 0 ? "net.node0" : "net.node",
                                      run, t.start_begin, t.stop_end);
    tr.add("net.start", node, t.start_begin, t.start_end);
    tr.add_aggregate("net.send", node, t.first_send, t.last_send,
                     t.send_calls, t.send_ns, t.send_bytes);
    tr.add_aggregate("net.poll", node, t.first_poll, t.last_poll,
                     t.poll_calls, t.poll_ns, 0);
    if (id == 0) {
      for (std::size_t i = 1; i < t.status_sends.size(); ++i) {
        tr.add("net.round", node, t.status_sends[i - 1], t.status_sends[i]);
      }
    }
  }
  tr.add("net.merge", root, t1, t2);
  tr.add("net.reference", root, t2, t3);
}

// ------------------------------------------------------------------ Runs

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint16_t port_base = kDefaultPortBase;
  std::string spans_path;
};

struct RunRecord {
  std::vector<TrialResult> trials;  ///< In trial-id order.
  std::int64_t loop_ns = 0;         ///< Wall of the whole loop.
  double cpu_s = 0;                 ///< utime + stime over the loop.
  double peak_rss_mib = 0;
};

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Trial i of a run gets seed derive_seed(run seed, i).  In a traced run
/// every other wave of `workers` trials is traced and the rest measure the
/// untraced baseline, so each worker or client alternates between the two.
bool traced_trial(const RunOptions& o, std::uint64_t trial) {
  return o.trace && (trial / o.workload->workers) % 2 == 1;
}

RunRecord run_workload(const RunOptions& o, Tracer& tracer) {
  const Workload& w = *o.workload;
  RunRecord rec;
  const double cpu0 = cpu_seconds();
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(o.seconds * 1e9);
  const auto more = [&] {
    return rec.trials.size() < w.min_trials || now_ns() < deadline;
  };

  if (w.kind == Kind::kProtocolMc) {
    rfc::support::ThreadPool pool(w.workers);
    for (std::uint64_t batch = 0; more(); ++batch) {
      TrialTrace batch_trace(o.trace ? &tracer : nullptr, batch * kBatch);
      const std::uint32_t batch_id = batch_trace.reserve();
      const std::int64_t b0 = now_ns();
      const std::vector<TrialResult> results =
          rfc::analysis::run_trials<TrialResult>(
              pool, kBatch, rfc::support::derive_seed(o.seed, batch),
              [&](std::uint64_t seed, std::size_t i) {
                const std::uint64_t trial = batch * kBatch + i;
                const bool traced = traced_trial(o, trial);
                TrialTrace tr(traced ? &tracer : nullptr, trial);
                return guarded(trial, traced, [&](TrialResult& r) {
                  protocol_trial(r, seed, tr, batch_id);
                });
              });
      batch_trace.add("analysis.run_trials", 0, b0, now_ns(), batch_id);
      rec.trials.insert(rec.trials.end(), results.begin(), results.end());
    }
  } else {
    // Client c runs trials c, c + workers, c + 2 * workers, ... one at a
    // time until the deadline, and always the ones below min_trials.
    std::vector<std::vector<TrialResult>> done(w.workers);
    const auto client = [&](std::size_t c) {
      for (std::uint64_t trial = c;
           trial < w.min_trials || now_ns() < deadline; trial += w.workers) {
        const std::uint64_t seed = rfc::support::derive_seed(o.seed, trial);
        const bool traced = traced_trial(o, trial);
        TrialTrace tr(traced ? &tracer : nullptr, trial);
        done[c].push_back(guarded(trial, traced, [&](TrialResult& r) {
          if (w.kind == Kind::kClusterTcp) {
            cluster_trial(r, seed, o.port_base, tr, 0);
          } else {
            spread_trial(r, seed, w.kind == Kind::kSpreadSharded, tr, 0);
          }
        }));
      }
    };
    {
      std::vector<std::jthread> clients;
      for (std::size_t c = 1; c < w.workers; ++c) clients.emplace_back(client, c);
      client(0);
    }
    for (const std::vector<TrialResult>& d : done) {
      rec.trials.insert(rec.trials.end(), d.begin(), d.end());
    }
    std::sort(rec.trials.begin(), rec.trials.end(),
              [](const TrialResult& a, const TrialResult& b) {
                return a.trial < b.trial;
              });
  }
  rec.loop_ns = now_ns() - start;
  rec.cpu_s = cpu_seconds() - cpu0;
  rec.peak_rss_mib = peak_rss_mib();

  // The serial and the sharded round must reach the same end state: run
  // trial 0's seed under the other scheduler, outside the timed loop.
  if (w.kind == Kind::kSpread || w.kind == Kind::kSpreadSharded) {
    const bool other_sharded = w.kind == Kind::kSpread;
    TrialTrace none(nullptr, 0);
    const TrialResult other = guarded(0, false, [&](TrialResult& r) {
      spread_trial(r, rfc::support::derive_seed(o.seed, 0), other_sharded,
                   none, 0);
    });
    TrialResult& first = rec.trials.front();
    check(first, other.ok, "other scheduler: " + other.error);
    check_digest_match(first, other.digest,
                       other_sharded ? "sharded" : "serial");
  }
  return rec;
}

// --------------------------------------------------------------- Metrics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> end_to_end(const Workload& w, const RunRecord& rec) {
  double agent_rounds = 0;
  double run_s = 0;
  std::vector<double> setup;
  std::int64_t excluded_ns = 0;
  for (const TrialResult& r : rec.trials) {
    agent_rounds += static_cast<double>(w.n) * static_cast<double>(r.rounds);
    run_s += static_cast<double>(r.run_ns) / 1e9;
    setup.push_back(static_cast<double>(r.setup_ns) / 1e9);
    excluded_ns += r.excluded_ns;
  }
  const double timed_s = static_cast<double>(rec.loop_ns - excluded_ns) / 1e9;
  return {
      {"agent_rounds_per_s", agent_rounds / run_s, "1/s"},
      {"trials_per_s", static_cast<double>(rec.trials.size()) / timed_s,
       "1/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mib", rec.peak_rss_mib, "MiB"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const RunRecord& rec,
                              const Tracer& tracer) {
  const auto n = static_cast<double>(w.n);
  std::map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : tracer.spans()) {
    children[s.parent].push_back(&s);
  }
  const auto durations_ms = [&](const char* name) {
    std::vector<double> v;
    for (const Span& s : tracer.spans()) {
      if (std::string(s.name) == name) v.push_back(s.dur() / 1e6);
    }
    return v;
  };

  // Rounds: the first one carries the engine's lazy start-up.
  std::vector<double> first_round_ms;
  std::vector<double> round_ns_per_agent;
  std::vector<double> loop_ms[2];  // gossip.run, core.run
  for (const Span& s : tracer.spans()) {
    const bool gossip = std::string(s.name) == "gossip.run";
    if (!gossip && std::string(s.name) != "core.run") continue;
    std::int64_t last_round_end = s.start_ns;
    bool first = true;
    for (const Span* c : children[s.id]) {
      if (first) {
        first_round_ms.push_back(c->dur() / 1e6);
      } else {
        round_ns_per_agent.push_back(static_cast<double>(c->dur()) / n);
      }
      first = false;
      last_round_end = std::max(last_round_end, c->end_ns);
    }
    loop_ms[gossip ? 0 : 1].push_back((s.end_ns - last_round_end) / 1e6);
  }

  // Counts over the fixed trial-id prefix, exact for a seed.
  Metrics counts;
  double agent_rounds = 0;
  std::uint64_t rounds = 0;
  std::uint64_t send_calls = 0;
  std::uint64_t send_bytes = 0;
  for (const TrialResult& r : rec.trials) {
    if (r.trial >= w.min_trials) continue;
    counts.merge_from(r.metrics);
    rounds += r.rounds;
    agent_rounds += n * static_cast<double>(r.rounds);
    send_calls += r.send_calls;
    send_bytes += r.send_bytes;
  }

  // Transport: per node per consensus.
  std::vector<double> send_ms, poll_ms, other_ms, net_round_ms;
  for (const Span& s : tracer.spans()) {
    const std::string name = s.name;
    if (name == "net.round") net_round_ms.push_back(s.dur() / 1e6);
    if (name != "net.node" && name != "net.node0") continue;
    double sent = 0, polled = 0, started = 0;
    for (const Span* c : children[s.id]) {
      const std::string cn = c->name;
      if (cn == "net.send") sent = c->busy() / 1e6;
      if (cn == "net.poll") polled = c->busy() / 1e6;
      if (cn == "net.start") started = c->dur() / 1e6;
    }
    send_ms.push_back(sent);
    poll_ms.push_back(polled);
    other_ms.push_back(s.dur() / 1e6 - started - sent - polled);
  }
  const std::vector<double> reference_ms = durations_ms("net.reference");
  const std::vector<double> cluster_ms = durations_ms("net.cluster");

  // Trial walls and the pool: traced trials only.
  const std::vector<double> trial_ms = [&] {
    std::vector<double> v;
    for (const TrialResult& r : rec.trials) {
      if (r.traced) v.push_back(static_cast<double>(r.trial_ns) / 1e6);
    }
    return v;
  }();
  double trial_s_all = 0;
  for (const TrialResult& r : rec.trials) {
    trial_s_all += static_cast<double>(r.trial_ns) / 1e9;
  }
  const double loop_s = static_cast<double>(rec.loop_ns) / 1e9;

  // Tracing overhead: run wall per agent-round, traced against untraced
  // trials of this same run (interleaved, so both see the same host).
  std::vector<double> cost[2];
  for (const TrialResult& r : rec.trials) {
    if (r.rounds == 0) continue;
    cost[r.traced ? 1 : 0].push_back(static_cast<double>(r.run_ns) /
                                      (n * static_cast<double>(r.rounds)));
  }
  const double overhead =
      cost[0].empty() || cost[1].empty()
          ? 0
          : (median(cost[1]) / median(cost[0]) - 1.0) * 100.0;

  const double per_round = rounds == 0 ? 0 : static_cast<double>(rounds);
  const double per_agent_round = agent_rounds == 0 ? 1 : agent_rounds;
  const double net_ref = median(reference_ms);
  std::vector<Metric> m = {
      {"sim.build_ms", median(durations_ms("sim.build")), "ms"},
      {"sim.first_round_ms", median(first_round_ms), "ms"},
      {"sim.round_ns_per_agent_p50", quantile(round_ns_per_agent, 0.5), "ns"},
      {"sim.round_ns_per_agent_p99", quantile(round_ns_per_agent, 0.99),
       "ns"},
      {"sim.teardown_ms", median(durations_ms("sim.teardown")), "ms"},
      {"sim.msgs_per_agent_round",
       static_cast<double>(counts.messages()) / per_agent_round, "count"},
      {"sim.bits_per_agent_round",
       static_cast<double>(counts.total_bits) / per_agent_round, "bit"},
      {"sim.rounds_per_trial",
       per_round / static_cast<double>(w.min_trials), "count"},
      {"proc.cpu_util", rec.cpu_s / loop_s, "1"},
      {"gossip.loop_ms", median(loop_ms[0]), "ms"},
      {"core.loop_ms", median(loop_ms[1]), "ms"},
      {"analysis.trial_ms_p50", quantile(trial_ms, 0.5), "ms"},
      {"analysis.trial_ms_p95", quantile(trial_ms, 0.95), "ms"},
      {"analysis.pool_efficiency",
       trial_s_all / (loop_s * static_cast<double>(w.workers)), "1"},
      {"net.send_calls_per_round",
       per_round == 0 ? 0 : static_cast<double>(send_calls) / per_round,
       "count"},
      {"net.bytes_per_agent_round",
       static_cast<double>(send_bytes) / per_agent_round, "B"},
      {"net.send_ms", median(send_ms), "ms"},
      {"net.poll_ms", median(poll_ms), "ms"},
      {"net.other_ms", median(other_ms), "ms"},
      {"net.round_ms_p50", quantile(net_round_ms, 0.5), "ms"},
      {"net.round_ms_p99", quantile(net_round_ms, 0.99), "ms"},
      {"net.start_ms", median(durations_ms("net.start")), "ms"},
      {"net.reference_ms", net_ref, "ms"},
      {"net.overhead_x", net_ref == 0 ? 0 : median(cluster_ms) / net_ref,
       "1"},
      {"trace.overhead_pct", overhead, "%"},
  };
  return m;
}

/// Prints the table (the digests of the fixed trial-id prefix, fail_ratio,
/// then every metric) and the JSON result line.  fail_ratio stays out of
/// the JSON metrics, which hold only values that are never 0; the JSON
/// carries it as failed / attempted.
void print_result(const Workload& w, const RunRecord& rec,
                  const std::vector<Metric>& metrics) {
  std::uint64_t failed = 0;
  std::printf("digests");
  for (const TrialResult& r : rec.trials) {
    if (r.trial < w.min_trials) std::printf(" %016" PRIx64, r.digest);
    if (r.ok) continue;
    ++failed;
    std::fprintf(stderr, "trial %" PRIu64 " failed: %s\n", r.trial,
                 r.error.c_str());
  }
  std::printf("\n%-28s %16.6f 1\n", "fail_ratio",
              static_cast<double>(failed) /
                  static_cast<double>(rec.trials.size()));
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %" PRIu64
              ", \"metrics\": {",
              failed == 0 ? "true" : "false", rec.trials.size(), failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// ------------------------------------------------------------- Self-test

/// Drops every outgoing message: a cluster on it can only end in a sync
/// timeout.
class SilentClient final : public rfc::net::CommClient {
 public:
  explicit SilentClient(rfc::net::CommClientPtr inner)
      : inner_(std::move(inner)) {}
  const char* name() const noexcept override { return inner_->name(); }
  void start(rfc::net::NodeId self,
             const std::vector<rfc::net::PeerEndpoint>& peers,
             rfc::net::CommClientCallback& callback) override {
    inner_->start(self, peers, callback);
  }
  void stop() override { inner_->stop(); }
  void send(rfc::net::NodeId, const std::uint8_t*, std::size_t) override {}
  std::size_t poll(int timeout_ms) override {
    return inner_->poll(timeout_ms);
  }

 private:
  rfc::net::CommClientPtr inner_;
};

/// Feeds the checks outputs known to be wrong and asserts each is counted
/// as a failed trial, and that a good output is not.
int self_test() {
  int bad = 0;
  const auto expect = [&bad](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };

  TrialResult wrong_digest;
  wrong_digest.digest = 0x1234;
  check_digest_match(wrong_digest, 0x1235, "sharded");
  expect(!wrong_digest.ok, "a digest mismatch fails the trial");

  TrialResult bottom;
  check_protocol(bottom, rfc::core::RunResult{});  // winner = kNoColor
  expect(!bottom.ok, "a bottom outcome fails the trial");

  TrialResult good;
  rfc::core::RunResult decided;
  decided.winner = 0;
  check_protocol(good, decided);
  check_digest_match(good, good.digest, "sharded");
  expect(good.ok, "a decided outcome with matching digests passes");

  const TrialResult thrown = guarded(0, false, [](TrialResult&) {
    throw std::runtime_error("boom");
  });
  expect(!thrown.ok, "a thrown exception fails the trial");

  rfc::net::ClusterSpec spec = cluster_spec(7);
  spec.protocol.n = 64;
  spec.num_nodes = 2;
  spec.sync_timeout_ms = 300;
  const TrialResult timeout = guarded(0, false, [&](TrialResult&) {
    rfc::net::LoopbackHub hub(spec.num_nodes);
    rfc::net::run_local_cluster(spec, [&](rfc::net::NodeId) {
      return std::make_unique<SilentClient>(rfc::net::make_comm_client(
          rfc::net::TransportKind::kLoopback, &hub));
    });
  });
  expect(!timeout.ok && timeout.error.find("exception") == 0,
         "a sync timeout fails the trial");

  RunRecord rec;
  rec.trials = {wrong_digest, bottom, good, thrown, timeout};
  std::uint64_t failed = 0;
  for (const TrialResult& r : rec.trials) failed += r.ok ? 0 : 1;
  expect(failed == 4, "four of five trials are counted failed");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const rfc::support::CliArgs args(argc, argv);
    if (args.has("self-test")) return self_test();

    RunOptions o;
    o.workload = find_workload(args.get("workload", ""));
    if (o.workload == nullptr) {
      std::fprintf(stderr, "perfbench: unknown --workload; one of:");
      for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    o.seed = args.get_uint("seed", 1);
    o.seconds = args.get_double("seconds", 10);
    o.trace = args.get_uint("trace", 0) != 0;
    o.port_base = static_cast<std::uint16_t>(
        args.get_uint("port-base", kDefaultPortBase));
    o.spans_path = args.get("spans", "");

    Tracer tracer;
    const RunRecord rec = run_workload(o, tracer);
    if (o.trace && !o.spans_path.empty()) {
      tracer.write_jsonl(o.spans_path, o.workload->name);
    }
    print_result(*o.workload, rec,
                 o.trace ? per_layer(*o.workload, rec, tracer)
                         : end_to_end(*o.workload, rec));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
