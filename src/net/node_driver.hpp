// NodeDriver — one node process of a distributed GOSSIP run.
//
// Each node owns a contiguous label block (the partition rule shared with
// the sharded executor: block b is [contiguous_block_begin(n, K, b),
// contiguous_block_begin(n, K, b+1))) and replicates EngineCore's phased
// synchronous round locally, moving every cross-block interaction over a
// CommClient as wire frames.  The adaptation into asynchronous rounds with
// explicit sync points follows ACP's ac_protocol: a round advances through
// three barriers, each a mark frame that also *counts* the data frames
// preceding it so the barrier is exact even over a reordering transport:
//
//   1. round-status  — exchanged at round *start*, carrying each block's
//      completion flag (computed from post-previous-round state, matching
//      the engine's check-before-step loop).  All blocks complete, or the
//      round budget spent → the run ends here.
//   2. actions-done  — after phase A: every local agent's action collected
//      (in label order, under the partial-async mask when configured) and
//      every cross-block pull request / push sent.
//   3. replies-done  — after phase B: every pull on a local pullee served
//      in global requester-label order from round-start state, and every
//      cross-block reply (empty ones included) sent.
//
// Phases C (deliver pull replies, requester order) and D (deliver pushes,
// sender order) then run locally — all their inputs arrived by barrier 3.
//
// Loss recovery: on a lossy transport (UDP) any of those frames can simply
// vanish, and before the resend protocol a single lost barrier frame hung
// the whole cluster until the sync timeout.  Now every sent frame is kept
// (encoded) in a two-round send buffer; a driver whose sync point stays
// unsatisfied past resend_interval_ms sends kResendRequest marks to the
// outstanding peers, which replay their buffered frames.  Re-deliveries
// are made idempotent by per-round dedup (an agent acts at most once per
// round, so its label keys its data frame) and frames for finished rounds
// are dropped silently — so retransmission changes nothing about the
// execution, which stays bit-identical to the engine's.
//
// Wire boundary: every frame in and out passes through a PayloadInterner
// (net/payload_interner.hpp), which encodes each boxed payload once and
// decodes each distinct intention or certificate once, so local receivers
// of one payload share one box.  The report's TransportCounters count the
// frames, that codec work, and the resend traffic.
//
// Determinism: agent RNG streams are derive_seed(seed, label), the fault
// plan and the partial-async mask stream (one Bernoulli per label per
// round, faulty included) are derived identically on every node, and all
// per-phase processing is sorted by label — so the distributed execution
// is the engine's execution, bit for bit, regardless of message arrival
// interleaving.  Metrics are charged exactly once cluster-wide on the side
// the engine charges them (requester: pull requests; pullee owner:
// replies; sender: pushes), so per-node Metrics sum to the engine's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/comm_client.hpp"
#include "net/payload_interner.hpp"
#include "net/wire_frame.hpp"
#include "net/workload.hpp"
#include "sim/metrics.hpp"
#include "support/rng.hpp"

namespace rfc::net {

struct NodeOptions {
  NodeId node_id = 0;
  std::uint32_t num_nodes = 1;
  /// How long a sync-point wait may stall before the driver gives up and
  /// throws (a peer crash would otherwise hang the cluster forever).
  int sync_timeout_ms = 30000;
  /// While a sync point stays unsatisfied, a resend request is sent to each
  /// outstanding peer every `resend_interval_ms` — the recovery path for
  /// lossy transports (UDP), where a dropped barrier frame used to hang the
  /// run until sync_timeout_ms.  Reliable transports never get that far, so
  /// the requests only ever travel when something was actually lost.
  int resend_interval_ms = 150;
  /// After finishing, keep polling this long to answer slower peers' resend
  /// requests: the *final* status broadcast may be dropped, and a node that
  /// exits immediately can no longer retransmit it.  0 (the default) keeps
  /// the exit prompt — right for reliable transports; UDP runs should set a
  /// few resend intervals' worth.
  int linger_ms = 0;
};

/// What one node's wire boundary did over a run.  Diagnostics only: the
/// counts depend on the transport (loss, resends), so the cross-check
/// against the engine ignores them.
struct TransportCounters {
  std::uint64_t frames_sent = 0;      ///< Frames handed to the transport,
                                      ///< replays and resend requests too.
  std::uint64_t frames_received = 0;  ///< Frames the transport delivered.
  std::uint64_t resend_requests_sent = 0;
  std::uint64_t resend_requests_answered = 0;  ///< Received and replayed
                                               ///< (possibly with nothing).
  InternerCounters payloads;          ///< Section encodes/decodes and hits.

  TransportCounters& operator+=(const TransportCounters& other) noexcept {
    frames_sent += other.frames_sent;
    frames_received += other.frames_received;
    resend_requests_sent += other.resend_requests_sent;
    resend_requests_answered += other.resend_requests_answered;
    payloads += other.payloads;
    return *this;
  }
};

struct NodeReport {
  NodeId node_id = 0;
  std::uint32_t first_label = 0;  ///< Local block [first_label, end_label).
  std::uint32_t end_label = 0;
  bool complete = false;          ///< Every block completed (global flag).
  std::uint64_t rounds = 0;       ///< Rounds executed (identical on all nodes).
  /// Locally charged message counters; rounds/virtual_time left zero so the
  /// harness can merge node metrics by plain summation.
  sim::Metrics metrics;
  std::uint64_t state_digest = 0;  ///< FNV-1a over the local block's agents.
  TransportCounters transport;     ///< Not part of the NODE-REPORT line.
};

class NodeDriver final : public CommClientCallback {
 public:
  /// `workload` and `client` must outlive the driver.
  NodeDriver(const Workload& workload, const NodeOptions& options,
             CommClient& client);

  /// Brings the transport up, runs the workload to completion (or budget),
  /// tears the transport down, and reports the local block's outcome.
  /// Throws std::runtime_error on transport failure, a malformed frame, or
  /// a sync-point timeout.
  NodeReport run(const std::vector<PeerEndpoint>& peers);

  // CommClientCallback (invoked from inside client.poll()):
  void on_message(NodeId from, const std::uint8_t* data,
                  std::size_t size) override;
  void on_peer_state(NodeId peer, bool connected) override;

 private:
  /// Per-round frame buffers: peers may run up to one stage-cycle ahead, so
  /// everything is bucketed by round and consumed when the local round
  /// catches up.
  struct RoundInbox {
    std::map<NodeId, bool> status;              ///< round-status flags.
    std::map<NodeId, std::uint32_t> actions_announced;
    std::map<NodeId, std::uint32_t> replies_announced;
    std::map<NodeId, std::uint32_t> data_received;     ///< requests + pushes.
    std::map<NodeId, std::uint32_t> replies_received;
    std::vector<Frame> pull_requests;
    std::vector<Frame> pull_replies;
    std::vector<Frame> pushes;
    /// Duplicate suppression for retransmitted data frames.  Every agent
    /// performs at most one active operation per round, so its label keys
    /// its request-or-push (and the single reply it is owed) uniquely; mark
    /// frames are idempotent map writes and need no set.
    std::set<sim::AgentId> seen_data;     ///< requests + pushes, by sender.
    std::set<sim::AgentId> seen_replies;  ///< replies, by requester.
  };

  sim::Context make_context(sim::AgentId label) noexcept;
  sim::Agent& local_agent(sim::AgentId label) {
    return *agents_[label - first_];
  }
  bool block_complete() const;
  std::uint64_t local_digest() const;

  void broadcast(Frame frame);
  void send_frame(NodeId to, const Frame& frame);
  /// Replays everything already sent to `to` for `round` from the send
  /// buffer (a no-op for pruned or not-yet-reached rounds).
  void answer_resend(NodeId to, std::uint64_t round);
  /// Drops send-buffer rounds below `keep_from` (peers lag at most one
  /// stage cycle, so current-1 is the oldest round anyone can still ask
  /// for — the buffer stays bounded at two rounds of traffic).
  void prune_sent(std::uint64_t keep_from);
  /// Polls until `satisfied(p)` holds for every peer p; throws after
  /// options_.sync_timeout_ms.  A disconnected peer is fatal only while
  /// this barrier still needs something from it: a node that finishes the
  /// run closes its connections while slower peers are still collecting
  /// *other* peers' final frames, and (TCP/loopback being ordered) its own
  /// contribution is guaranteed to have been delivered before its EOF.
  template <typename Satisfied>
  void wait_for(const char* what, Satisfied satisfied);

  /// Broadcasts this node's completion flag, waits for every peer's, and
  /// returns their conjunction: true when every agent in the cluster is
  /// done.
  bool exchange_status(bool local_complete);
  void execute_round();

  const Workload* workload_;
  NodeOptions options_;
  CommClient* client_;
  PayloadInterner interner_;  ///< Every frame in and out goes through it.

  std::uint32_t first_ = 0;               ///< Local block begin.
  std::uint32_t end_ = 0;                 ///< Local block end.
  std::vector<NodeId> owner_;             ///< label -> owning node.
  std::vector<std::unique_ptr<sim::Agent>> agents_;  ///< Local block only.
  std::vector<rfc::support::Xoshiro256> rngs_;       ///< Local block only.

  bool partial_async_ = false;
  double awake_p_ = 1.0;
  rfc::support::Xoshiro256 mask_rng_{0};
  std::vector<bool> mask_;                ///< Full n, redrawn per round.

  std::uint64_t round_ = 0;
  sim::Metrics metrics_;
  TransportCounters counters_;  ///< All but `payloads` (see interner_).
  std::map<std::uint64_t, RoundInbox> inbox_;
  std::vector<bool> peer_down_;           ///< tcp disconnects, fail-fast.
  /// Encoded frames already sent, by round then destination — the resend
  /// buffer answering kResendRequest.  Pruned to the last two rounds.
  std::map<std::uint64_t, std::map<NodeId, std::vector<std::vector<std::uint8_t>>>>
      sent_frames_;

  // Per-round scratch, reused.
  std::vector<sim::Action> actions_;      ///< Local agents' actions.
  std::vector<sim::Payload> reply_for_;   ///< Replies to local requesters.
  std::vector<bool> reply_ready_;
};

}  // namespace rfc::net
