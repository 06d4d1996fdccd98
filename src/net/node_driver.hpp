// NodeDriver — one node process of a distributed GOSSIP run.
//
// Each node owns a contiguous label block (block b is
// [contiguous_block_begin(n, K, b), contiguous_block_begin(n, K, b+1))) and
// runs the engine's own round on it: an EngineCore that owns only the
// block, and a ShardedRoundExecutor whose K shards are the node blocks, of
// which the node runs its own.  Every cross-block interaction moves over a
// CommClient as wire frames.  As in ACP's ac_protocol, the node has sync
// points where the engine has barriers.  Each broadcasts a mark that
// counts, per peer, the data frames sent to it since the last mark, then
// waits for every peer's mark and every data frame it counted (exact over
// a reordering transport):
//
//   1. round-status  — at round *start*, carrying each block's completion
//      flag (from post-previous-round state, as in the engine's
//      check-before-step loop).  All blocks complete, or the round budget
//      spent → the run ends here.
//   2. actions-done  — after phase A, which routed every action into the
//      lane of its target's unit: the lanes into other blocks' units go out
//      as pull requests and pushes, and arriving requests fill the lanes
//      into this block's units.  Nothing travels to a faulty label: the
//      pull's reply slot stays empty, and the sender charges the push.
//   3. replies-done  — after phase B: the replies served to remote
//      requesters go out (empty ones included).  Arriving replies fill the
//      core's reply slots, checked against this shard's pullers, and
//      arriving pushes fill the lanes into this block's units.
//
// Phases C and D then run locally: all their inputs arrived by sync point 3.
//
// One round in flight: a peer sends a data or mark frame (pull request,
// reply, push, actions-done, replies-done) for round r+1 only after it has
// this node's round-r+1 status, which this node sends only after finishing
// round r.  So every data or mark frame that is not stale is for the
// current round; only a round-status can be for the next one, and nothing
// for a later one.  on_message rejects anything else as a protocol
// violation, so the round state is fixed-size: marks per peer (the status
// stamped with its round), the lanes, one frame list per payload kind, and
// a per-label round stamp.  An agent acts at most once per round, so its
// label keys its data frame and the stamp drops a second copy.
//
// Loss recovery: on a lossy transport (UDP) any frame can vanish.  Every
// sent frame is kept encoded in a two-slot send buffer (slot round & 1,
// tagged with its round).  A sync point still unsatisfied after
// resend_interval_ms sends kResendRequest marks to the outstanding peers,
// which replay that round's frames if their slot still holds it.  Copies
// are dropped by the stamps, and frames for finished rounds silently, so
// retransmission changes nothing about the execution.
//
// Wire boundary: every frame passes through a PayloadInterner
// (net/payload_interner.hpp), which encodes each boxed payload once and
// decodes each distinct intention or certificate once, so local receivers
// of one payload share one box.  An arriving frame's round, route and dedup
// checks run on its header alone; a filed frame's payload section is
// decoded after the last sync point, in label order, so the
// TransportCounters do not depend on the order in which frames arrive.
//
// Determinism: RNG streams, the fault plan and the partial-async mask (one
// Bernoulli per label per round, drawn for all n on every node) are derived
// as in the engine, and every lane is in sender-label order, so the cluster
// runs the engine's execution bit for bit.  Each Metrics counter is charged
// once, on the shard the engine charges it on (a push on its target's,
// except that the sender charges a push to a faulty label), so per-node
// Metrics sum to the engine's.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/comm_client.hpp"
#include "net/payload_interner.hpp"
#include "net/wire_frame.hpp"
#include "net/workload.hpp"
#include "sim/engine_core.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/sharding.hpp"

namespace rfc::net {

/// A sync point that could not complete: it timed out, or a peer whose
/// frames it still awaited disconnected.  In a cluster this is usually the
/// echo of another node's failure, so run_local_cluster reports any other
/// error first.
class SyncPointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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
  bool operator==(const TransportCounters&) const = default;
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
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  /// One peer's marks: its round-status (for round_ or round_ + 1) and, for
  /// round_, what its actions-done and replies-done announced against the
  /// data frames filed so far.
  struct PeerMarks {
    struct Tally {
      std::uint64_t announced = kNone;  ///< Until the mark arrives.
      std::uint32_t received = 0;
    };
    std::uint64_t status_round = kNone;  ///< Round `complete` is for.
    bool complete = false;
    Tally actions;  ///< Pull requests + pushes, then actions-done.
    Tally replies;  ///< Pull replies, then replies-done.
  };

  /// A filed pull reply or push.  Its payload section waits in sections_
  /// until decode_filed, which runs in label order.
  struct Filed {
    NodeId from = 0;
    Frame frame;              ///< Payload set by decode_filed.
    std::size_t section = 0;  ///< Offset in sections_.
    std::size_t size = 0;
  };

  /// The send buffer's slot for one round: every frame sent to each peer,
  /// encoded, for replay on a resend request.
  struct SentSlot {
    std::uint64_t round = kNone;
    std::vector<std::vector<std::vector<std::uint8_t>>> to;  ///< By peer.
  };

  using Lane = sim::ShardedRoundExecutor::Lane;

  NodeId block_of(sim::AgentId label) const {
    return sim::contiguous_block_of(workload_->n, options_.num_nodes, label);
  }
  /// Runs fn(peer, lane) over the lanes from each peer's shard into this
  /// node's units: the ones arriving frames fill.
  template <typename Fn>
  void for_each_inbound_lane(Fn&& fn);
  bool block_complete() const;
  std::uint64_t local_digest() const;

  /// Resets the marks' tallies, the inbound lanes, the frame lists, and the
  /// send-buffer slot round_ reuses (it held round_ - 2, which no peer can
  /// still ask for).
  void begin_round();
  void send_frame(NodeId to, const Frame& frame);
  /// Replays everything already sent to `to` for `round` from the send
  /// buffer (a no-op for pruned or not-yet-reached rounds).
  void answer_resend(NodeId to, std::uint64_t round);
  /// True once peer p's mark of `kind` for round_ arrived, and with it
  /// every data frame the mark counted.
  bool marked(NodeId p, FrameKind kind) const;
  /// The sync point: sends each peer a `kind` mark for round_ (carrying
  /// `complete` and the data frames sent to that peer since the last mark)
  /// and polls until every peer is marked().  Throws after
  /// sync_timeout_ms, or once a peer it still waits for has disconnected.
  void sync(FrameKind kind, bool complete = false);
  /// Sorts `filed` by agent label and decodes each payload section.
  void decode_filed(std::vector<Filed>& filed);

  /// Broadcasts this node's completion flag, waits for every peer's, and
  /// returns their conjunction: true when every agent in the cluster is
  /// done.
  bool exchange_status(bool local_complete);
  void execute_round();
  /// After phase A: sends the lanes into other blocks' units.
  void send_actions();
  /// After phase B: sends the replies served to remote requesters.
  void send_replies();
  /// Before phase C: moves each remote pullee's reply into the core's slot
  /// for its requester, one per pull of a non-faulty remote pullee.
  void file_replies();

  const Workload* workload_;
  NodeOptions options_;
  CommClient* client_;
  PayloadInterner interner_;  ///< Every frame in and out goes through it.

  sim::LabelRange block_;      ///< The local block.
  sim::EngineCore core_;       ///< Owns the local block's labels.
  sim::ShardedRoundExecutor exec_;  ///< Shard s = node s's block.

  /// Draws the wake mask under partial-async; null when synchronous.
  std::unique_ptr<sim::PartialAsyncScheduler> partial_async_;

  std::uint64_t round_ = 0;
  TransportCounters counters_;  ///< All but `payloads` (see interner_).
  std::vector<bool> peer_down_;           ///< tcp disconnects, fail-fast.
  std::vector<PeerMarks> marks_;          ///< By peer.
  std::vector<std::uint32_t> unmarked_;   ///< Data frames sent to each peer
                                          ///< since the last mark.
  SentSlot sent_[2];                      ///< By round & 1.

  // This round's filed replies and pushes (requests go straight to the
  // lanes), and the round each label last had a frame filed in.  An agent
  // acts at most once per round, so a label stamped with round_ marks a
  // duplicate: a request or push by its remote sender, or a reply by its
  // local requester, so the two never share a label.
  std::vector<Filed> replies_;
  std::vector<Filed> pushes_;
  std::vector<std::uint8_t> sections_;  ///< Filed frames' payload bytes.
  std::vector<std::uint64_t> stamp_;    ///< By label, over [0, n).
};

}  // namespace rfc::net
