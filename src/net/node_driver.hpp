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
// violation, so the round state is fixed-size: per peer its marks, the
// replies and pushes it sent, and their payload sections; the lanes; and a
// per-label round stamp.  An agent acts at most once per round, so its
// label keys its data frame and the stamp drops a second copy.
//
// Send buffer: every frame sent to a peer, marks included, is encoded
// straight into that peer's byte buffer for the round's slot (round & 1),
// which records where each frame ends and is reused two rounds later.
// Loss recovery replays from it: a sync point still unsatisfied after
// resend_interval_ms sends kResendRequest marks to the outstanding peers,
// which replay that round's frames if their slot still holds it.  Copies
// are dropped by the stamps, and frames for finished rounds silently, so
// retransmission changes nothing about the execution.
//
// Link ids: a heap box (an honest agent's pinned H_u or CE_u view, or a
// box decoded from the wire) crosses each link once.  The first frame that
// carries it to a peer defines an id for it on that link (count = id + 1,
// with the section), and every later one names the id (count = kRef | id,
// header only; see net/wire_frame.hpp).  Ids are handed out 0, 1, 2, ...
// per link.  The sender keeps every box with an id, by handle or pinned
// view, so no other box can reuse its address.  Both ends start a new
// epoch (an empty table) at the first round boundary at which the link
// holds >= n ids.  A round adds at most n ids to a link (an agent sends at
// most one frame per round), so every id is < 2n.  The receiver rejects an
// id >= 2n, a reference with a section and a definition without one on
// arrival, and a reference to an undefined id or an id defined twice when
// it files the round's frames, each in an error that names the peer.
//
// Wire boundary: every section passes through a PayloadInterner
// (net/payload_interner.hpp), which encodes each heap box once per node
// and decodes each distinct intention or certificate once, so local
// receivers of one payload share one box.  An arriving frame's round,
// route, link-id bound and dedup checks run on its header alone, and its
// section (if any) waits in its peer's buffer.  After the last sync point
// the round's frames are decoded per peer, peers in label order: first the
// definitions, its pushes then its replies, each in label order; then the
// replies, matched against this shard's pullers in requester order, go
// into the core's reply slots, and the pushes into the lanes.  A peer
// sends its pushes and replies lane by lane, so over an ordered transport
// (TCP, loopback) they arrive in label order when this node's block is one
// delivery unit; a peer whose frames arrived in any other order (blocks of
// several units, UDP, resends) is sorted first.  So the TransportCounters
// do not depend on the order in which frames arrive.
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
#include <unordered_map>
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
  std::uint64_t link_definitions = 0;  ///< Filed frames that defined a
                                       ///< link id.
  std::uint64_t link_references = 0;   ///< Filed header-only frames that
                                       ///< named one.
  InternerCounters payloads;          ///< Section encodes/decodes and hits.

  TransportCounters& operator+=(const TransportCounters& other) noexcept {
    frames_sent += other.frames_sent;
    frames_received += other.frames_received;
    resend_requests_sent += other.resend_requests_sent;
    resend_requests_answered += other.resend_requests_answered;
    link_definitions += other.link_definitions;
    link_references += other.link_references;
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

  /// A pull reply or push filed this round, by its header.  A plain or
  /// defining frame's section waits in its peer's `sections`.
  struct Arrival {
    sim::AgentId agent = 0;
    sim::AgentId target = 0;
    std::uint32_t link = 0;     ///< The header's count (net/wire_frame.hpp).
    std::uint32_t section = 0;  ///< Offset in Peer::sections.
    std::uint32_t size = 0;     ///< Section bytes; 0 on a reference.
  };

  /// Everything sent to a peer for one round: the frames' bytes back to
  /// back, and where each ends.
  struct SentSlot {
    std::uint64_t round = kNone;
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint32_t> ends;
  };

  /// Both directions of the link to one peer.
  struct Peer {
    struct Tally {
      std::uint64_t announced = kNone;  ///< Until the mark arrives.
      std::uint32_t received = 0;
    };
    // Its marks: the round-status (for round_ or round_ + 1) and, for
    // round_, what its actions-done and replies-done announced against the
    // data frames filed so far.
    std::uint64_t status_round = kNone;  ///< Round `complete` is for.
    bool complete = false;
    bool down = false;  ///< tcp disconnect, fail-fast.
    Tally actions;      ///< Pull requests + pushes, then actions-done.
    Tally replies;      ///< Pull replies, then replies-done.

    // Outgoing: the send buffer, and the link ids of the boxes sent.
    std::uint32_t unmarked = 0;  ///< Data frames sent since the last mark.
    SentSlot sent[2];            ///< By round & 1.
    std::unordered_map<const void*, std::uint32_t> out_ids;  ///< By box.
    std::vector<sim::Payload> out_boxes;  ///< By id; keeps each box alive.

    // Incoming: this round's replies and pushes in arrival order, and the
    // link's boxes.
    std::vector<Arrival> in_replies;
    std::vector<Arrival> in_pushes;
    std::vector<std::uint8_t> sections;   ///< Their payload sections.
    std::vector<sim::Payload> in_boxes;   ///< By id; empty = undefined.
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

  /// Resets the marks' tallies, the inbound lanes, the arrivals, and the
  /// send-buffer slot round_ reuses (it held round_ - 2, which no peer can
  /// still ask for), and starts a new link-id epoch on every link that
  /// holds >= n ids.
  void begin_round();
  /// Encodes `header` into `to`'s send buffer for round_ and sends it.  A
  /// pull reply or push carries `payload`, a heap box as a link definition
  /// the first time and as a reference after.  A resend request is sent
  /// but not kept.
  void send_frame(NodeId to, Frame header,
                  const sim::Payload& payload = {});
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
  /// A filed arrival as a header, for error messages.
  Frame arrival_frame(FrameKind kind, const Arrival& a) const;
  /// Decodes peer p's definition `a`, if it is one, into p's link table.
  void define(NodeId p, const Arrival& a, FrameKind kind);
  /// The payload of p's arrival `a`: its section decoded, or its link
  /// id's box.
  sim::Payload payload_of(NodeId p, const Arrival& a, FrameKind kind);

  /// Broadcasts this node's completion flag, waits for every peer's, and
  /// returns their conjunction: true when every agent in the cluster is
  /// done.
  bool exchange_status(bool local_complete);
  void execute_round();
  /// After phase A: sends the lanes into other blocks' units.
  void send_actions();
  /// After phase B: sends the replies served to remote requesters.
  void send_replies();
  /// After the last sync point: decodes every peer's definitions, then
  /// files the replies and pushes (see the header comment).
  void file_arrivals();
  /// Puts each remote pullee's reply into the core's slot for its
  /// requester, one per pull of a non-faulty remote pullee.
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
  std::vector<Peer> peers_;     ///< By node id; this node's entry unused.
  /// The round each label last had a frame filed in.  An agent acts at
  /// most once per round, so a label stamped with round_ marks a duplicate:
  /// a request or push by its remote sender, or a reply by its local
  /// requester, so the two never share a label.
  std::vector<std::uint64_t> stamp_;  ///< By label, over [0, n).
};

}  // namespace rfc::net
