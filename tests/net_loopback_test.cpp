// Loopback transport: the distributed node protocol must be *bit-identical*
// to the in-memory engine.  The loopback backend has no network
// nondeterminism, so any divergence here is a protocol bug in the
// NodeDriver, not a flaky socket — which is what makes these the tier-1
// guards of the transport layer.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/harness.hpp"
#include "net/loopback.hpp"
#include "net/lossy_client.hpp"
#include "net/wire_frame.hpp"
#include "net/workload.hpp"
#include "order_trace_agent.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"

namespace rfc::net {
namespace {

ClusterSpec rumor_spec(std::uint32_t num_nodes, std::uint32_t num_faulty,
                       const char* scheduler = "synchronous") {
  ClusterSpec spec;
  spec.kind = ClusterSpec::Kind::kRumor;
  spec.num_nodes = num_nodes;
  spec.rumor.n = 48;
  spec.rumor.seed = 1234;
  spec.rumor.mechanism = gossip::Mechanism::kPushPull;
  spec.rumor.num_faulty = num_faulty;
  spec.rumor.placement = num_faulty == 0 ? sim::FaultPlacement::kNone
                                         : sim::FaultPlacement::kRandom;
  spec.rumor.scheduler = sim::SchedulerSpec::parse(scheduler);
  return spec;
}

ClusterSpec protocol_spec(std::uint32_t num_nodes, std::uint32_t num_faulty,
                          const char* scheduler = "synchronous") {
  ClusterSpec spec;
  spec.kind = ClusterSpec::Kind::kProtocol;
  spec.num_nodes = num_nodes;
  spec.protocol.n = 48;
  spec.protocol.seed = 99;
  spec.protocol.num_faulty = num_faulty;
  spec.protocol.placement = num_faulty == 0 ? sim::FaultPlacement::kNone
                                            : sim::FaultPlacement::kRandom;
  spec.protocol.scheduler = sim::SchedulerSpec::parse(scheduler);
  return spec;
}

TEST(LoopbackHub, DeliversFifoPerSenderAndValidatesDestinations) {
  LoopbackHub hub(3);
  const std::uint8_t a = 1, b = 2;
  hub.post(0, 2, &a, 1);
  hub.post(1, 2, &b, 1);
  hub.post(0, 2, &b, 1);
  const auto drained = hub.drain(2, 0);
  ASSERT_EQ(drained.size(), 3u);
  // FIFO within each (sender, receiver) pair.
  std::vector<std::uint8_t> from0;
  for (const auto& [from, bytes] : drained) {
    if (from == 0) from0.push_back(bytes.at(0));
  }
  ASSERT_EQ(from0.size(), 2u);
  EXPECT_EQ(from0[0], a);
  EXPECT_EQ(from0[1], b);
  EXPECT_TRUE(hub.drain(2, 0).empty());
  EXPECT_THROW(hub.post(0, 3, &a, 1), std::invalid_argument);
}

TEST(LoopbackHub, StopNoticeFollowsTheStoppedNodesMessages) {
  // A stop is an entry with no bytes in the same FIFO queue, so it reaches
  // every other node behind all the messages its sender posted before it.
  LoopbackHub hub(3);
  const std::uint8_t a = 1;
  hub.post(0, 2, &a, 1);
  hub.post_stop(0);
  const auto at2 = hub.drain(2, 0);
  ASSERT_EQ(at2.size(), 2u);
  EXPECT_EQ(at2[0].first, 0u);
  EXPECT_EQ(at2[0].second.size(), 1u);
  EXPECT_EQ(at2[1].first, 0u);
  EXPECT_TRUE(at2[1].second.empty());
  const auto at1 = hub.drain(1, 0);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_TRUE(at1[0].second.empty());
  EXPECT_TRUE(hub.drain(0, 0).empty());
  // A real message is never empty, so it cannot pass for a stop.
  EXPECT_THROW(hub.post(1, 2, &a, 0), std::invalid_argument);
}

TEST(ClusterWorkload, RejectsActivationBasedSchedulers) {
  // The node protocol reproduces the engine's *round-based* phases; an
  // activation-based policy has no distributed counterpart and must be
  // rejected up front rather than silently diverging.
  ClusterSpec spec = rumor_spec(2, 0, "sequential");
  EXPECT_THROW(make_cluster_workload(spec), std::invalid_argument);
}

TEST(LoopbackCluster, RumorMatchesEngineAcrossNodeCounts) {
  for (const std::uint32_t nodes : {1u, 2u, 3u, 5u}) {
    EXPECT_EQ(cross_check_local(rumor_spec(nodes, 0), TransportKind::kLoopback),
              "")
        << "nodes=" << nodes;
  }
}

TEST(LoopbackCluster, RumorWithFaultsMatchesEngine) {
  for (const std::uint32_t nodes : {2u, 4u}) {
    EXPECT_EQ(
        cross_check_local(rumor_spec(nodes, 6), TransportKind::kLoopback), "")
        << "nodes=" << nodes;
  }
}

TEST(LoopbackCluster, ProtocolMatchesEngineAcrossNodeCounts) {
  for (const std::uint32_t nodes : {1u, 3u}) {
    EXPECT_EQ(
        cross_check_local(protocol_spec(nodes, 0), TransportKind::kLoopback),
        "")
        << "nodes=" << nodes;
  }
}

TEST(LoopbackCluster, ProtocolWithFaultsMatchesEngine) {
  EXPECT_EQ(cross_check_local(protocol_spec(4, 4), TransportKind::kLoopback),
            "");
}

TEST(LoopbackCluster, PartialAsyncSchedulerMatchesEngine) {
  // The shared Bernoulli awake-mask stream must stay aligned across blocks:
  // every node draws the full n-label mask per round.
  EXPECT_EQ(cross_check_local(rumor_spec(3, 4, "partial-async:p=0.5"),
                              TransportKind::kLoopback),
            "");
  EXPECT_EQ(cross_check_local(protocol_spec(3, 0, "partial-async:p=0.75"),
                              TransportKind::kLoopback),
            "");
}

TEST(LoopbackCluster, RunsAreBitReproducible) {
  // Same spec, two runs: identical digests and metrics — the loopback
  // transport adds no nondeterminism on top of the seeded workload.
  const ClusterSpec spec = rumor_spec(3, 6);
  const Workload wl = make_cluster_workload(spec);
  const ClusterResult a =
      merge_reports(wl, run_local_cluster(spec, TransportKind::kLoopback));
  const ClusterResult b =
      merge_reports(wl, run_local_cluster(spec, TransportKind::kLoopback));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.block_digests, b.block_digests);
  EXPECT_EQ(cross_check(a, b), "");

  // Protocol P sends boxed payloads through every node's interner, whose
  // hit counts must not depend on the order in which peers' frames
  // arrive.  A resend request would only mean a slow host, so none may
  // fire before the sync timeout.
  ClusterSpec protocol = protocol_spec(4, 0);
  protocol.resend_interval_ms = protocol.sync_timeout_ms;
  const Workload pwl = make_cluster_workload(protocol);
  const std::vector<NodeReport> pa =
      run_local_cluster(protocol, TransportKind::kLoopback);
  const std::vector<NodeReport> pb =
      run_local_cluster(protocol, TransportKind::kLoopback);
  EXPECT_EQ(cross_check(merge_reports(pwl, pa), merge_reports(pwl, pb)), "");
  TransportCounters sum_a;
  TransportCounters sum_b;
  for (const NodeReport& r : pa) sum_a += r.transport;
  for (const NodeReport& r : pb) sum_b += r.transport;
  EXPECT_GT(sum_a.payloads.decode_hits, 0u);
  EXPECT_TRUE(sum_a == sum_b)
      << "decodes " << sum_a.payloads.decodes << " vs "
      << sum_b.payloads.decodes << ", decode hits "
      << sum_a.payloads.decode_hits << " vs " << sum_b.payloads.decode_hits
      << ", encodes " << sum_a.payloads.encodes << " vs "
      << sum_b.payloads.encodes;
}

TEST(LoopbackCluster, ProtocolNodesShareDecodedBoxes) {
  // Intentions and certificates cross the wire many times each: every node
  // encodes a box once and decodes a distinct payload once, and the run
  // still matches the engine.
  const ClusterSpec spec = protocol_spec(3, 0);
  const std::vector<NodeReport> reports =
      run_local_cluster(spec, TransportKind::kLoopback);
  TransportCounters sum;
  for (const NodeReport& r : reports) sum += r.transport;
  EXPECT_GT(sum.payloads.decode_hits, 0u);
  EXPECT_GT(sum.payloads.encode_hits, 0u);
  // A reliable transport: nothing lost, nothing resent.
  EXPECT_EQ(sum.frames_sent, sum.frames_received);
  EXPECT_EQ(sum.resend_requests_sent, 0u);
  // Every payload frame sent is either encoded or a cache hit, and every
  // one received is either decoded or shared.
  EXPECT_EQ(sum.payloads.encodes + sum.payloads.encode_hits,
            sum.payloads.decodes + sum.payloads.decode_hits);
  EXPECT_EQ(cross_check(merge_reports(make_cluster_workload(spec), reports),
                        reference_result(spec)),
            "");
}

namespace {

/// Counts, per destination node, the outgoing pull replies and pushes that
/// carry a heap box: link definitions and references, and plain frames
/// whose section holds an intention or certificate.
class BoxTallyingClient final : public CommClient {
 public:
  struct Tally {
    std::vector<std::uint64_t> box_frames;  ///< By destination.
    std::uint64_t plain_boxes = 0;  ///< Boxed tags sent without a link id.
  };

  BoxTallyingClient(CommClientPtr inner, Tally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  const char* name() const noexcept override { return inner_->name(); }
  void start(NodeId self, const std::vector<PeerEndpoint>& peers,
             CommClientCallback& callback) override {
    tally_.box_frames.assign(peers.size(), 0);
    inner_->start(self, peers, callback);
  }
  void stop() override { inner_->stop(); }
  std::size_t poll(int timeout_ms) override {
    return inner_->poll(timeout_ms);
  }

  void send(NodeId to, const std::uint8_t* data, std::size_t size) override {
    inner_->send(to, data, size);
    const auto kind = static_cast<FrameKind>(data[1]);
    if (!carries_payload(kind)) return;
    const std::uint32_t count =
        std::uint32_t{data[15]} << 24 | std::uint32_t{data[16]} << 16 |
        std::uint32_t{data[17]} << 8 | data[18];
    const std::size_t at = FrameCodec::kHeaderBytes;
    const bool boxed_tag =
        size >= at + 2 && (data[at] << 8 | data[at + 1]) >= 0x22 &&
        (data[at] << 8 | data[at + 1]) <= 0x23;
    if (count != 0 || boxed_tag) ++tally_.box_frames[to];
    if (count == 0 && boxed_tag) ++tally_.plain_boxes;
  }

 private:
  CommClientPtr inner_;
  Tally& tally_;
};

}  // namespace

TEST(LoopbackCluster, BoxesCrossEachLinkOnce) {
  // Every frame that carries an intention or certificate defines a link id
  // or names one, and most name one: a box's bytes cross each link once.
  // What each node filed as definitions and references is exactly what its
  // peers sent it.
  const ClusterSpec spec = protocol_spec(3, 0);
  LoopbackHub hub(spec.num_nodes);
  std::vector<BoxTallyingClient::Tally> tallies(spec.num_nodes);
  const std::vector<NodeReport> reports =
      run_local_cluster(spec, [&](NodeId id) {
        return CommClientPtr(std::make_unique<BoxTallyingClient>(
            make_comm_client(TransportKind::kLoopback, &hub), tallies[id]));
      });
  ASSERT_EQ(reports.size(), spec.num_nodes);
  std::uint64_t definitions = 0;
  std::uint64_t references = 0;
  for (NodeId to = 0; to < spec.num_nodes; ++to) {
    std::uint64_t box_frames = 0;
    for (const BoxTallyingClient::Tally& t : tallies) {
      box_frames += t.box_frames[to];
    }
    const TransportCounters& c = reports[to].transport;
    EXPECT_EQ(c.link_definitions + c.link_references, box_frames)
        << "node " << to;
    definitions += c.link_definitions;
    references += c.link_references;
  }
  for (const BoxTallyingClient::Tally& t : tallies) {
    EXPECT_EQ(t.plain_boxes, 0u);
  }
  EXPECT_GT(references, definitions);
  EXPECT_EQ(cross_check(merge_reports(make_cluster_workload(spec), reports),
                        reference_result(spec)),
            "");
}

// --------------------------------------------------------------------------
// Loss regression: before the resend protocol, ONE lost sync frame hung the
// cluster until the sync timeout (the bug src/net/socket_client.hpp used to
// document).  These tests inject loss deterministically through the lossy
// decorator and require the run to terminate promptly AND stay
// bit-identical to the engine — retransmission must recover the execution,
// not merely unblock it.
// --------------------------------------------------------------------------

namespace {

/// Runs `spec` on a loopback hub where node 0's outgoing frames go through
/// `drop`; all nodes resend aggressively so a recovered run still finishes
/// fast.  Returns the cross_check mismatch ("" = clean).
std::string run_lossy_cluster(ClusterSpec spec,
                              const LossyCommClient::DropFn& drop,
                              int linger_ms = 0) {
  spec.sync_timeout_ms = 20000;  // The hang guard, not the recovery path.
  spec.resend_interval_ms = 25;
  spec.linger_ms = linger_ms;
  const Workload wl = make_cluster_workload(spec);
  LoopbackHub hub(spec.num_nodes);
  const auto reports = run_local_cluster(spec, [&](NodeId id) {
    CommClientPtr inner = make_comm_client(TransportKind::kLoopback, &hub);
    if (id != 0) return inner;
    return CommClientPtr(std::make_unique<LossyCommClient>(
        std::move(inner), drop));
  });
  return cross_check(merge_reports(wl, reports), reference_result(spec));
}

/// Drops the first outgoing frame of the given kind, once.
LossyCommClient::DropFn drop_first(FrameKind kind) {
  auto dropped = std::make_shared<std::atomic<bool>>(false);
  return [kind, dropped](NodeId, const std::uint8_t* data, std::size_t size) {
    if (size < 2 || data[0] != 0xC5) return false;
    if (data[1] != static_cast<std::uint8_t>(kind)) return false;
    return !dropped->exchange(true);
  };
}

}  // namespace

TEST(LossyCluster, DroppedSyncFrameNoLongerHangsTheBarrier) {
  // Each sync kind in turn: the round-start status, the actions-done mark,
  // and the replies-done mark.  Any of these lost used to deadlock the
  // wait_for loop; the resend request must now recover it within a couple
  // of 25 ms resend intervals, far inside the test timeout.
  for (const FrameKind kind :
       {FrameKind::kRoundStatus, FrameKind::kActionsDone,
        FrameKind::kRepliesDone}) {
    EXPECT_EQ(run_lossy_cluster(rumor_spec(3, 0), drop_first(kind)), "")
        << to_string(kind);
  }
}

TEST(LossyCluster, DroppedDataFrameRecoveredExactly) {
  // Data frames (pull request / reply / push) carry the execution itself;
  // a lost one must be replayed from the send buffer and the run stay
  // bit-identical — the count-carrying sync marks make the wait exact.
  for (const FrameKind kind : {FrameKind::kPullRequest, FrameKind::kPullReply,
                               FrameKind::kPush}) {
    EXPECT_EQ(run_lossy_cluster(protocol_spec(3, 0), drop_first(kind)), "")
        << to_string(kind);
  }
}

TEST(LossyCluster, SeededRandomLossStaysBitIdentical) {
  // 10% independent loss on every node's outgoing frames (each node seeded
  // separately).  Lingering covers the final status broadcast — the one
  // frame whose loss only the sender-side linger can answer for.
  ClusterSpec spec = rumor_spec(3, 6);
  spec.sync_timeout_ms = 20000;
  spec.resend_interval_ms = 25;
  spec.linger_ms = 500;
  const Workload wl = make_cluster_workload(spec);
  LoopbackHub hub(spec.num_nodes);
  const auto reports = run_local_cluster(spec, [&](NodeId id) {
    return make_lossy_client(
        make_comm_client(TransportKind::kLoopback, &hub), 0.10,
        rfc::support::derive_seed(4242, id));
  });
  EXPECT_EQ(cross_check(merge_reports(wl, reports), reference_result(spec)),
            "");
}

TEST(LossyCluster, SeededRandomLossWithBoxesStaysBitIdentical) {
  // The seeded loss above on Protocol P, whose intentions and certificates
  // travel as link definitions and references: a lost definition is
  // replayed within its round, and frames that arrive out of label order
  // are sorted before they are filed.
  ClusterSpec spec = protocol_spec(3, 0);
  spec.sync_timeout_ms = 20000;
  spec.resend_interval_ms = 25;
  spec.linger_ms = 500;
  const Workload wl = make_cluster_workload(spec);
  LoopbackHub hub(spec.num_nodes);
  const auto reports = run_local_cluster(spec, [&](NodeId id) {
    return make_lossy_client(
        make_comm_client(TransportKind::kLoopback, &hub), 0.10,
        rfc::support::derive_seed(4242, id));
  });
  TransportCounters sum;
  for (const NodeReport& r : reports) sum += r.transport;
  EXPECT_GT(sum.resend_requests_sent, 0u);
  EXPECT_GT(sum.link_references, 0u);
  EXPECT_EQ(cross_check(merge_reports(wl, reports), reference_result(spec)),
            "");
}

namespace {

/// Passes everything through and keeps the longest poll() timeout asked for.
class PollRecordingClient final : public CommClient {
 public:
  PollRecordingClient(CommClientPtr inner, std::atomic<int>& longest)
      : inner_(std::move(inner)), longest_(&longest) {}

  const char* name() const noexcept override { return inner_->name(); }
  void start(NodeId self, const std::vector<PeerEndpoint>& peers,
             CommClientCallback& callback) override {
    inner_->start(self, peers, callback);
  }
  void stop() override { inner_->stop(); }
  void send(NodeId to, const std::uint8_t* data, std::size_t size) override {
    inner_->send(to, data, size);
  }
  std::size_t poll(int timeout_ms) override {
    int seen = longest_->load();
    while (timeout_ms > seen &&
           !longest_->compare_exchange_weak(seen, timeout_ms)) {
    }
    return inner_->poll(timeout_ms);
  }

 private:
  CommClientPtr inner_;
  std::atomic<int>* longest_;
};

}  // namespace

TEST(LossyCluster, SyncPointWaitsNoLongerThanTheResendInterval) {
  // A lost actions-done mark makes every peer of node 0 wait at the sync
  // point until a resend request recovers it.  No single wait may outlast
  // the resend interval, or the request goes out late and a short interval
  // acts as a long one.
  ClusterSpec spec = rumor_spec(3, 0);
  spec.sync_timeout_ms = 20000;
  spec.resend_interval_ms = 10;
  const Workload wl = make_cluster_workload(spec);
  LoopbackHub hub(spec.num_nodes);
  std::atomic<int> longest{0};
  const LossyCommClient::DropFn drop = drop_first(FrameKind::kActionsDone);
  const auto reports = run_local_cluster(spec, [&](NodeId id) {
    CommClientPtr client = make_comm_client(TransportKind::kLoopback, &hub);
    if (id == 0) {
      client = std::make_unique<LossyCommClient>(std::move(client), drop);
    }
    return CommClientPtr(
        std::make_unique<PollRecordingClient>(std::move(client), longest));
  });
  EXPECT_EQ(cross_check(merge_reports(wl, reports), reference_result(spec)),
            "");
  EXPECT_GT(longest.load(), 0);
  EXPECT_LE(longest.load(), spec.resend_interval_ms);
}

// --------------------------------------------------------------------------
// Round bound: a correct peer leads by at most one round, and for the next
// round sends only its round-status, so any other frame ahead of the
// current round is corrupt or hostile and must fail loudly.
// --------------------------------------------------------------------------

namespace {

/// Sends, after the first outgoing frame of kind `trigger`, `copies` more
/// frames: each `forge` applied to a decoded copy of it.
class ForgingClient final : public CommClient {
 public:
  ForgingClient(CommClientPtr inner, FrameCodec codec, FrameKind trigger,
                std::function<void(Frame&)> forge, int copies)
      : inner_(std::move(inner)),
        codec_(codec),
        trigger_(trigger),
        forge_(std::move(forge)),
        copies_(copies) {}

  const char* name() const noexcept override { return inner_->name(); }
  void start(NodeId self, const std::vector<PeerEndpoint>& peers,
             CommClientCallback& callback) override {
    inner_->start(self, peers, callback);
  }
  void stop() override { inner_->stop(); }
  std::size_t poll(int timeout_ms) override {
    return inner_->poll(timeout_ms);
  }

  void send(NodeId to, const std::uint8_t* data, std::size_t size) override {
    inner_->send(to, data, size);
    if (forged_ || size < 2 || data[1] != static_cast<std::uint8_t>(trigger_)) {
      return;
    }
    forged_ = true;
    auto decoded = codec_.decode(data, size);
    ASSERT_TRUE(decoded.ok());
    for (int i = 0; i < copies_; ++i) {
      Frame frame = *decoded.value;
      forge_(frame);
      const std::vector<std::uint8_t> bytes = codec_.encode(frame);
      inner_->send(to, bytes.data(), bytes.size());
    }
  }

 private:
  CommClientPtr inner_;
  FrameCodec codec_;
  FrameKind trigger_;
  std::function<void(Frame&)> forge_;
  int copies_;
  bool forged_ = false;
};

/// Runs a rumor cluster in which node `forger` forges `copies` extra
/// frames after its first frame of kind `trigger`.
std::vector<NodeReport> run_forging_cluster(
    const ClusterSpec& spec, FrameKind trigger,
    std::function<void(Frame&)> forge, int copies = 1, NodeId forger = 1) {
  LoopbackHub hub(spec.num_nodes);
  FrameCodec codec;
  codec.n = spec.rumor.n;
  return run_local_cluster(spec, [&](NodeId id) {
    CommClientPtr inner = make_comm_client(TransportKind::kLoopback, &hub);
    if (id != forger) return inner;
    return CommClientPtr(std::make_unique<ForgingClient>(
        std::move(inner), codec, trigger, forge, copies));
  });
}

}  // namespace

TEST(NodeDriverInbox, RejectsFrameMoreThanOneRoundAhead) {
  ClusterSpec spec = rumor_spec(2, 0);
  // Node 1 then waits in vain for node 0, which has failed; keep that
  // wait short.
  spec.sync_timeout_ms = 1000;
  try {
    run_forging_cluster(spec, FrameKind::kRoundStatus,
                        [](Frame& f) { f.round += 2; });
    FAIL() << "a frame two rounds ahead was accepted";
  } catch (const std::runtime_error& e) {
    // Node 0's error is rethrown first: the violation, naming the round.
    const std::string what = e.what();
    EXPECT_NE(what.find("more than one round ahead"), std::string::npos)
        << what;
    EXPECT_NE(what.find("round 2"), std::string::npos) << what;
  }
}

TEST(NodeDriverInbox, ClusterErrorNamesTheViolationAndEndsFast) {
  // Node 0 forges a round-status two rounds ahead to node 1, which rejects
  // it and stops.  The loopback transport reports the stop, so nodes 0 and
  // 2 fail at once on the lost peer instead of waiting out the sync
  // timeout, and the error rethrown is node 1's violation, not node 0's
  // echo of it.
  ClusterSpec spec = rumor_spec(3, 0);
  spec.sync_timeout_ms = 20000;
  const auto begin = std::chrono::steady_clock::now();
  try {
    run_forging_cluster(
        spec, FrameKind::kRoundStatus, [](Frame& f) { f.round += 2; }, 1, 0);
    FAIL() << "a frame two rounds ahead was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("more than one round ahead"), std::string::npos)
        << what;
    EXPECT_EQ(dynamic_cast<const SyncPointError*>(&e), nullptr) << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(5));
}

TEST(NodeDriverInbox, ResendRequestsForAnyRoundAreStillAnswered) {
  // A resend request only reads the send buffer, so its round is not
  // bounded: one far ahead is answered (with nothing) and the run is clean.
  ClusterSpec spec = rumor_spec(2, 0);
  const auto reports = run_forging_cluster(
      spec, FrameKind::kRoundStatus, [](Frame& f) {
        f.kind = FrameKind::kResendRequest;
        f.round += 5;
      });
  EXPECT_EQ(cross_check(merge_reports(make_cluster_workload(spec), reports),
                        reference_result(spec)),
            "");
}

TEST(NodeDriverInbox, RejectsDataFrameForTheNextRound) {
  // Only a round-status can be for round_ + 1: a peer pushes for the next
  // round only after this node's status for it, which follows this round.
  ClusterSpec spec = rumor_spec(2, 0);
  spec.sync_timeout_ms = 1000;
  try {
    run_forging_cluster(spec, FrameKind::kPush, [](Frame& f) { ++f.round; });
    FAIL() << "a push for the next round was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("data or mark frame for the next round"),
              std::string::npos)
        << what;
  }
}

TEST(NodeDriverInbox, DuplicateFloodCostsNoSectionDecodes) {
  // A peer repeats one push 64 times with distinct payloads.  Every copy is
  // a duplicate by its sender label, dropped after the header checks and
  // before its payload section is decoded, and the run is unchanged.
  const ClusterSpec spec = rumor_spec(2, 0);
  const auto decodes = [](const std::vector<NodeReport>& reports) {
    std::uint64_t sum = 0;
    for (const NodeReport& r : reports) sum += r.transport.payloads.decodes;
    return sum;
  };
  const std::uint64_t clean =
      decodes(run_local_cluster(spec, TransportKind::kLoopback));
  const std::vector<NodeReport> flooded = run_forging_cluster(
      spec, FrameKind::kPush,
      [i = std::uint64_t{0}](Frame& f) mutable {
        f.payload = sim::Payload::inline_words(f.payload.tag(), 64, ++i, 0, 0);
      },
      64);
  EXPECT_EQ(decodes(flooded), clean);
  EXPECT_EQ(cross_check(merge_reports(make_cluster_workload(spec), flooded),
                        reference_result(spec)),
            "");
}

// --------------------------------------------------------------------------
// Link table: a frame whose link id is out of bounds, undefined or of the
// wrong shape ends the run in an error that names the peer, promptly.
// --------------------------------------------------------------------------

namespace {

/// Rewrites node 1's first outgoing frame of kind `trigger` with `rewrite`
/// before it is sent.
class RewritingClient final : public CommClient {
 public:
  RewritingClient(CommClientPtr inner, FrameKind trigger,
                  std::function<void(std::vector<std::uint8_t>&)> rewrite)
      : inner_(std::move(inner)),
        trigger_(trigger),
        rewrite_(std::move(rewrite)) {}

  const char* name() const noexcept override { return inner_->name(); }
  void start(NodeId self, const std::vector<PeerEndpoint>& peers,
             CommClientCallback& callback) override {
    inner_->start(self, peers, callback);
  }
  void stop() override { inner_->stop(); }
  std::size_t poll(int timeout_ms) override {
    return inner_->poll(timeout_ms);
  }

  void send(NodeId to, const std::uint8_t* data, std::size_t size) override {
    if (done_ || size < 2 || data[1] != static_cast<std::uint8_t>(trigger_)) {
      inner_->send(to, data, size);
      return;
    }
    done_ = true;
    std::vector<std::uint8_t> bytes(data, data + size);
    rewrite_(bytes);
    inner_->send(to, bytes.data(), bytes.size());
  }

 private:
  CommClientPtr inner_;
  FrameKind trigger_;
  std::function<void(std::vector<std::uint8_t>&)> rewrite_;
  bool done_ = false;
};

/// Sets a frame's count field (big-endian at bytes 15-18) to `count`, and
/// cuts it to its header when `header_only`.
std::function<void(std::vector<std::uint8_t>&)> set_link(std::uint32_t count,
                                                         bool header_only) {
  return [count, header_only](std::vector<std::uint8_t>& bytes) {
    for (int i = 0; i < 4; ++i) {
      bytes[15 + i] = static_cast<std::uint8_t>(count >> (8 * (3 - i)));
    }
    if (header_only) bytes.resize(FrameCodec::kHeaderBytes);
  };
}

/// Runs a 2-node rumor cluster whose node 1 rewrites its first push, and
/// returns node 0's error.  Fails the test if the run completes, or if the
/// error takes more than 5 s of the 20 s sync timeout.
std::string rewritten_push_error(
    std::function<void(std::vector<std::uint8_t>&)> rewrite) {
  ClusterSpec spec = rumor_spec(2, 0);
  spec.sync_timeout_ms = 20000;
  LoopbackHub hub(spec.num_nodes);
  const auto begin = std::chrono::steady_clock::now();
  std::string what;
  try {
    run_local_cluster(spec, [&](NodeId id) {
      CommClientPtr inner = make_comm_client(TransportKind::kLoopback, &hub);
      if (id != 1) return inner;
      return CommClientPtr(std::make_unique<RewritingClient>(
          std::move(inner), FrameKind::kPush, rewrite));
    });
    ADD_FAILURE() << "the rewritten push was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(dynamic_cast<const SyncPointError*>(&e), nullptr) << e.what();
    what = e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(5));
  EXPECT_NE(what.find("peer 1"), std::string::npos) << what;
  return what;
}

}  // namespace

TEST(NodeDriverInbox, RejectsReferenceToAnUndefinedLinkId) {
  // Rumor payloads are inline, so no id is ever defined on any link.
  const std::string what = rewritten_push_error(set_link(kRef | 3, true));
  EXPECT_NE(what.find("reference to an undefined link id"), std::string::npos)
      << what;
}

TEST(NodeDriverInbox, RejectsLinkIdAtTheBound) {
  // n = 48, so every id on a link is below 96: a reference to id 96 and a
  // definition of it are both refused on arrival.
  for (const bool reference : {true, false}) {
    const std::string what = rewritten_push_error(
        reference ? set_link(kRef | 96, true) : set_link(96 + 1, false));
    EXPECT_NE(what.find("link id out of range"), std::string::npos) << what;
  }
}

TEST(NodeDriverInbox, RejectsReferenceFollowedBySectionBytes) {
  // The push keeps its section, so the header-only reference has bytes
  // after it.
  const std::string what = rewritten_push_error(set_link(kRef | 0, false));
  EXPECT_NE(what.find("bad-frame"), std::string::npos) << what;
}

TEST(NodeDriverInbox, RejectsDefinitionWithoutASection) {
  const std::string what = rewritten_push_error(set_link(1, true));
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
}

// --------------------------------------------------------------------------
// Driver fuzz: flipped bits in live frames.  The wire carries no checksum,
// so a flip may go unnoticed and change the outcome; what the driver owes
// is to end every run, in a structured error or a completed run, and never
// hang, crash or allocate without bound.
// --------------------------------------------------------------------------

namespace {

/// Flips one uniformly drawn bit of each outgoing frame with probability
/// `p`, from a private seeded stream.  The driver above it keeps the
/// unflipped bytes, so a resend replays the original frame.
class BitFlippingClient final : public CommClient {
 public:
  BitFlippingClient(CommClientPtr inner, double p, std::uint64_t seed)
      : inner_(std::move(inner)), p_(p), rng_(seed) {}

  const char* name() const noexcept override { return inner_->name(); }
  void start(NodeId self, const std::vector<PeerEndpoint>& peers,
             CommClientCallback& callback) override {
    inner_->start(self, peers, callback);
  }
  void stop() override { inner_->stop(); }
  std::size_t poll(int timeout_ms) override {
    return inner_->poll(timeout_ms);
  }

  void send(NodeId to, const std::uint8_t* data, std::size_t size) override {
    if (size == 0 || !rng_.bernoulli(p_)) {
      inner_->send(to, data, size);
      return;
    }
    std::vector<std::uint8_t> bytes(data, data + size);
    const std::uint64_t bit = rng_.below(8 * size);
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    inner_->send(to, bytes.data(), bytes.size());
  }

 private:
  CommClientPtr inner_;
  double p_;
  rfc::support::Xoshiro256 rng_;
};

}  // namespace

TEST(NodeDriverFuzz, FlippedBitsEndInAnErrorOrACompletedRun) {
  ClusterSpec spec = protocol_spec(3, 0);
  spec.sync_timeout_ms = 2000;
  spec.resend_interval_ms = 25;
  const Workload wl = make_cluster_workload(spec);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    LoopbackHub hub(spec.num_nodes);
    const auto begin = std::chrono::steady_clock::now();
    try {
      const auto reports = run_local_cluster(spec, [&](NodeId id) {
        return CommClientPtr(std::make_unique<BitFlippingClient>(
            make_comm_client(TransportKind::kLoopback, &hub), 0.0005,
            rfc::support::derive_seed(seed, id)));
      });
      merge_reports(wl, reports);  // The nodes agree on one run.
    } catch (const std::runtime_error&) {
      // A structured error: a rejected frame, or a sync-point timeout on a
      // node whose peer stopped or lost its way.
    }
    // A stalled sync point throws after 2 s, on every waiting node at
    // once; the bound leaves room for sanitizer builds.
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(30))
        << "seed " << seed;
  }
}

TEST(ClusterWorkload, RejectsNonInertNetworkSpecs) {
  // The simulated message adversary lives in the engine; transport runs
  // must refuse it rather than silently running two different experiments
  // on the two sides of the cross-check.
  ClusterSpec spec = rumor_spec(2, 0);
  spec.rumor.network = sim::NetworkSpec::parse("network:drop=0.25");
  EXPECT_THROW(make_cluster_workload(spec), std::invalid_argument);
  // The inert spec (the default) stays accepted.
  spec.rumor.network = sim::NetworkSpec::none();
  EXPECT_EQ(cross_check_local(spec, TransportKind::kLoopback), "");
}

TEST(MergeReports, RejectsInconsistentReportSets) {
  const ClusterSpec spec = rumor_spec(2, 0);
  const Workload wl = make_cluster_workload(spec);
  std::vector<NodeReport> reports =
      run_local_cluster(spec, TransportKind::kLoopback);
  ASSERT_EQ(reports.size(), 2u);

  std::vector<NodeReport> duplicated = reports;
  duplicated[1] = duplicated[0];
  EXPECT_THROW(merge_reports(wl, duplicated), std::runtime_error);

  std::vector<NodeReport> disagreeing = reports;
  disagreeing[1].rounds += 1;
  EXPECT_THROW(merge_reports(wl, disagreeing), std::runtime_error);

  std::vector<NodeReport> missing(reports.begin(), reports.begin() + 1);
  EXPECT_THROW(merge_reports(wl, missing), std::runtime_error);
}


// --------------------------------------------------------------------------
// One round kernel: a node runs the engine's executor on its own shard, the
// node blocks being the shards.  Blocks that span several delivery units,
// cut by block boundaries, must still match the engine, and a bad action
// must fail with the engine's error.
// --------------------------------------------------------------------------

TEST(LoopbackCluster, BlocksSpanningSeveralDeliveryUnitsMatchEngine) {
  // n = 2^17 + 3 over 3 nodes: both block boundaries cut a 2^16-label
  // delivery unit, and nodes 1 and 2 own two units each.
  for (const char* scheduler : {"synchronous", "partial-async:p=0.5"}) {
    ClusterSpec spec = rumor_spec(3, 4096, scheduler);
    spec.rumor.n = (1u << 17) + 3;
    spec.rumor.max_rounds = 6;
    EXPECT_EQ(cross_check_local(spec, TransportKind::kLoopback), "")
        << scheduler;
  }
}

/// OrderTraceAgents on n labels (every 97th faulty) under `scheduler` for
/// six rounds, each block digested by its agents' trace hashes.
Workload order_trace_workload(std::uint32_t n, const char* scheduler) {
  Workload wl;
  wl.n = n;
  wl.seed = 77;
  wl.scheduler = sim::SchedulerSpec::parse(scheduler);
  wl.fault_plan.assign(n, false);
  for (sim::AgentId l = 0; l < n; l += 97) wl.fault_plan[l] = true;
  wl.max_rounds = 6;
  wl.make_agent = [](sim::AgentId) {
    return std::make_unique<rfc::testing::OrderTraceAgent>();
  };
  wl.agent_complete = [](const sim::Agent&) { return false; };
  wl.digest_agent = [](Fnv1a& fnv, const sim::Agent& agent, sim::AgentId,
                       bool) {
    fnv.mix_u64(
        static_cast<const rfc::testing::OrderTraceAgent&>(agent).hash());
  };
  return wl;
}

/// `wl` as `nodes` NodeDrivers over a loopback hub, one thread each.
ClusterResult run_workload_cluster(const Workload& wl, std::uint32_t nodes) {
  LoopbackHub hub(nodes);
  std::vector<NodeReport> reports(nodes);
  std::vector<std::string> errors(nodes);
  std::vector<std::thread> threads;
  for (NodeId id = 0; id < nodes; ++id) {
    threads.emplace_back([&, id] {
      const CommClientPtr client =
          make_comm_client(TransportKind::kLoopback, &hub);
      NodeOptions options;
      options.node_id = id;
      options.num_nodes = nodes;
      options.sync_timeout_ms = 5000;
      try {
        NodeDriver driver(wl, options, *client);
        reports[id] = driver.run(std::vector<PeerEndpoint>(nodes));
      } catch (const std::exception& e) {
        errors[id] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }
  return merge_reports(wl, reports);
}

/// `wl` on the in-memory engine, summarized as a `nodes`-node cluster.
ClusterResult run_workload_engine(const Workload& wl, std::uint32_t nodes) {
  sim::Engine engine(
      sim::EngineConfig(wl.n, wl.seed, nullptr, wl.scheduler.make()));
  engine.apply_fault_plan(wl.fault_plan);
  for (sim::AgentId l = 0; l < wl.n; ++l) engine.set_agent(l, wl.make_agent(l));
  engine.run(wl.max_rounds);
  ClusterResult result;
  result.rounds = engine.round();
  result.metrics = engine.metrics();
  for (std::uint32_t b = 0; b < nodes; ++b) {
    Fnv1a fnv;
    for (sim::AgentId l = sim::contiguous_block_begin(wl.n, nodes, b);
         l < sim::contiguous_block_begin(wl.n, nodes, b + 1); ++l) {
      wl.digest_agent(fnv, engine.agent(l), l, engine.is_faulty(l));
    }
    result.block_digests.push_back(fnv.value());
  }
  result.digest = combine_block_digests(result.block_digests);
  return result;
}

TEST(LoopbackCluster, DeliveryOrderAcrossUnitsMatchesEngine) {
  // The layout above, with agents whose state is the order in which they
  // met every requester, server and sender: a node that drains its units'
  // lanes in any order but the engine's ends in another state.
  for (const char* scheduler : {"synchronous", "partial-async:p=0.5"}) {
    const Workload wl = order_trace_workload((1u << 17) + 3, scheduler);
    EXPECT_EQ(cross_check(run_workload_cluster(wl, 3),
                          run_workload_engine(wl, 3)),
              "")
        << scheduler;
  }
}

/// Idles, except that label `bad` pushes to label n, one past the last.
class OutOfRangePusher final : public sim::Agent {
 public:
  explicit OutOfRangePusher(bool bad) : bad_(bad) {}
  sim::Action on_round(const sim::Context& ctx) override {
    return bad_ ? sim::Action::push(ctx.n, sim::Payload{})
                : sim::Action::idle();
  }
  sim::Payload serve_pull(const sim::Context&, sim::AgentId) override {
    return {};
  }
  bool done() const override { return false; }

 private:
  bool bad_;
};

TEST(OutOfRangeTarget, EngineAndLoopbackClusterThrowTheSameError) {
  constexpr std::uint32_t kN = 8;
  constexpr sim::AgentId kBad = 5;  // In node 1's block [4, 8).
  const auto make_agent = [](sim::AgentId label) {
    return std::make_unique<OutOfRangePusher>(label == kBad);
  };

  sim::Engine engine(sim::EngineConfig(kN, 1));
  for (sim::AgentId l = 0; l < kN; ++l) engine.set_agent(l, make_agent(l));
  std::string engine_error;
  try {
    engine.step();
    FAIL() << "the engine accepted a target out of range";
  } catch (const std::out_of_range& e) {
    engine_error = e.what();
  }
  EXPECT_NE(engine_error.find("agent 5 targeted label 8"), std::string::npos)
      << engine_error;

  Workload wl;
  wl.n = kN;
  wl.scheduler = sim::SchedulerSpec::parse("synchronous");
  wl.fault_plan.assign(kN, false);
  wl.max_rounds = 4;
  wl.make_agent = make_agent;
  wl.agent_complete = [](const sim::Agent&) { return false; };
  wl.digest_agent = [](Fnv1a&, const sim::Agent&, sim::AgentId, bool) {};
  LoopbackHub hub(2);
  std::string node_error;
  std::vector<std::thread> threads;
  for (NodeId id = 0; id < 2; ++id) {
    threads.emplace_back([&, id] {
      const CommClientPtr client =
          make_comm_client(TransportKind::kLoopback, &hub);
      NodeOptions options;
      options.node_id = id;
      options.num_nodes = 2;
      options.sync_timeout_ms = 5000;
      NodeDriver driver(wl, options, *client);
      try {
        driver.run(std::vector<PeerEndpoint>(2));
      } catch (const std::out_of_range& e) {
        if (id == 1) node_error = e.what();
      } catch (const std::runtime_error&) {
        // Node 0 loses its peer at the next sync point.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(node_error, engine_error);
}

}  // namespace
}  // namespace rfc::net
