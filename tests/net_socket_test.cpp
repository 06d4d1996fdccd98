// Real-socket transports driven in-process: N node threads over actual
// TCP/UDP sockets on localhost must still reproduce the in-memory engine
// bit for bit.  The multi-*process* variant of the same cross-check runs as
// the socket_smoke_* CTest entries (bench/exp_socket); this test keeps the
// socket paths under the ordinary unit-test (and sanitizer) umbrella.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/harness.hpp"
#include "net/socket_client.hpp"
#include "sim/scheduler.hpp"

namespace rfc::net {
namespace {

/// Distinct per-process port block, away from the ephemeral range; each
/// test case offsets further so parallel ctest jobs on one box do not
/// collide (the CTest RESOURCE_LOCK serializes the socket tests anyway).
std::uint16_t port_base(std::uint16_t lane) {
  return static_cast<std::uint16_t>(18000 + (getpid() % 2000) +
                                    lane * 16);
}

ClusterSpec rumor_spec(std::uint32_t num_nodes, std::uint32_t num_faulty) {
  ClusterSpec spec;
  spec.kind = ClusterSpec::Kind::kRumor;
  spec.num_nodes = num_nodes;
  spec.rumor.n = 48;
  spec.rumor.seed = 1234;
  spec.rumor.mechanism = gossip::Mechanism::kPushPull;
  spec.rumor.num_faulty = num_faulty;
  spec.rumor.placement = num_faulty == 0 ? sim::FaultPlacement::kNone
                                         : sim::FaultPlacement::kRandom;
  return spec;
}

ClusterSpec protocol_spec(std::uint32_t num_nodes) {
  ClusterSpec spec;
  spec.kind = ClusterSpec::Kind::kProtocol;
  spec.num_nodes = num_nodes;
  spec.protocol.n = 48;
  spec.protocol.seed = 99;
  return spec;
}

TEST(TcpCluster, RumorMatchesEngine) {
  EXPECT_EQ(
      cross_check_local(rumor_spec(3, 6), TransportKind::kTcp, port_base(0)),
      "");
}

TEST(TcpCluster, ProtocolMatchesEngine) {
  EXPECT_EQ(
      cross_check_local(protocol_spec(3), TransportKind::kTcp, port_base(1)),
      "");
}

TEST(UdpCluster, RumorMatchesEngine) {
  EXPECT_EQ(
      cross_check_local(rumor_spec(3, 0), TransportKind::kUdp, port_base(2)),
      "");
}

TEST(UdpCluster, ProtocolMatchesEngine) {
  EXPECT_EQ(
      cross_check_local(protocol_spec(3), TransportKind::kUdp, port_base(3)),
      "");
}

/// Records what a client delivers.
struct RecordingCallback final : CommClientCallback {
  std::vector<std::vector<std::uint8_t>> messages;
  bool peer_down = false;

  void on_message(NodeId, const std::uint8_t* data,
                  std::size_t size) override {
    messages.emplace_back(data, data + size);
  }
  void on_peer_state(NodeId, bool connected) override {
    if (!connected) peer_down = true;
  }
};

TEST(TcpMesh, StopDeliversBufferedSendsInOrder) {
  // send() may only buffer; stop() must still put every queued message on
  // the wire, in order.  ~390 KiB also crosses the 64 KiB point at which
  // send() writes out on its own.
  const std::uint16_t base = port_base(5);
  const std::vector<PeerEndpoint> peers = {
      {"127.0.0.1", base}, {"127.0.0.1", static_cast<std::uint16_t>(base + 1)}};
  const CommClientPtr sender = make_tcp_mesh_client();
  const CommClientPtr receiver = make_tcp_mesh_client();
  RecordingCallback sender_cb;
  RecordingCallback receiver_cb;
  std::exception_ptr receiver_error;
  std::thread dial([&] {
    try {
      receiver->start(1, peers, receiver_cb);
    } catch (...) {
      receiver_error = std::current_exception();
    }
  });
  sender->start(0, peers, sender_cb);
  dial.join();
  ASSERT_FALSE(receiver_error);

  constexpr std::uint32_t kMessages = 4000;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    std::vector<std::uint8_t> message(96, static_cast<std::uint8_t>(i));
    std::memcpy(message.data(), &i, sizeof(i));
    sender->send(1, message.data(), message.size());
  }
  sender->stop();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!receiver_cb.peer_down &&
         std::chrono::steady_clock::now() < deadline) {
    receiver->poll(50);
  }
  receiver->stop();
  ASSERT_EQ(receiver_cb.messages.size(), kMessages);
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    const std::vector<std::uint8_t>& m = receiver_cb.messages[i];
    ASSERT_EQ(m.size(), 96u);
    std::uint32_t index = 0;
    std::memcpy(&index, m.data(), sizeof(index));
    EXPECT_EQ(index, i);
    EXPECT_EQ(m.back(), static_cast<std::uint8_t>(i));
  }
}

TEST(TcpCluster, TwoNodeMillionAgentRoundsDoNotDeadlockInSend) {
  // n = 2^20 over two nodes: in round 0's phase A each node ships ~2^19
  // pull requests to the other, far more than both sockets' kernel buffers
  // hold.  With blocking writes both nodes sat in send() forever, each
  // waiting for the other to read (and the sync timeout, which only guards
  // the barrier wait, never fired).  The non-blocking flush reads its peer
  // while it waits for room, so the run finishes and matches the engine.
  ClusterSpec spec = rumor_spec(2, 0);
  spec.rumor.n = 1u << 20;
  spec.rumor.max_rounds = 2;
  EXPECT_EQ(cross_check_local(spec, TransportKind::kTcp, port_base(4)), "");
}

}  // namespace
}  // namespace rfc::net
