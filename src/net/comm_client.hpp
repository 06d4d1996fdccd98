// Communication-client abstraction of the real transport layer.
//
// Everything below src/net exists to run the simulator's protocols as
// *actual communicating processes*: the same agents, the same per-label RNG
// streams, the same phased round — but with every cross-block message
// serialized through core/wire and moved over a pluggable transport instead
// of an in-memory buffer.  The design follows the comm_client /
// comm_client_cb_api split of cryptobiu/ACP (SNIPPETS.md §2): a virtual
// communication client delivers opaque byte messages to a callback
// interface, and the protocol driver above it (net/node_driver.hpp) never
// sees sockets.
//
// Three backends ship:
//
//   * loopback — in-process mailboxes behind a shared LoopbackHub
//     (net/loopback.hpp).  Deterministic and dependency-free: the unit and
//     differential tests run N "nodes" on N threads of one process.
//   * udp      — one datagram socket per node (net/socket_client.hpp).
//     Unordered, unreliable, connectionless: each message is one datagram
//     prefixed with the sender's node id.
//   * tcp      — a full mesh of TCP connections (net/socket_client.hpp),
//     ACP's comm_client_tcp_mesh shape: node i dials every peer j < i and
//     accepts from every j > i, each established connection is identified
//     by a hello carrying the dialer's node id, and messages are
//     length-prefixed on the stream.  Outgoing messages are coalesced per
//     peer until the next poll().
//
// Threading contract: single-threaded by design.  start(), send(), poll()
// and stop() are called from one driver thread; poll() is the only place
// callbacks fire, on the caller's stack.  (The loopback hub is internally
// synchronized because *different* clients poll from different threads,
// but any one client still has one owner.)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rfc::net {

/// Index of a node process in the peer table (not an agent label: one node
/// owns a whole contiguous block of labels).
using NodeId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Where a peer listens.  Loopback ignores both fields; udp/tcp bind
/// `port` on all interfaces and dial `host:port`.
struct PeerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Callback interface through which a CommClient surfaces events — the
/// ACP comm_client_cb_api role.  Implemented by net::NodeDriver.
class CommClientCallback {
 public:
  virtual ~CommClientCallback() = default;

  /// One complete message from `from`.  The buffer is only valid for the
  /// duration of the call.
  virtual void on_message(NodeId from, const std::uint8_t* data,
                          std::size_t size) = 0;

  /// Connection-state edge for `peer` (tcp emits these as mesh links come
  /// up and down; loopback/udp report every peer up at start, and loopback
  /// reports a peer down after the last message it sent before stopping).
  virtual void on_peer_state(NodeId /*peer*/, bool /*connected*/) {}
};

/// A virtual communication client: reliable-or-not, ordered-or-not is the
/// backend's business.  The driver's sync-point protocol tolerates loss,
/// duplication and reordering of individual messages (it retransmits on
/// request and deduplicates), but assumes the link itself stays up —
/// loopback and tcp are reliable anyway; udp is best-effort and recovered
/// by the driver.
class CommClient {
 public:
  virtual ~CommClient() = default;

  /// Backend name ("loopback", "udp", "tcp").
  virtual const char* name() const noexcept = 0;

  /// Brings the transport up: binds/dials per the backend, blocks until
  /// the mesh is usable (tcp: all connections established) or throws
  /// std::runtime_error.  `peers[self]` is this node's own endpoint.
  virtual void start(NodeId self, const std::vector<PeerEndpoint>& peers,
                     CommClientCallback& callback) = 0;

  /// Writes out what send() still buffers (best effort, never throws) and
  /// tears the transport down; idempotent.
  virtual void stop() = 0;

  /// Queues one message to `to`.  The backend may buffer it until the next
  /// poll() or stop(): a caller that waits for an answer must poll, not
  /// sleep.  (tcp buffers per peer and writes a sync point's frames as one
  /// write; loopback and udp hand each message on at once.)  Throws
  /// std::runtime_error on a hard transport failure (unknown peer, broken
  /// connection).
  virtual void send(NodeId to, const std::uint8_t* data,
                    std::size_t size) = 0;

  /// Pumps the transport: writes out everything send() buffered, dispatches
  /// any received messages to the callback and returns how many were
  /// delivered.  Blocks up to `timeout_ms` for the first one (0 =
  /// non-blocking drain).
  virtual std::size_t poll(int timeout_ms) = 0;
};

using CommClientPtr = std::unique_ptr<CommClient>;

/// Transport selector, round-trippable for CLI flags (`--transport=`).
enum class TransportKind : std::uint8_t { kLoopback, kUdp, kTcp };

const char* to_string(TransportKind kind) noexcept;

/// Inverse of to_string; throws std::invalid_argument on unknown names.
TransportKind parse_transport_kind(const std::string& text);

class LoopbackHub;  // net/loopback.hpp

/// Builds a client for `kind`.  Loopback requires the shared hub (every
/// in-process node attaches to the same one); udp/tcp ignore it.
CommClientPtr make_comm_client(TransportKind kind,
                               LoopbackHub* hub = nullptr);

}  // namespace rfc::net
