// In-process loopback transport: deterministic mailboxes, no sockets.
//
// The hub owns one mailbox per node; a client's send() appends to the
// destination mailbox and poll() drains its own.  Delivery order within a
// (sender, receiver) pair is FIFO — exactly what a reliable ordered
// transport guarantees — and the NodeDriver's round protocol is insensitive
// to cross-sender interleaving (frames are buffered per round and replayed
// in label order), so loopback runs are bit-deterministic even though the
// N drivers live on N preemptively-scheduled threads.
//
// This is the `transport=loopback` backend the differential tests run: it
// exercises every byte of the framing and sync-point protocol with zero
// network nondeterminism, which is what makes "socket run == in-memory
// engine" a meaningful equation before real sockets enter the picture.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "net/comm_client.hpp"

namespace rfc::net {

/// Shared router for one in-process cluster of `num_nodes` loopback
/// clients.  Thread-safe: each node's driver thread touches only its own
/// mailbox lock on receive and the destination's on send.
class LoopbackHub {
 public:
  explicit LoopbackHub(std::uint32_t num_nodes);

  std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(boxes_.size());
  }

  /// Appends one message to `to`'s mailbox (wakes a blocked poll()).
  /// Throws std::invalid_argument on an out-of-range destination or an
  /// empty message (an empty entry is a stop notice, see post_stop).
  void post(NodeId from, NodeId to, const std::uint8_t* data,
            std::size_t size);

  /// Appends a stop notice from `from` — an entry with no bytes — to every
  /// other node's mailbox, behind every message `from` posted before it.
  void post_stop(NodeId from);

  /// Moves out every queued entry for `self`, blocking up to `timeout_ms`
  /// for the first (0 = non-blocking).
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> drain(
      NodeId self, int timeout_ms);

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<std::pair<NodeId, std::vector<std::uint8_t>>> queue;
  };

  std::vector<std::unique_ptr<Mailbox>> boxes_;
};

/// Builds a loopback client attached to `hub`.  start() binds it to its
/// NodeId; peers' endpoints are ignored (the hub is the address space).
CommClientPtr make_loopback_client(LoopbackHub& hub);

}  // namespace rfc::net
