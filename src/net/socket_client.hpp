// Real-socket CommClient backends (POSIX only): UDP datagrams and an
// ACP-style TCP mesh.
//
// Both run single-threaded and poll(2)-driven — no reader threads, no
// locks; poll() on the client pumps the sockets and dispatches callbacks on
// the caller's stack, matching the CommClient threading contract.
//
// Wire envelopes:
//   * udp — one message per datagram, prefixed with the sender's node id
//     (u32, network byte order).  The socket itself carries no identity, so
//     the id travels in-band; endpoints are not authenticated (the model's
//     secure-channel assumption holds only for loopback/tcp runs).
//     Best-effort: datagrams may drop or reorder.  The NodeDriver's counted
//     sync points tolerate reordering, and a lost datagram is recovered by
//     its bounded retransmission protocol (resend requests answered from a
//     two-round send buffer, duplicates suppressed by per-round dedup) —
//     so a lossy link delays the barrier instead of hanging the run until
//     the sync timeout.
//   * tcp — full mesh in the comm_client_tcp_mesh shape: node i dials
//     every peer j < i and accepts from every j > i, each accepted
//     connection is identified by a 4-byte hello carrying the dialer's
//     node id, and every message is length-prefixed (u32, network byte
//     order) on the stream.  Reliable and FIFO per peer pair.
//     send() appends the length-prefixed message to the peer's output
//     buffer; poll() and stop() write every buffer out, and send() does so
//     itself only past 64 KiB.  A NodeDriver polls once per sync point, so
//     each sync point leaves as one write per peer instead of one per
//     frame — the bytes on the wire are unchanged.  After the hello the
//     sockets are non-blocking: a write that finds the socket full waits
//     for room while reading every peer into its input buffer, so two
//     nodes flooding each other (n = 2^20 over two nodes) cannot deadlock
//     in send().  A write that makes no progress for 20 s throws.
#pragma once

#include "net/comm_client.hpp"

namespace rfc::net {

/// Builds the UDP backend.  start() binds peers[self].port and resolves
/// every peer endpoint; all peers are reported up immediately.
CommClientPtr make_udp_client();

/// Builds the TCP-mesh backend.  start() listens on peers[self].port,
/// dials lower-id peers (retrying while they come up), accepts higher-id
/// peers, and returns once the mesh is complete; throws std::runtime_error
/// if the mesh cannot be established within the dial timeout.
CommClientPtr make_tcp_mesh_client();

}  // namespace rfc::net
