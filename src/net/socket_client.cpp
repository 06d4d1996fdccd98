#include "net/socket_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rfc::net {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in resolve(const PeerEndpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  const std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("net: cannot resolve host '" + ep.host +
                             "' (IPv4 dotted quad or 'localhost' only)");
  }
  return addr;
}

void write_u32(std::uint8_t* out, std::uint32_t value) {
  const std::uint32_t be = htonl(value);
  std::memcpy(out, &be, 4);
}

std::uint32_t read_u32(const std::uint8_t* in) {
  std::uint32_t be = 0;
  std::memcpy(&be, in, 4);
  return ntohl(be);
}

/// Blocking full write, for the 4-byte hello only: the mesh sockets turn
/// non-blocking once start() has identified every peer.
void write_fully(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t w = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      fail_errno("net: send");
    }
    sent += static_cast<std::size_t>(w);
  }
}

// --- UDP ------------------------------------------------------------------

class UdpCommClient final : public CommClient {
 public:
  /// How long start() keeps pinging unheard peers before declaring the
  /// cluster unreachable.
  static constexpr int kHandshakeTimeoutMs = 20000;

  ~UdpCommClient() override { stop(); }

  const char* name() const noexcept override { return "udp"; }

  void start(NodeId self, const std::vector<PeerEndpoint>& peers,
             CommClientCallback& callback) override {
    if (self >= peers.size()) {
      throw std::runtime_error("udp: self id outside the peer table");
    }
    self_ = self;
    callback_ = &callback;
    peers_.clear();
    for (const PeerEndpoint& ep : peers) peers_.push_back(resolve(ep));

    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) fail_errno("udp: socket");
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_addr.s_addr = htonl(INADDR_ANY);
    local.sin_port = htons(peers[self].port);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&local),
               sizeof(local)) != 0) {
      fail_errno("udp: bind port " + std::to_string(peers[self].port));
    }

    // Readiness handshake.  A datagram to a not-yet-bound port is lost
    // outright, so peers that come up early would lose their first sync
    // frames to late ones and deadlock the round protocol.  Ping every
    // peer with an empty-payload envelope until something — hello or real
    // frame — has arrived from each: hearing from p proves p is bound, so
    // everything sent to p afterwards reaches its receive buffer.  Real
    // frames arriving during the handshake (a fast peer may already be in
    // round 0) are dispatched to the callback like any other.
    std::vector<bool> heard(peers_.size(), false);
    heard[self_] = true;
    auto missing = static_cast<std::uint32_t>(peers_.size()) - 1;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(kHandshakeTimeoutMs);
    while (missing > 0) {
      if (Clock::now() >= deadline) {
        throw std::runtime_error("udp: node " + std::to_string(self_) +
                                 " heard nothing from " +
                                 std::to_string(missing) +
                                 " peer(s) during the start handshake");
      }
      std::uint8_t hello[4];
      write_u32(hello, self_);
      for (NodeId p = 0; p < peers_.size(); ++p) {
        if (p == self_) continue;
        // Best-effort by design: a refused/unreachable send just means the
        // peer is not up yet and the next tick retries.
        (void)::sendto(fd_, hello, sizeof(hello), 0,
                       reinterpret_cast<const sockaddr*>(&peers_[p]),
                       sizeof(peers_[p]));
      }
      int wait = 100;
      for (;;) {
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, wait);
        if (ready < 0) {
          if (errno == EINTR) continue;
          fail_errno("udp: poll(handshake)");
        }
        if (ready == 0) break;
        std::uint8_t buffer[65536];
        const ssize_t r = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
        if (r < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
            break;
          }
          fail_errno("udp: recv(handshake)");
        }
        if (r >= 4) {
          const NodeId from = read_u32(buffer);
          if (from < peers_.size() && from != self_) {
            if (!heard[from]) {
              heard[from] = true;
              --missing;
            }
            if (r > 4) {
              callback_->on_message(from, buffer + 4,
                                    static_cast<std::size_t>(r) - 4);
            }
          }
        }
        wait = 0;
      }
    }

    for (NodeId p = 0; p < peers_.size(); ++p) {
      if (p != self_) callback_->on_peer_state(p, true);
    }
  }

  void stop() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    callback_ = nullptr;
  }

  void send(NodeId to, const std::uint8_t* data, std::size_t size) override {
    if (fd_ < 0) throw std::runtime_error("udp: not started");
    if (to >= peers_.size()) throw std::runtime_error("udp: unknown peer");
    // In-band sender id: a datagram socket carries no identity of its own.
    std::vector<std::uint8_t> packet(4 + size);
    write_u32(packet.data(), self_);
    std::memcpy(packet.data() + 4, data, size);
    const ssize_t w = ::sendto(
        fd_, packet.data(), packet.size(), 0,
        reinterpret_cast<const sockaddr*>(&peers_[to]), sizeof(peers_[to]));
    if (w < 0) fail_errno("udp: sendto");
  }

  std::size_t poll(int timeout_ms) override {
    if (fd_ < 0) throw std::runtime_error("udp: not started");
    std::size_t delivered = 0;
    int wait = timeout_ms;
    for (;;) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, wait);
      if (ready < 0) {
        if (errno == EINTR) continue;
        fail_errno("udp: poll");
      }
      if (ready == 0) return delivered;
      std::uint8_t buffer[65536];
      const ssize_t r = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        fail_errno("udp: recv");
      }
      // r == 4 is a bare handshake hello (empty payload): a late peer may
      // still be pinging after our start() finished.  Drop it silently.
      if (r > 4) {
        const NodeId from = read_u32(buffer);
        if (from < peers_.size() && from != self_) {
          callback_->on_message(from, buffer + 4,
                                static_cast<std::size_t>(r) - 4);
          ++delivered;
        }
      }
      wait = 0;  // Drain whatever else is queued without blocking again.
    }
  }

 private:
  int fd_ = -1;
  NodeId self_ = kNoNode;
  CommClientCallback* callback_ = nullptr;
  std::vector<sockaddr_in> peers_;
};

// --- TCP mesh -------------------------------------------------------------

class TcpMeshCommClient final : public CommClient {
 public:
  /// How long start() keeps dialing/accepting before declaring the mesh
  /// unreachable; generous because peer processes launch concurrently.
  /// Also the longest a flush may go without writing a byte before the
  /// peer is declared stuck.
  static constexpr int kMeshTimeoutMs = 20000;
  /// Output queued for one peer before send() writes it out itself instead
  /// of leaving it to the next poll() or stop().
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  ~TcpMeshCommClient() override { stop(); }

  const char* name() const noexcept override { return "tcp"; }

  void start(NodeId self, const std::vector<PeerEndpoint>& peers,
             CommClientCallback& callback) override {
    if (self >= peers.size()) {
      throw std::runtime_error("tcp: self id outside the peer table");
    }
    self_ = self;
    num_nodes_ = static_cast<NodeId>(peers.size());
    callback_ = &callback;

    // Listen before dialing anyone: a concurrent dialer then lands in the
    // backlog even while we are busy dialing, which is what makes the
    // dial-lower/accept-higher mesh deadlock-free.
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener_ < 0) fail_errno("tcp: socket");
    const int one = 1;
    ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_addr.s_addr = htonl(INADDR_ANY);
    local.sin_port = htons(peers[self].port);
    if (::bind(listener_, reinterpret_cast<const sockaddr*>(&local),
               sizeof(local)) != 0) {
      fail_errno("tcp: bind port " + std::to_string(peers[self].port));
    }
    if (::listen(listener_, static_cast<int>(num_nodes_)) != 0) {
      fail_errno("tcp: listen");
    }

    const auto deadline =
        Clock::now() + std::chrono::milliseconds(kMeshTimeoutMs);
    for (NodeId j = 0; j < self_; ++j) dial(j, resolve(peers[j]), deadline);
    accept_higher(deadline);

    // From here on no call may block on a socket: two nodes writing to each
    // other at once must each keep reading while the other's buffers fill.
    for (auto& [peer, conn] : conns_) {
      const int flags = ::fcntl(conn.fd, F_GETFL, 0);
      if (flags < 0 || ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        fail_errno("tcp: fcntl(O_NONBLOCK)");
      }
      callback_->on_peer_state(peer, true);
    }
  }

  void stop() override {
    // Best effort: deliver what is still queued, but never throw — stop()
    // also runs on error paths and from the destructor.
    for (auto& [peer, conn] : conns_) {
      try {
        flush(peer, conn);
      } catch (const std::runtime_error&) {
      }
    }
    for (auto& [peer, conn] : conns_) {
      (void)peer;
      ::close(conn.fd);
    }
    conns_.clear();
    if (listener_ >= 0) {
      ::close(listener_);
      listener_ = -1;
    }
    callback_ = nullptr;
  }

  void send(NodeId to, const std::uint8_t* data, std::size_t size) override {
    const auto it = conns_.find(to);
    if (it == conns_.end()) {
      throw std::runtime_error("tcp: no connection to node " +
                               std::to_string(to));
    }
    Conn& conn = it->second;
    std::uint8_t prefix[4];
    write_u32(prefix, static_cast<std::uint32_t>(size));
    conn.out.insert(conn.out.end(), prefix, prefix + sizeof(prefix));
    conn.out.insert(conn.out.end(), data, data + size);
    if (conn.out.size() >= kFlushBytes) flush(to, conn);
  }

  std::size_t poll(int timeout_ms) override {
    if (callback_ == nullptr) throw std::runtime_error("tcp: not started");
    std::size_t delivered = 0;
    int wait = timeout_ms;
    for (;;) {
      for (auto& [peer, conn] : conns_) flush(peer, conn);
      // Messages already buffered (read while a flush waited for room) go
      // out before any wait; their callbacks may queue replies, which the
      // next pass flushes.
      const std::size_t buffered = dispatch_buffered();
      if (buffered > 0) {
        delivered += buffered;
        wait = 0;
        continue;
      }
      std::vector<pollfd> pfds;
      std::vector<Conn*> owners;
      pfds.reserve(conns_.size());
      owners.reserve(conns_.size());
      for (auto& [peer, conn] : conns_) {
        (void)peer;
        pfds.push_back({conn.fd, POLLIN, 0});
        owners.push_back(&conn);
      }
      if (pfds.empty()) return delivered;
      const int ready = ::poll(pfds.data(), pfds.size(), wait);
      if (ready < 0) {
        if (errno == EINTR) continue;
        fail_errno("tcp: poll");
      }
      if (ready == 0) return delivered;
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        read_available(*owners[i]);
      }
      wait = 0;  // Drain without blocking again.
    }
  }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> buffer;  ///< Unconsumed inbound stream bytes.
    std::vector<std::uint8_t> out;     ///< Queued outbound frames.
    bool eof = false;                  ///< The peer closed its side.
  };

  void configure(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  void dial(NodeId peer, const sockaddr_in& addr, Clock::time_point deadline) {
    auto backoff = std::chrono::microseconds(50);
    for (;;) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) fail_errno("tcp: socket");
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        configure(fd);
        std::uint8_t hello[4];
        write_u32(hello, self_);
        write_fully(fd, hello, sizeof(hello));
        conns_[peer].fd = fd;
        return;
      }
      ::close(fd);
      if (Clock::now() >= deadline) {
        throw std::runtime_error("tcp: node " + std::to_string(self_) +
                                 " could not reach node " +
                                 std::to_string(peer) + " in time");
      }
      // The peer is still coming up; retry soon (peers in one process are
      // usually a fraction of a millisecond apart), backing off to 50 ms.
      std::this_thread::sleep_for(backoff);
      backoff = std::min(2 * backoff, std::chrono::microseconds(50000));
    }
  }

  void accept_higher(Clock::time_point deadline) {
    NodeId expected = num_nodes_ - 1 - self_;
    while (expected > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        throw std::runtime_error("tcp: node " + std::to_string(self_) +
                                 " timed out accepting higher-id peers (" +
                                 std::to_string(expected) + " missing)");
      }
      pollfd pfd{listener_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        fail_errno("tcp: poll(listener)");
      }
      if (ready == 0) continue;
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        fail_errno("tcp: accept");
      }
      configure(fd);
      const NodeId peer = read_hello(fd, deadline);
      if (peer <= self_ || peer >= num_nodes_ || conns_.contains(peer)) {
        ::close(fd);
        throw std::runtime_error("tcp: unexpected hello from node id " +
                                 std::to_string(peer));
      }
      conns_[peer].fd = fd;
      --expected;
    }
  }

  NodeId read_hello(int fd, Clock::time_point deadline) {
    std::uint8_t hello[4];
    std::size_t got = 0;
    while (got < sizeof(hello)) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        throw std::runtime_error("tcp: timed out reading hello");
      }
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno != EINTR) fail_errno("tcp: poll(hello)");
      if (ready <= 0) continue;
      const ssize_t r = ::recv(fd, hello + got, sizeof(hello) - got, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        fail_errno("tcp: recv(hello)");
      }
      if (r == 0) throw std::runtime_error("tcp: peer closed during hello");
      got += static_cast<std::size_t>(r);
    }
    return read_u32(hello);
  }

  /// Writes everything queued for `peer`.  While the socket is full it keeps
  /// reading every peer into its input buffer, without dispatching: the
  /// peer may itself be stuck writing to us, and two nodes that only wait
  /// for room would wait forever.  Throws if no byte goes out for
  /// kMeshTimeoutMs; the peer's queue is dropped on any failure.
  void flush(NodeId peer, Conn& conn) {
    if (conn.out.empty()) return;
    std::size_t sent = 0;
    auto deadline = Clock::now() + std::chrono::milliseconds(kMeshTimeoutMs);
    try {
      while (sent < conn.out.size()) {
        const ssize_t w = ::send(conn.fd, conn.out.data() + sent,
                                 conn.out.size() - sent, MSG_NOSIGNAL);
        if (w >= 0) {
          sent += static_cast<std::size_t>(w);
          deadline = Clock::now() + std::chrono::milliseconds(kMeshTimeoutMs);
          continue;
        }
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) fail_errno("tcp: send");
        wait_writable(peer, conn, deadline);
      }
    } catch (...) {
      conn.out.clear();
      throw;
    }
    conn.out.clear();
  }

  /// Blocks until `conn` can take more bytes or any peer has input, and
  /// reads that input into the peers' buffers.
  void wait_writable(NodeId peer, Conn& conn, Clock::time_point deadline) {
    std::vector<pollfd> pfds;
    std::vector<Conn*> owners;
    for (auto& [p, c] : conns_) {
      (void)p;
      // A closed peer's socket stays readable forever: wait on it only for
      // room to write.
      short events = c.eof ? 0 : POLLIN;
      if (&c == &conn) events |= POLLOUT;
      if (events == 0) continue;
      pfds.push_back({c.fd, events, 0});
      owners.push_back(&c);
    }
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        throw std::runtime_error(
            "tcp: node " + std::to_string(self_) + " could not send to node " +
            std::to_string(peer) + " for " + std::to_string(kMeshTimeoutMs) +
            " ms (peer not reading)");
      }
      const int ready = ::poll(pfds.data(), pfds.size(),
                               static_cast<int>(left.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        fail_errno("tcp: poll(send)");
      }
      if (ready > 0) break;
    }
    // The target's own hangup or error surfaces from the next send().
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].events & POLLIN) != 0 &&
          (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_available(*owners[i]);
      }
    }
  }

  /// Appends everything `conn` has ready to its input buffer; sets
  /// conn.eof when the peer has closed its side.
  static void read_available(Conn& conn) {
    std::uint8_t chunk[65536];
    for (;;) {
      const ssize_t r = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (r > 0) {
        conn.buffer.insert(conn.buffer.end(), chunk, chunk + r);
        continue;
      }
      if (r == 0) {
        conn.eof = true;
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      fail_errno("tcp: recv");
    }
  }

  /// Dispatches the complete messages buffered from every peer and closes
  /// the connections whose peers have hung up; returns how many messages
  /// were delivered.
  std::size_t dispatch_buffered() {
    std::size_t delivered = 0;
    for (auto it = conns_.begin(); it != conns_.end();) {
      const NodeId peer = it->first;
      Conn& conn = it->second;
      ++it;  // dispatch() may erase `peer`, and only `peer`.
      if (conn.eof || has_message(conn.buffer)) delivered += dispatch(peer);
    }
    return delivered;
  }

  static bool has_message(const std::vector<std::uint8_t>& buffer) {
    return buffer.size() >= 4 && buffer.size() - 4 >= read_u32(buffer.data());
  }

  /// Delivers every complete length-prefixed message buffered from `peer`;
  /// returns how many were delivered.  On EOF the connection is dropped
  /// *after* delivering the buffered tail — it must leave conns_, or
  /// poll()'s level-triggered readiness would see the closed fd ready
  /// forever and its drain loop would never return.
  std::size_t dispatch(NodeId peer) {
    Conn& conn = conns_.at(peer);
    std::size_t delivered = 0;
    while (has_message(conn.buffer)) {
      // Deliver from a detached buffer: a callback may send(), and a send
      // that waits for room appends the peers' input to conn.buffer.
      std::vector<std::uint8_t> in = std::move(conn.buffer);
      conn.buffer.clear();
      std::size_t cursor = 0;
      while (in.size() - cursor >= 4) {
        const std::uint32_t len = read_u32(in.data() + cursor);
        if (in.size() - cursor - 4 < len) break;
        callback_->on_message(peer, in.data() + cursor + 4, len);
        ++delivered;
        cursor += 4 + static_cast<std::size_t>(len);
      }
      in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(cursor));
      in.insert(in.end(), conn.buffer.begin(), conn.buffer.end());
      conn.buffer = std::move(in);
    }
    if (conn.eof) {
      ::close(conn.fd);
      conns_.erase(peer);
      callback_->on_peer_state(peer, false);
    }
    return delivered;
  }

  int listener_ = -1;
  NodeId self_ = kNoNode;
  NodeId num_nodes_ = 0;
  CommClientCallback* callback_ = nullptr;
  std::map<NodeId, Conn> conns_;
};

}  // namespace

CommClientPtr make_udp_client() { return std::make_unique<UdpCommClient>(); }

CommClientPtr make_tcp_mesh_client() {
  return std::make_unique<TcpMeshCommClient>();
}

}  // namespace rfc::net
