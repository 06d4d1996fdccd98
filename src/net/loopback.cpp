#include "net/loopback.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace rfc::net {

LoopbackHub::LoopbackHub(std::uint32_t num_nodes) {
  if (num_nodes == 0) {
    throw std::invalid_argument("LoopbackHub: num_nodes must be positive");
  }
  boxes_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
}

void LoopbackHub::post(NodeId from, NodeId to, const std::uint8_t* data,
                       std::size_t size) {
  if (to >= boxes_.size()) {
    throw std::invalid_argument("LoopbackHub: unknown destination node");
  }
  if (size == 0) throw std::invalid_argument("LoopbackHub: empty message");
  Mailbox& box = *boxes_[to];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queue.emplace_back(from, std::vector<std::uint8_t>(data, data + size));
  }
  box.ready.notify_one();
}

void LoopbackHub::post_stop(NodeId from) {
  for (NodeId to = 0; to < num_nodes(); ++to) {
    if (to == from) continue;
    Mailbox& box = *boxes_[to];
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      box.queue.emplace_back(from, std::vector<std::uint8_t>());
    }
    box.ready.notify_one();
  }
}

std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> LoopbackHub::drain(
    NodeId self, int timeout_ms) {
  Mailbox& box = *boxes_.at(self);
  std::unique_lock<std::mutex> lock(box.mutex);
  if (box.queue.empty() && timeout_ms > 0) {
    box.ready.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&box] { return !box.queue.empty(); });
  }
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> out(
      std::make_move_iterator(box.queue.begin()),
      std::make_move_iterator(box.queue.end()));
  box.queue.clear();
  return out;
}

namespace {

class LoopbackCommClient final : public CommClient {
 public:
  explicit LoopbackCommClient(LoopbackHub& hub) : hub_(&hub) {}

  const char* name() const noexcept override { return "loopback"; }

  void start(NodeId self, const std::vector<PeerEndpoint>& peers,
             CommClientCallback& callback) override {
    if (self >= hub_->num_nodes() || peers.size() != hub_->num_nodes()) {
      throw std::runtime_error(
          "loopback: peer table does not match the hub's node count");
    }
    self_ = self;
    callback_ = &callback;
    for (NodeId p = 0; p < hub_->num_nodes(); ++p) {
      if (p != self_) callback_->on_peer_state(p, true);
    }
  }

  /// Reports the stop to every peer (on_peer_state(self, false)), as a tcp
  /// peer sees the connection close, so none waits out its sync timeout.
  void stop() override {
    if (callback_ == nullptr) return;
    callback_ = nullptr;
    hub_->post_stop(self_);
  }

  void send(NodeId to, const std::uint8_t* data, std::size_t size) override {
    if (callback_ == nullptr) throw std::runtime_error("loopback: not started");
    hub_->post(self_, to, data, size);
  }

  std::size_t poll(int timeout_ms) override {
    if (callback_ == nullptr) throw std::runtime_error("loopback: not started");
    const auto batch = hub_->drain(self_, timeout_ms);
    for (const auto& [from, bytes] : batch) {
      // FIFO per sender: a stop notice follows every message its peer sent.
      if (bytes.empty()) {
        callback_->on_peer_state(from, false);
      } else {
        callback_->on_message(from, bytes.data(), bytes.size());
      }
    }
    return batch.size();
  }

 private:
  LoopbackHub* hub_;
  NodeId self_ = kNoNode;
  CommClientCallback* callback_ = nullptr;
};

}  // namespace

CommClientPtr make_loopback_client(LoopbackHub& hub) {
  return std::make_unique<LoopbackCommClient>(hub);
}

}  // namespace rfc::net
