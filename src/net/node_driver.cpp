#include "net/node_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace rfc::net {

namespace {

[[noreturn]] void bad_frame(NodeId from, core::WireError error) {
  throw std::runtime_error(std::string("NodeDriver: bad frame from peer ") +
                           std::to_string(from) + ": " +
                           core::to_string(error));
}

/// The block of node options.node_id, after checking the node options.
sim::LabelRange block_for(const Workload& workload,
                          const NodeOptions& options) {
  if (options.num_nodes == 0 || options.node_id >= options.num_nodes) {
    throw std::invalid_argument("NodeDriver: node_id/num_nodes out of range");
  }
  if (options.num_nodes > workload.n) {
    throw std::invalid_argument("NodeDriver: more nodes than agents");
  }
  return {sim::contiguous_block_begin(workload.n, options.num_nodes,
                                      options.node_id),
          sim::contiguous_block_begin(workload.n, options.num_nodes,
                                      options.node_id + 1)};
}

/// The link id a nonzero data-frame count defines or names.
std::uint32_t link_id(std::uint32_t count) noexcept {
  return (count & kRef) != 0 ? count & ~kRef : count - 1;
}

[[noreturn]] void protocol_violation(const char* what, NodeId from,
                                     const Frame& frame) {
  throw std::runtime_error(
      std::string("NodeDriver: ") + what + " (peer " + std::to_string(from) +
      ", " + to_string(frame.kind) + " frame, round " +
      std::to_string(frame.round) + ", agent " + std::to_string(frame.agent) +
      ", target " + std::to_string(frame.target) + ")");
}

}  // namespace

NodeDriver::NodeDriver(const Workload& workload, const NodeOptions& options,
                       CommClient& client)
    : workload_(&workload),
      options_(options),
      client_(&client),
      interner_(FrameCodec{workload.n,
                           workload.has_params ? &workload.params : nullptr}),
      block_(block_for(workload, options)),
      core_(workload.n, workload.seed, nullptr, block_),
      exec_(sim::ShardingConfig{options.num_nodes, 1}) {
  if (!workload_->make_agent || !workload_->agent_complete ||
      !workload_->digest_agent) {
    throw std::invalid_argument("NodeDriver: workload hooks not set");
  }
  core_.apply_fault_plan(workload_->fault_plan);
  // Faulty labels get an agent too: they take no callbacks, but their
  // (initial) state is part of the block digest, as in the engine.
  for (std::uint32_t l = block_.begin; l < block_.end; ++l) {
    std::unique_ptr<sim::Agent> agent = workload_->make_agent(l);
    if (agent == nullptr) {
      throw std::invalid_argument("NodeDriver: make_agent returned null");
    }
    core_.set_agent(l, std::move(agent));
  }

  const std::string& policy = workload_->scheduler.policy();
  if (policy == "partial-async") {
    partial_async_ = std::make_unique<sim::PartialAsyncScheduler>(
        workload_->scheduler.param_double("p", 0.5));
    partial_async_->attach(core_);  // Seeds the engine's wake stream.
  } else if (policy != "synchronous") {
    throw std::invalid_argument("NodeDriver: scheduler '" + policy +
                                "' is not round-based");
  }

  peers_.resize(options_.num_nodes);
  stamp_.assign(workload_->n, kNone);
}

template <typename Fn>
void NodeDriver::for_each_inbound_lane(Fn&& fn) {
  const NodeId self = options_.node_id;
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p == self) continue;
    for (std::uint32_t u = exec_.unit_begin(self);
         u < exec_.unit_begin(self + 1); ++u) {
      fn(p, exec_.lane(p, u));
    }
  }
}

bool NodeDriver::block_complete() const {
  for (std::uint32_t l = block_.begin; l < block_.end; ++l) {
    if (workload_->fault_plan[l]) continue;
    if (!workload_->agent_complete(core_.agent(l))) return false;
  }
  return true;
}

std::uint64_t NodeDriver::local_digest() const {
  Fnv1a fnv;
  for (std::uint32_t l = block_.begin; l < block_.end; ++l) {
    workload_->digest_agent(fnv, core_.agent(l), l, workload_->fault_plan[l]);
  }
  return fnv.value();
}

void NodeDriver::begin_round() {
  for_each_inbound_lane([](NodeId, Lane& lane) {
    lane.pulls.clear();
    lane.pushes.clear();
  });
  for (Peer& peer : peers_) {
    peer.actions = peer.replies = Peer::Tally{};
    peer.in_replies.clear();
    peer.in_pushes.clear();
    peer.sections.clear();
    SentSlot& slot = peer.sent[round_ & 1];
    slot.round = round_;
    slot.bytes.clear();
    slot.ends.clear();
    // Both ends hold the same ids here: every definition of the last round
    // arrived before it ended.
    if (peer.out_boxes.size() >= workload_->n) {
      peer.out_ids.clear();
      peer.out_boxes.clear();
    }
    if (peer.in_boxes.size() >= workload_->n) peer.in_boxes.clear();
  }
}

void NodeDriver::send_frame(NodeId to, Frame header,
                            const sim::Payload& payload) {
  ++counters_.frames_sent;
  if (header.kind == FrameKind::kResendRequest) {
    // Not kept: a lost request is simply repeated.
    const std::vector<std::uint8_t> bytes = interner_.codec().encode(header);
    client_->send(to, bytes.data(), bytes.size());
    ++counters_.resend_requests_sent;
    return;
  }
  Peer& peer = peers_[to];
  // Heap boxes only: an arena box dies at the round's end, and an inline
  // or empty payload is a value, with no address to key it by.
  const void* box = payload.is_arena_boxed()
                        ? nullptr
                        : payload.boxed_as<void>(payload.tag());
  if (box != nullptr) {
    const auto id = static_cast<std::uint32_t>(peer.out_boxes.size());
    const auto [it, fresh] = peer.out_ids.try_emplace(box, id);
    if (fresh) {
      peer.out_boxes.push_back(payload);
      header.count = id + 1;
    } else {
      header.count = kRef | it->second;
    }
  }
  SentSlot& slot = peer.sent[round_ & 1];
  const std::size_t begin = slot.bytes.size();
  interner_.codec().encode_header(header, slot.bytes);
  if (has_section(header.kind, header.count)) {
    interner_.append_section(payload, slot.bytes);
  }
  slot.ends.push_back(static_cast<std::uint32_t>(slot.bytes.size()));
  client_->send(to, slot.bytes.data() + begin, slot.bytes.size() - begin);
  if (header.kind == FrameKind::kPullRequest ||
      carries_payload(header.kind)) {
    ++peer.unmarked;  // A data frame, counted by the next mark.
  }
}

void NodeDriver::answer_resend(NodeId to, std::uint64_t round) {
  ++counters_.resend_requests_answered;
  const SentSlot& slot = peers_[to].sent[round & 1];
  if (slot.round != round) return;
  std::uint32_t begin = 0;
  for (const std::uint32_t end : slot.ends) {
    client_->send(to, slot.bytes.data() + begin, end - begin);
    ++counters_.frames_sent;
    begin = end;
  }
}

void NodeDriver::on_peer_state(NodeId peer, bool connected) {
  if (peer < peers_.size() && !connected) peers_[peer].down = true;
}

void NodeDriver::on_message(NodeId from, const std::uint8_t* data,
                            std::size_t size) {
  if (from >= options_.num_nodes || from == options_.node_id) {
    throw std::runtime_error("NodeDriver: frame from invalid peer " +
                             std::to_string(from));
  }
  ++counters_.frames_received;
  auto header = interner_.decode_header(data, size);
  if (!header.ok()) bad_frame(from, header.error);
  const Frame& frame = *header.value;
  // Resend requests are answered regardless of round skew: the requester
  // may lag (waiting for frames we already sent) or lead (waiting at the
  // next status barrier for a broadcast we lost).
  if (frame.kind == FrameKind::kResendRequest) {
    answer_resend(from, frame.round);
    return;
  }
  // A frame for an already-finished round is a legitimate duplicate: a
  // retransmission can land after the barrier it was needed for released.
  if (frame.round < round_) return;
  // One round in flight (see the header): only a round-status can be for
  // round_ + 1, and nothing for a later round.
  if (frame.round > round_ + 1) {
    protocol_violation("frame more than one round ahead", from, frame);
  }
  if (frame.round > round_ && frame.kind != FrameKind::kRoundStatus) {
    protocol_violation("data or mark frame for the next round", from, frame);
  }

  Peer& peer = peers_[from];
  switch (frame.kind) {
    case FrameKind::kRoundStatus:
      peer.status_round = frame.round;
      peer.complete = frame.complete;
      return;
    case FrameKind::kActionsDone:
      peer.actions.announced = frame.count;
      return;
    case FrameKind::kRepliesDone:
      peer.replies.announced = frame.count;
      return;
    default:
      break;  // A data frame.
  }
  // `agent` pulled or pushed, and `target` is the pullee or the push's
  // destination; a reply travels back from the pullee's owner.
  const bool reply = frame.kind == FrameKind::kPullReply;
  const NodeId self = options_.node_id;
  if (block_of(frame.agent) != (reply ? self : from) ||
      block_of(frame.target) != (reply ? from : self) ||
      (!reply && workload_->fault_plan[frame.target])) {
    protocol_violation("misrouted frame", from, frame);
  }
  if (frame.kind != FrameKind::kPullRequest && frame.count != 0 &&
      link_id(frame.count) >= 2 * std::uint64_t{workload_->n}) {
    protocol_violation("link id out of range", from, frame);
  }
  if (std::exchange(stamp_[frame.agent], round_) == round_) return;  // Dup.
  ++(reply ? peer.replies : peer.actions).received;
  if (frame.kind == FrameKind::kPullRequest) {
    exec_.lane(from, exec_.unit_of(self, frame.target))
        .pulls.push_back({frame.agent, frame.target});
    return;
  }
  const std::size_t section = size - FrameCodec::kHeaderBytes;
  (reply ? peer.in_replies : peer.in_pushes)
      .push_back({frame.agent, frame.target, frame.count,
                  static_cast<std::uint32_t>(peer.sections.size()),
                  static_cast<std::uint32_t>(section)});
  peer.sections.insert(peer.sections.end(), data + FrameCodec::kHeaderBytes,
                       data + size);
}

Frame NodeDriver::arrival_frame(FrameKind kind, const Arrival& a) const {
  return {.kind = kind, .round = round_, .agent = a.agent,
          .target = a.target, .count = a.link};
}

void NodeDriver::define(NodeId p, const Arrival& a, FrameKind kind) {
  if (a.link == 0 || (a.link & kRef) != 0) return;
  Peer& peer = peers_[p];
  const std::uint32_t id = link_id(a.link);
  if (id >= peer.in_boxes.size()) peer.in_boxes.resize(id + 1);
  if (!peer.in_boxes[id].empty()) {
    protocol_violation("link id defined twice", p, arrival_frame(kind, a));
  }
  auto payload =
      interner_.decode_section(peer.sections.data() + a.section, a.size);
  if (!payload.ok()) bad_frame(p, payload.error);
  peer.in_boxes[id] = std::move(*payload.value);
  ++counters_.link_definitions;
}

sim::Payload NodeDriver::payload_of(NodeId p, const Arrival& a,
                                    FrameKind kind) {
  Peer& peer = peers_[p];
  if (a.link == 0) {
    auto payload =
        interner_.decode_section(peer.sections.data() + a.section, a.size);
    if (!payload.ok()) bad_frame(p, payload.error);
    return std::move(*payload.value);
  }
  const std::uint32_t id = link_id(a.link);
  if (id >= peer.in_boxes.size() || peer.in_boxes[id].empty()) {
    protocol_violation("reference to an undefined link id", p,
                       arrival_frame(kind, a));
  }
  if ((a.link & kRef) != 0) ++counters_.link_references;
  return peer.in_boxes[id];
}

bool NodeDriver::marked(NodeId p, FrameKind kind) const {
  const Peer& m = peers_[p];
  if (kind == FrameKind::kRoundStatus) return m.status_round == round_;
  const Peer::Tally& t =
      kind == FrameKind::kActionsDone ? m.actions : m.replies;
  return t.announced != kNone && t.received >= t.announced;
}

void NodeDriver::sync(FrameKind kind, bool complete) {
  const NodeId self = options_.node_id;
  Frame mark{.kind = kind, .round = round_, .complete = complete};
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p == self) continue;
    mark.count = std::exchange(peers_[p].unmarked, 0);
    send_frame(p, mark);
  }

  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::milliseconds(
      options_.resend_interval_ms > 0 ? options_.resend_interval_ms : 150);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.sync_timeout_ms);
  // The first resend request waits one full interval: on reliable
  // transports every barrier clears well before that, so the recovery path
  // stays cold unless something was actually lost.
  auto next_resend = Clock::now() + interval;
  // Hand everything queued since the last sync point to the transport in
  // one go (a buffering client writes it as one write per peer), and take
  // in whatever already arrived.
  client_->poll(0);
  for (;;) {
    bool ready = true;
    bool resend_due = Clock::now() >= next_resend;
    for (NodeId p = 0; p < options_.num_nodes; ++p) {
      if (p == self || marked(p, kind)) continue;
      ready = false;
      // Fatal only while p's contribution is outstanding: a peer that
      // finished the run closes its connections, but everything it owed
      // this barrier was delivered before its EOF (ordered transport).
      if (peers_[p].down) {
        throw SyncPointError(
            "NodeDriver: peer " + std::to_string(p) +
            " disconnected while waiting for " + to_string(kind) +
            " (round " + std::to_string(round_) + ")");
      }
      if (resend_due) {
        // Bounded retransmission: ask p to replay this round's frames.  The
        // request itself may be lost too — it repeats every interval until
        // the barrier clears or the sync timeout trips.
        send_frame(p, {.kind = FrameKind::kResendRequest, .round = round_});
      }
    }
    if (ready) return;
    if (resend_due) next_resend = Clock::now() + interval;
    if (Clock::now() >= deadline) {
      throw SyncPointError("NodeDriver: timed out waiting for " +
                               std::string(to_string(kind)) + " (round " +
                               std::to_string(round_) + ")");
    }
    // Wait until the next resend request or the deadline, whichever comes
    // first; an arriving frame ends the wait sooner.
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        std::min(next_resend, deadline) - Clock::now());
    client_->poll(static_cast<int>(std::max<std::int64_t>(wait.count(), 0)));
  }
}

bool NodeDriver::exchange_status(bool local_complete) {
  sync(FrameKind::kRoundStatus, local_complete);
  bool complete = local_complete;
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p != options_.node_id) complete &= peers_[p].complete;
  }
  return complete;
}

void NodeDriver::execute_round() {
  const NodeId self = options_.node_id;
  exec_.open_round(core_);
  exec_.collect(core_, self,
                partial_async_ ? &partial_async_->draw_awake(workload_->n)
                               : nullptr);
  send_actions();
  sync(FrameKind::kActionsDone);
  // An ordered transport delivers each lane in sender order already; a
  // resent frame may arrive late.
  for_each_inbound_lane([](NodeId, Lane& lane) {
    std::sort(lane.pulls.begin(), lane.pulls.end(),
              [](const auto& a, const auto& b) {
                return a.requester < b.requester;
              });
  });
  exec_.serve_pulls(core_, self);
  send_replies();
  sync(FrameKind::kRepliesDone);
  // Nothing more arrives this round: file what phases C and D deliver.
  file_arrivals();
  exec_.deliver_replies(core_, self);
  exec_.deliver_pushes(core_, self);
  exec_.close_round(core_);
}

void NodeDriver::send_actions() {
  const NodeId self = options_.node_id;
  const std::vector<bool>& faulty = workload_->fault_plan;
  sim::Metrics& metrics = exec_.metrics(self);
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p == self) continue;
    for (std::uint32_t u = exec_.unit_begin(p); u < exec_.unit_begin(p + 1);
         ++u) {
      const Lane& lane = exec_.lane(self, u);
      for (const auto& pull : lane.pulls) {
        if (faulty[pull.server]) continue;
        send_frame(p, {.kind = FrameKind::kPullRequest, .round = round_,
                       .agent = pull.requester, .target = pull.server});
      }
      for (const auto& push : lane.pushes) {
        if (faulty[push.target]) {
          ++metrics.pushes;
          metrics.note_message(push.payload.bit_size());
          continue;
        }
        send_frame(p,
                   {.kind = FrameKind::kPush, .round = round_,
                    .agent = push.sender, .target = push.target},
                   push.payload);
      }
    }
  }
}

void NodeDriver::send_replies() {
  for_each_inbound_lane([&](NodeId p, Lane& lane) {
    for (const auto& pull : lane.pulls) {
      sim::Payload& reply = core_.pull_reply(pull.requester);
      send_frame(p,
                 {.kind = FrameKind::kPullReply, .round = round_,
                  .agent = pull.requester, .target = pull.server},
                 reply);
      reply = {};
    }
  });
}

void NodeDriver::file_arrivals() {
  const NodeId self = options_.node_id;
  const auto by_agent = [](const Arrival& a, const Arrival& b) {
    return a.agent < b.agent;
  };
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p == self) continue;
    Peer& peer = peers_[p];
    for (std::vector<Arrival>* list : {&peer.in_pushes, &peer.in_replies}) {
      if (!std::is_sorted(list->begin(), list->end(), by_agent)) {
        std::sort(list->begin(), list->end(), by_agent);
      }
    }
    for (const Arrival& a : peer.in_pushes) define(p, a, FrameKind::kPush);
    for (const Arrival& a : peer.in_replies) {
      define(p, a, FrameKind::kPullReply);
    }
  }
  file_replies();
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p == self) continue;
    for (const Arrival& a : peers_[p].in_pushes) {
      exec_.lane(p, exec_.unit_of(self, a.target))
          .pushes.push_back(
              {payload_of(p, a, FrameKind::kPush), a.agent, a.target});
    }
  }
}

void NodeDriver::file_replies() {
  // The pullers and each peer's replies are in requester order, so one
  // pass with a cursor per peer matches them.
  const NodeId self = options_.node_id;
  std::vector<std::size_t> next(options_.num_nodes, 0);
  for (const auto& pull : exec_.pullers(self)) {
    const NodeId p = block_of(pull.server);
    if (p == self || workload_->fault_plan[pull.server]) continue;
    const std::vector<Arrival>& replies = peers_[p].in_replies;
    if (next[p] < replies.size()) {
      const Arrival& a = replies[next[p]];
      if (a.agent == pull.requester && a.target == pull.server) {
        core_.pull_reply(pull.requester) =
            payload_of(p, a, FrameKind::kPullReply);
        ++next[p];
        continue;
      }
      if (a.agent <= pull.requester) {  // A reply no pull asked for.
        protocol_violation("unsolicited pull reply", p,
                           arrival_frame(FrameKind::kPullReply, a));
      }
    }
    throw std::runtime_error("NodeDriver: no reply reached agent " +
                             std::to_string(pull.requester) + " in round " +
                             std::to_string(round_));
  }
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p == self || next[p] == peers_[p].in_replies.size()) continue;
    protocol_violation("unsolicited pull reply", p,
                       arrival_frame(FrameKind::kPullReply,
                                     peers_[p].in_replies[next[p]]));
  }
}

NodeReport NodeDriver::run(const std::vector<PeerEndpoint>& peers) {
  if (peers.size() != options_.num_nodes) {
    throw std::invalid_argument("NodeDriver: peer table size mismatch");
  }
  client_->start(options_.node_id, peers, *this);

  bool global_complete = false;
  try {
    // Started before the executor binds, so the bind finds the RNG streams
    // seeded and starts no thread pool: the node runs its shard inline.
    core_.ensure_started();
    exec_.prepare(core_);
    // The engine's check-before-step loop: completion is evaluated (here:
    // agreed on, via the status barrier) before a round may execute, and
    // the round budget caps executed rounds.
    for (;; ++round_) {
      begin_round();
      global_complete = exchange_status(block_complete());
      if (global_complete) break;
      if (workload_->max_rounds != 0 && round_ >= workload_->max_rounds) {
        break;
      }
      execute_round();
    }
    // Lossy transports: the final status broadcast may have been dropped,
    // and once this node stops it can no longer answer the slower peers'
    // resend requests — so linger briefly, still polling (on_message keeps
    // replaying from the send buffer).
    if (options_.linger_ms > 0) {
      using Clock = std::chrono::steady_clock;
      const auto linger_deadline =
          Clock::now() + std::chrono::milliseconds(options_.linger_ms);
      while (Clock::now() < linger_deadline) client_->poll(20);
    }
  } catch (...) {
    client_->stop();
    throw;
  }
  client_->stop();

  NodeReport report;
  report.node_id = options_.node_id;
  report.first_label = block_.begin;
  report.end_label = block_.end;
  report.complete = global_complete;
  report.rounds = round_;
  report.metrics = core_.metrics();
  report.metrics.rounds = 0;
  report.state_digest = local_digest();
  report.transport = counters_;
  report.transport.payloads = interner_.counters();
  return report;
}

}  // namespace rfc::net
