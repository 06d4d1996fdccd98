#include "net/node_driver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/scheduler.hpp"
#include "sim/sharding.hpp"
#include "support/math_util.hpp"

namespace rfc::net {

namespace {

FrameCodec codec_for(const Workload& workload) {
  if (workload.n == 0) {
    throw std::invalid_argument("NodeDriver: workload has n == 0");
  }
  return FrameCodec{workload.n,
                    workload.has_params ? &workload.params : nullptr};
}

[[noreturn]] void bad_frame(NodeId from, core::WireError error) {
  throw std::runtime_error(std::string("NodeDriver: bad frame from peer ") +
                           std::to_string(from) + ": " +
                           core::to_string(error));
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
      interner_(codec_for(workload)) {
  const std::uint32_t n = workload_->n;
  if (options_.num_nodes == 0 || options_.node_id >= options_.num_nodes) {
    throw std::invalid_argument("NodeDriver: node_id/num_nodes out of range");
  }
  if (options_.num_nodes > n) {
    throw std::invalid_argument("NodeDriver: more nodes than agents");
  }
  if (workload_->fault_plan.size() != n) {
    throw std::invalid_argument("NodeDriver: fault plan size mismatch");
  }
  if (!workload_->make_agent || !workload_->agent_complete ||
      !workload_->digest_agent) {
    throw std::invalid_argument("NodeDriver: workload hooks not set");
  }

  first_ = sim::contiguous_block_begin(n, options_.num_nodes,
                                       options_.node_id);
  end_ = sim::contiguous_block_begin(n, options_.num_nodes,
                                     options_.node_id + 1);
  owner_.resize(n);
  for (std::uint32_t b = 0; b < options_.num_nodes; ++b) {
    const std::uint32_t lo = sim::contiguous_block_begin(n, options_.num_nodes,
                                                         b);
    const std::uint32_t hi = sim::contiguous_block_begin(n, options_.num_nodes,
                                                         b + 1);
    for (std::uint32_t l = lo; l < hi; ++l) owner_[l] = b;
  }

  // Faulty labels get an agent too: they take no callbacks, but their
  // (initial) state is part of the block digest, as in the engine.
  agents_.reserve(end_ - first_);
  rngs_.reserve(end_ - first_);
  for (std::uint32_t l = first_; l < end_; ++l) {
    agents_.push_back(workload_->make_agent(l));
    if (agents_.back() == nullptr) {
      throw std::invalid_argument("NodeDriver: make_agent returned null");
    }
    rngs_.emplace_back(rfc::support::derive_seed(workload_->seed, l));
  }

  const std::string& policy = workload_->scheduler.policy();
  if (policy == "partial-async") {
    partial_async_ = true;
    awake_p_ = workload_->scheduler.param_double("p", 0.5);
    if (!(awake_p_ >= 0.0 && awake_p_ <= 1.0)) {
      throw std::invalid_argument(
          "NodeDriver: wake probability must be in [0, 1]");
    }
    mask_rng_.seed(rfc::support::derive_seed(
        workload_->seed, sim::PartialAsyncScheduler::kStream));
    mask_.assign(n, true);
  } else if (policy != "synchronous") {
    throw std::invalid_argument("NodeDriver: scheduler '" + policy +
                                "' is not round-based");
  }

  actions_.resize(end_ - first_);
  reply_for_.resize(end_ - first_);
  reply_ready_.assign(end_ - first_, false);
  peer_down_.assign(options_.num_nodes, false);
  marks_.resize(options_.num_nodes);
  unmarked_.assign(options_.num_nodes, 0);
  for (SentSlot& slot : sent_) slot.to.resize(options_.num_nodes);
  stamp_.assign(n, kNone);
}

sim::Context NodeDriver::make_context(sim::AgentId label) noexcept {
  sim::Context ctx;
  ctx.self = label;
  ctx.n = workload_->n;
  ctx.round = round_;
  ctx.rng = &rngs_[label - first_];
  ctx.topology = nullptr;  // Workload factories reject topologies.
  return ctx;
}

bool NodeDriver::block_complete() const {
  for (std::uint32_t l = first_; l < end_; ++l) {
    if (!workload_->fault_plan[l] &&
        !workload_->agent_complete(*agents_[l - first_])) {
      return false;
    }
  }
  return true;
}

std::uint64_t NodeDriver::local_digest() const {
  Fnv1a fnv;
  for (std::uint32_t l = first_; l < end_; ++l) {
    workload_->digest_agent(fnv, *agents_[l - first_], l,
                            workload_->fault_plan[l]);
  }
  return fnv.value();
}

void NodeDriver::begin_round() {
  for (PeerMarks& m : marks_) m.actions = m.replies = PeerMarks::Tally{};
  pull_requests_.clear();
  pull_replies_.clear();
  pushes_.clear();
  sections_.clear();
  SentSlot& slot = sent_[round_ & 1];
  slot.round = round_;
  for (auto& frames : slot.to) frames.clear();
}

void NodeDriver::send_frame(NodeId to, const Frame& frame) {
  std::vector<std::uint8_t> bytes = interner_.encode(frame);
  client_->send(to, bytes.data(), bytes.size());
  ++counters_.frames_sent;
  if (frame.kind == FrameKind::kResendRequest) {
    ++counters_.resend_requests_sent;
    return;  // Not kept: a lost request is simply repeated.
  }
  if (frame.kind == FrameKind::kPullRequest || carries_payload(frame.kind)) {
    ++unmarked_[to];  // A data frame, counted by the next mark.
  }
  sent_[frame.round & 1].to[to].push_back(std::move(bytes));
}

void NodeDriver::answer_resend(NodeId to, std::uint64_t round) {
  ++counters_.resend_requests_answered;
  const SentSlot& slot = sent_[round & 1];
  if (slot.round != round) return;
  for (const std::vector<std::uint8_t>& bytes : slot.to[to]) {
    client_->send(to, bytes.data(), bytes.size());
    ++counters_.frames_sent;
  }
}

void NodeDriver::on_peer_state(NodeId peer, bool connected) {
  if (peer < peer_down_.size() && !connected) peer_down_[peer] = true;
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
  Frame& frame = *header.value;
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

  PeerMarks& marks = marks_[from];
  switch (frame.kind) {
    case FrameKind::kRoundStatus:
      marks.status_round = frame.round;
      marks.complete = frame.complete;
      return;
    case FrameKind::kActionsDone:
      marks.actions.announced = frame.count;
      return;
    case FrameKind::kRepliesDone:
      marks.replies.announced = frame.count;
      return;
    default:
      break;  // A data frame.
  }
  // `agent` pulled or pushed, and `target` is the pullee or the push's
  // destination; a reply travels back from the pullee's owner.
  const bool reply = frame.kind == FrameKind::kPullReply;
  const NodeId self = options_.node_id;
  if (owner_[frame.agent] != (reply ? self : from) ||
      owner_[frame.target] != (reply ? from : self) ||
      (!reply && workload_->fault_plan[frame.target])) {
    protocol_violation("misrouted frame", from, frame);
  }
  if (std::exchange(stamp_[frame.agent], round_) == round_) return;  // Dup.
  ++(reply ? marks.replies : marks.actions).received;
  if (frame.kind == FrameKind::kPullRequest) {
    pull_requests_.push_back(std::move(frame));
    return;
  }
  (reply ? pull_replies_ : pushes_)
      .push_back({from, std::move(frame), sections_.size(),
                  size - FrameCodec::kHeaderBytes});
  sections_.insert(sections_.end(), data + FrameCodec::kHeaderBytes,
                   data + size);
}

void NodeDriver::decode_filed(std::vector<Filed>& filed) {
  std::sort(filed.begin(), filed.end(), by_agent);
  for (Filed& f : filed) {
    auto payload = interner_.decode_section(sections_.data() + f.section,
                                            f.size);
    if (!payload.ok()) bad_frame(f.from, payload.error);
    f.frame.payload = std::move(*payload.value);
  }
}

bool NodeDriver::marked(NodeId p, FrameKind kind) const {
  const PeerMarks& m = marks_[p];
  if (kind == FrameKind::kRoundStatus) return m.status_round == round_;
  const PeerMarks::Tally& t =
      kind == FrameKind::kActionsDone ? m.actions : m.replies;
  return t.announced != kNone && t.received >= t.announced;
}

void NodeDriver::sync(FrameKind kind, bool complete) {
  const NodeId self = options_.node_id;
  Frame mark{.kind = kind, .round = round_, .complete = complete};
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p == self) continue;
    mark.count = std::exchange(unmarked_[p], 0);
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
      if (peer_down_[p]) {
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
    client_->poll(50);
  }
}

bool NodeDriver::exchange_status(bool local_complete) {
  sync(FrameKind::kRoundStatus, local_complete);
  bool complete = local_complete;
  for (NodeId p = 0; p < options_.num_nodes; ++p) {
    if (p != options_.node_id) complete &= marks_[p].complete;
  }
  return complete;
}

void NodeDriver::execute_round() {
  const std::uint32_t n = workload_->n;
  const std::vector<bool>& faulty = workload_->fault_plan;
  const NodeId self = options_.node_id;

  // The awake mask is drawn for *all* n labels on every node, so the shared
  // Bernoulli stream stays aligned with PartialAsyncScheduler::step.
  if (partial_async_) {
    for (std::uint32_t i = 0; i < n; ++i) {
      mask_[i] = mask_rng_.bernoulli(awake_p_);
    }
  }

  // Phase A: collect each local awake agent's single active operation, in
  // label order; charge the requester/sender side and ship cross-block
  // requests and pushes.
  for (std::uint32_t l = first_; l < end_; ++l) {
    const std::uint32_t idx = l - first_;
    sim::Action& action = actions_[idx];
    if (faulty[l] || agents_[idx]->done() || (partial_async_ && !mask_[l])) {
      action = sim::Action::idle();
      continue;
    }
    action = agents_[idx]->on_round(make_context(l));
    if (action.kind == sim::ActionKind::kIdle) continue;
    if (action.target >= n) {
      throw std::runtime_error("NodeDriver: agent " + std::to_string(l) +
                               " targeted label out of range");
    }
    ++metrics_.active_links;
    if (action.kind == sim::ActionKind::kPull) {
      ++metrics_.pull_requests;
      metrics_.note_message(rfc::support::bit_width_for_domain(n));
      if (faulty[action.target]) {
        // Pulling a faulty node observes silence; like the engine, the
        // requester side synthesizes the empty reply without any traffic.
        reply_for_[idx] = sim::Payload{};
        reply_ready_[idx] = true;
      } else if (owner_[action.target] != self) {
        send_frame(owner_[action.target],
                   {.kind = FrameKind::kPullRequest, .round = round_,
                    .agent = l, .target = action.target});
      }
      // A local non-faulty pullee is served from actions_ in phase B.
    } else {
      ++metrics_.pushes;
      metrics_.note_message(action.payload.bit_size());
      // Pushes to faulty targets are charged but never travel (the engine
      // drops them at delivery); local targets are delivered in phase D.
      if (!faulty[action.target] && owner_[action.target] != self) {
        send_frame(owner_[action.target],
                   {.kind = FrameKind::kPush, .round = round_, .agent = l,
                    .target = action.target, .payload = action.payload});
      }
    }
  }

  sync(FrameKind::kActionsDone);

  // Phase B: serve every pull on a local pullee from round-start state, in
  // global requester-label order (the engine's order restricted to this
  // block's pullees).  The pullee side charges replies; empty replies still
  // travel so the requester can always deliver phase C.
  for (std::uint32_t l = first_; l < end_; ++l) {
    const sim::Action& a = actions_[l - first_];
    if (a.kind == sim::ActionKind::kPull && !faulty[a.target] &&
        owner_[a.target] == self) {
      pull_requests_.push_back({.kind = FrameKind::kPullRequest,
                                .agent = l, .target = a.target});
    }
  }
  std::sort(pull_requests_.begin(), pull_requests_.end(),
            [](const Frame& a, const Frame& b) { return a.agent < b.agent; });
  for (const Frame& pull : pull_requests_) {
    sim::Payload reply = local_agent(pull.target)
                             .serve_pull(make_context(pull.target), pull.agent);
    if (!reply.empty()) {
      ++metrics_.pull_replies;
      metrics_.note_message(reply.bit_size());
    }
    if (owner_[pull.agent] == self) {
      reply_for_[pull.agent - first_] = std::move(reply);
      reply_ready_[pull.agent - first_] = true;
    } else {
      send_frame(owner_[pull.agent],
                 {.kind = FrameKind::kPullReply, .round = round_,
                  .agent = pull.agent, .target = pull.target,
                  .payload = std::move(reply)});
    }
  }

  sync(FrameKind::kRepliesDone);
  // Nothing more arrives this round: decode the payloads phases C and D
  // deliver.
  decode_filed(pull_replies_);
  decode_filed(pushes_);

  // Phase C: deliver pull replies to local requesters in label order.
  for (Filed& filed : pull_replies_) {
    Frame& f = filed.frame;
    const std::uint32_t idx = f.agent - first_;
    if (actions_[idx].kind != sim::ActionKind::kPull ||
        actions_[idx].target != f.target || reply_ready_[idx]) {
      protocol_violation("unsolicited pull reply", owner_[f.target], f);
    }
    reply_for_[idx] = std::move(f.payload);
    reply_ready_[idx] = true;
  }
  for (std::uint32_t l = first_; l < end_; ++l) {
    const std::uint32_t idx = l - first_;
    if (actions_[idx].kind != sim::ActionKind::kPull) continue;
    if (!reply_ready_[idx]) {
      throw std::runtime_error("NodeDriver: no reply reached agent " +
                               std::to_string(l) + " in round " +
                               std::to_string(round_));
    }
    local_agent(l).on_pull_reply(make_context(l), actions_[idx].target,
                                 reply_for_[idx]);
    reply_for_[idx] = sim::Payload{};
    reply_ready_[idx] = false;
  }

  // Phase D: deliver pushes in sender-label order, the local ones merged
  // into the remote ones.
  const std::size_t remote = pushes_.size();
  for (std::uint32_t l = first_; l < end_; ++l) {
    const sim::Action& a = actions_[l - first_];
    if (a.kind == sim::ActionKind::kPush && !faulty[a.target] &&
        owner_[a.target] == self) {
      pushes_.push_back({self, {.kind = FrameKind::kPush, .agent = l,
                                .target = a.target, .payload = a.payload}});
    }
  }
  std::inplace_merge(pushes_.begin(), pushes_.begin() + remote, pushes_.end(),
                     by_agent);
  for (const Filed& f : pushes_) {
    local_agent(f.frame.target)
        .on_push(make_context(f.frame.target), f.frame.agent, f.frame.payload);
  }
}

NodeReport NodeDriver::run(const std::vector<PeerEndpoint>& peers) {
  if (peers.size() != options_.num_nodes) {
    throw std::invalid_argument("NodeDriver: peer table size mismatch");
  }
  client_->start(options_.node_id, peers, *this);

  bool global_complete = false;
  try {
    for (std::uint32_t l = first_; l < end_; ++l) {
      if (!workload_->fault_plan[l]) {
        local_agent(l).on_start(make_context(l));
      }
    }
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
  report.first_label = first_;
  report.end_label = end_;
  report.complete = global_complete;
  report.rounds = round_;
  report.metrics = metrics_;
  report.state_digest = local_digest();
  report.transport = counters_;
  report.transport.payloads = interner_.counters();
  return report;
}

}  // namespace rfc::net
