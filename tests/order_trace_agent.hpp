// A test agent whose end state records the order in which it met every
// message, so two executions leave it in the same state only if they
// delivered the same messages to it in the same order.
#pragma once

#include <cstdint>
#include <initializer_list>

#include "sim/agent.hpp"

namespace rfc::testing {

/// Each round it pulls or pushes (its own stream decides) a random peer.  It
/// folds the (callback kind, peer, round) of every message it sees — the
/// requesters its serve_pull answers, the servers of its pull replies, the
/// senders of its pushes — and the message's word into a running FNV-1a
/// hash.  A reply carries how many pulls its server had answered before, and
/// a push its sender's hash, so an order slip at one agent spreads to its
/// peers too.  It is never done: runs end on a round budget.
class OrderTraceAgent final : public sim::Agent {
 public:
  static constexpr sim::PayloadTag kTag = 0xF3;

  sim::Action on_round(const sim::Context& ctx) override {
    const sim::AgentId peer = ctx.random_peer();
    if (ctx.rng->below(2) == 0) return sim::Action::pull(peer);
    return sim::Action::push(peer,
                             sim::Payload::inline_words(kTag, 64, hash_));
  }
  sim::Payload serve_pull(const sim::Context& ctx,
                          sim::AgentId requester) override {
    fold(kServe, requester, ctx.round, served_);
    return sim::Payload::inline_words(kTag, 64, served_++);
  }
  void on_pull_reply(const sim::Context& ctx, sim::AgentId server,
                     const sim::Payload& reply) override {
    fold(kReply, server, ctx.round, reply.word(0));
  }
  void on_push(const sim::Context& ctx, sim::AgentId sender,
               const sim::Payload& payload) override {
    fold(kPush, sender, ctx.round, payload.word(0));
  }
  bool done() const override { return false; }

  std::uint64_t hash() const noexcept { return hash_; }

 private:
  enum : std::uint64_t { kServe = 1, kReply = 2, kPush = 3 };

  void fold(std::uint64_t kind, sim::AgentId peer, std::uint64_t round,
            std::uint64_t word) noexcept {
    for (const std::uint64_t v : {kind, std::uint64_t{peer}, round, word}) {
      hash_ = (hash_ ^ v) * 0x100000001b3ull;
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  std::uint64_t served_ = 0;
};

}  // namespace rfc::testing
