#include "core/protocol_agent.hpp"

#include "core/payloads.hpp"

namespace rfc::core {
namespace {

sim::AgentPhase to_agent_phase(Phase p) noexcept {
  switch (p) {
    case Phase::kCommitment: return sim::AgentPhase::kCommit;
    case Phase::kVoting: return sim::AgentPhase::kVote;
    case Phase::kFindMin: return sim::AgentPhase::kSpread;
    case Phase::kCoherence: return sim::AgentPhase::kConfirm;
    case Phase::kFinished: return sim::AgentPhase::kDone;
  }
  return sim::AgentPhase::kUnknown;
}

}  // namespace

ProtocolAgent::ProtocolAgent(const ProtocolParams& params, Color color)
    : params_(params), color_(color) {}

void ProtocolAgent::on_start(const sim::Context& ctx) {
  audit_.write_intention(params_, choose_intention(ctx));
}

VoteIntention ProtocolAgent::choose_intention(const sim::Context& ctx) {
  VoteIntention h(params_.q);
  for (VoteEntry& e : h) {
    e.value = ctx.rng->below(params_.m);
    // On the complete graph this is a label u.a.r. in [n], per Algorithm 1;
    // on other topologies a vote can only be pushed to a neighbor.
    e.target = ctx.random_peer();
  }
  return h;
}

sim::Action ProtocolAgent::commitment_action(const sim::Context& ctx) {
  return sim::Action::pull(ctx.random_peer());
}

sim::Payload ProtocolAgent::commitment_reply(const sim::Context&,
                                             sim::AgentId) {
  return audit_.intention_payload().pinned();
}

VoteEntry ProtocolAgent::vote_for_round(const sim::Context&,
                                        std::uint32_t i) {
  return audit_.intention().at(i);
}

Certificate ProtocolAgent::build_own_certificate(const sim::Context& ctx) {
  return audit_.take_votes_into_certificate(params_, ctx.self, color_);
}

void ProtocolAgent::consider_certificate(const Certificate& certificate) {
  audit_.consider_certificate(params_, certificate, arriving_cert_);
}

sim::Action ProtocolAgent::coherence_action(const sim::Context& ctx) {
  if (params_.coherence_digest) {
    return sim::Action::push(ctx.random_peer(),
                             make_digest_payload(min_certificate().digest()));
  }
  return sim::Action::push(ctx.random_peer(), min_cert_payload());
}

sim::Payload ProtocolAgent::find_min_reply(const sim::Context&,
                                           sim::AgentId) {
  return min_cert_payload();
}

void ProtocolAgent::on_coherence_certificate(const Certificate& certificate) {
  if (!audit_.coherent_with(certificate)) fail_protocol();
}

void ProtocolAgent::on_coherence_digest(std::uint64_t digest) {
  if (digest != min_certificate().digest()) fail_protocol();
}

void ProtocolAgent::finalize(const sim::Context&) {
  if (audit_.verify(params_)) {
    decide(min_certificate().color);
  } else {
    fail_protocol();
  }
}

std::uint64_t ProtocolAgent::local_memory_bits() const noexcept {
  const std::uint64_t entry_bits = params_.value_bits() + params_.label_bits();
  std::uint64_t bits = audit_.intention().size() * entry_bits;  // H_u.
  // L_u: a peer label and a faulty flag per record, plus the intention of
  // each unmarked one, which is well-formed and so has exactly q entries.
  const CollectedIntentions& collected = audit_.collected_intentions();
  bits += collected.size() * (params_.label_bits() + 1);
  for (const auto& [peer, record] : collected) {
    if (!record.marked_faulty()) bits += params_.q * entry_bits;
  }
  const std::uint64_t vote_bits =
      params_.label_bits() + params_.round_bits() + params_.value_bits();
  bits += audit_.received_votes().size() * vote_bits;  // W_u.
  if (has_own_certificate()) bits += own_certificate().bit_size(params_);
  if (has_min_certificate()) bits += min_certificate().bit_size(params_);
  return bits;
}

double ProtocolAgent::progress() const noexcept {
  if (done()) return 4.0;
  // The schedule is 4 communication phases of q rounds each, so the round
  // of the last activation over q is exactly stages-completed + fraction.
  const std::uint64_t cap = params_.communication_rounds();
  const std::uint64_t r = observed_round_ < cap ? observed_round_ : cap;
  return static_cast<double>(r) / static_cast<double>(params_.q);
}

sim::Action ProtocolAgent::on_round(const sim::Context& ctx) {
  if (done()) return sim::Action::idle();
  observed_round_ = ctx.round;
  const Phase phase = params_.phase_of_round(ctx.round);
  observed_phase_ = to_agent_phase(phase);
  switch (phase) {
    case Phase::kCommitment:
      return commitment_action(ctx);
    case Phase::kVoting: {
      const std::uint32_t i = params_.round_in_phase(ctx.round);
      const VoteEntry vote = vote_for_round(ctx, i);
      return sim::Action::push(
          vote.target, make_vote_payload(vote.value % params_.m, params_));
    }
    case Phase::kFindMin:
      if (ctx.round == params_.find_min_begin()) {
        audit_.seal_own_certificate(params_, build_own_certificate(ctx));
      }
      return sim::Action::pull(ctx.random_peer());
    case Phase::kCoherence:
      return coherence_action(ctx);
    case Phase::kFinished:
      finalize(ctx);
      return sim::Action::idle();
  }
  return sim::Action::idle();
}

sim::Payload ProtocolAgent::serve_pull(const sim::Context& ctx,
                                       sim::AgentId requester) {
  if (done()) return {};  // Failed/terminated agents are quiescent.
  switch (params_.phase_of_round(ctx.round)) {
    case Phase::kCommitment:
      // ~Poisson(q) pullers: one reservation instead of doubling to 2q.
      if (commitment_pullers_.empty()) commitment_pullers_.reserve(params_.q);
      commitment_pullers_.push_back(requester);
      return commitment_reply(ctx, requester);
    case Phase::kFindMin:
      return find_min_reply(ctx, requester);
    default:
      // The protocol defines no pulls in other phases; an honest agent
      // answers unexpected (necessarily deviant) requests with silence.
      return {};
  }
}

void ProtocolAgent::on_pull_reply(const sim::Context& ctx, sim::AgentId target,
                                  const sim::Payload& reply) {
  if (done()) return;
  switch (params_.phase_of_round(ctx.round)) {
    case Phase::kCommitment:
      audit_.file_commitment_reply(params_, target, reply);
      break;
    case Phase::kFindMin:
      if (const Certificate* cert = certificate_in(reply)) {
        arriving_cert_ = &reply;
        consider_certificate(*cert);
        arriving_cert_ = nullptr;
      }
      break;
    default:
      break;
  }
}

void ProtocolAgent::on_push(const sim::Context& ctx, sim::AgentId sender,
                            const sim::Payload& payload) {
  if (done() || payload.empty()) return;
  switch (params_.phase_of_round(ctx.round)) {
    case Phase::kVoting:
      if (is_vote(payload)) {
        audit_.record_vote(params_, {sender, params_.round_in_phase(ctx.round),
                                     vote_value_in(payload)});
      }
      break;
    case Phase::kCoherence:
      if (const Certificate* cert = certificate_in(payload)) {
        on_coherence_certificate(*cert);
      } else if (is_digest(payload)) {
        on_coherence_digest(digest_in(payload));
      }
      break;
    default:
      // Pushes outside Voting/Coherence are not part of the protocol;
      // honest agents ignore them.
      break;
  }
}

}  // namespace rfc::core
