#include "core/protocol_agent.hpp"

#include <cassert>
#include <memory>
#include <utility>

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
  // Written once: the replies served from this box are pinned views of it.
  assert(intention_payload_.empty());
  intention_payload_ = make_intention_payload(choose_intention(ctx), params_);
}

const VoteIntention& ProtocolAgent::intention() const noexcept {
  static const VoteIntention kNone;
  const VoteIntention* h = intention_in(intention_payload_);
  return h != nullptr ? *h : kNone;
}

const Certificate& ProtocolAgent::certificate_or_default(
    const sim::Payload& payload) noexcept {
  static const Certificate kNone;
  const Certificate* certificate = certificate_in(payload);
  return certificate != nullptr ? *certificate : kNone;
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
  return intention_payload_.pinned();
}

VoteEntry ProtocolAgent::vote_for_round(const sim::Context&,
                                        std::uint32_t i) {
  return intention().at(i);
}

Certificate ProtocolAgent::build_own_certificate(const sim::Context& ctx) {
  votes_in_own_certificate_ = true;
  return make_certificate(params_, ctx.self, color_,
                          std::move(received_votes_));
}

void ProtocolAgent::consider_certificate(const Certificate& certificate) {
  if (certificate.less_than(min_certificate())) {
    min_cert_payload_ = arriving_box_of(certificate);
    if (min_cert_payload_.empty()) {
      min_cert_payload_ = make_certificate_payload(certificate, params_);
    }
  }
}

sim::Payload ProtocolAgent::arriving_box_of(
    const Certificate& certificate) const {
  // Only a heap box (or a pinned view of one) can be kept past this round,
  // and only one that holds exactly `certificate` at its honest wire size
  // can stand in for the payload make_certificate_payload would build.  A
  // view stays a view: its box is another agent's write-once CE_u.
  if (arriving_cert_ == nullptr || arriving_cert_->is_arena_boxed() ||
      certificate_in(*arriving_cert_) != &certificate ||
      arriving_cert_->bit_size() != certificate.bit_size(params_)) {
    return {};
  }
  return *arriving_cert_;
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
  // After Find-Min converges every honest agent holds the winner's box, and
  // one immutable object is equal to itself; other boxes get the deep check.
  const Certificate& min = min_certificate();
  if (&certificate == &min) return;
  if (!(certificate == min)) fail_protocol();
}

void ProtocolAgent::on_coherence_digest(std::uint64_t digest) {
  if (digest != min_certificate().digest()) fail_protocol();
}

void ProtocolAgent::finalize(const sim::Context&) {
  const Certificate& min = min_certificate();
  const VerificationResult result =
      verify_certificate(params_, min, collected_);
  verification_failure_ = result.failure;
  if (result.accepted()) {
    decide(min.color);
  } else {
    fail_protocol();
  }
}

std::uint64_t ProtocolAgent::local_memory_bits() const noexcept {
  const std::uint64_t entry_bits =
      params_.value_bits() + params_.label_bits();
  std::uint64_t bits =
      intention().size() * entry_bits;  // H_u.
  // L_u: a peer label and a faulty flag per record, plus the intention of
  // each unmarked one, which is well-formed and so has exactly q entries.
  bits += collected_.size() * (params_.label_bits() + 1);
  for (const auto& [peer, record] : collected_) {
    if (!record.marked_faulty()) bits += params_.q * entry_bits;
  }
  const std::uint64_t vote_bits =
      params_.label_bits() + params_.round_bits() + params_.value_bits();
  bits += received_votes().size() * vote_bits;  // W_u.
  if (has_own_certificate()) bits += own_certificate().bit_size(params_);
  if (has_min_certificate_) bits += min_certificate().bit_size(params_);
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
        // Written once: CE_min starts as a pinned view of this box, and
        // other agents adopt and serve that view.
        assert(own_cert_payload_.empty());
        own_cert_payload_ =
            make_certificate_payload(build_own_certificate(ctx), params_);
        min_cert_payload_ = own_cert_payload_.pinned();
        has_min_certificate_ = true;
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

void ProtocolAgent::record_commitment_reply(sim::AgentId target,
                                            const sim::Payload& reply) {
  // First declaration wins: if we already hold a record for `target`
  // (pulled it twice), the original stands.
  if (collected_.contains(target)) return;
  // L_u holds at most q records under the synchronous schedule.
  if (collected_.empty()) collected_.reserve(params_.q);
  // "Replies in an unexpected way" (footnote 4): no intention, wrong length
  // or out-of-domain entries leave the peer marked faulty.  The box's
  // stamped verdict stands in for the scan when it was computed for our
  // parameters.
  const IntentionBox* box = intention_box_in(reply);
  const bool well_formed =
      box != nullptr && (box->stamped_for(params_)
                             ? box->well_formed
                             : well_formed_intention(params_, box->intention));
  if (!well_formed) {
    collected_.append(target, nullptr);
  } else if (reply.is_pinned()) {
    // An honest peer's write-once H_u, which lives as long as the engine
    // that holds both of us: view it, as the reply did.
    collected_.append(target, box);
  } else if (reply.is_arena_boxed()) {
    // Dies at the round barrier: copy it once, verdict and summary too.
    collected_.append_kept(target, std::make_shared<const IntentionBox>(*box));
  } else {
    collected_.append_kept(
        target, reply.shared_as<IntentionBox>(kIntentionPayloadTag));
  }
}

void ProtocolAgent::on_pull_reply(const sim::Context& ctx, sim::AgentId target,
                                  const sim::Payload& reply) {
  if (done()) return;
  switch (params_.phase_of_round(ctx.round)) {
    case Phase::kCommitment:
      record_commitment_reply(target, reply);
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
        // ~Poisson(q) votes: one reservation instead of doubling to 2q.
        if (received_votes_.empty()) received_votes_.reserve(params_.q);
        received_votes_.push_back(ReceivedVote{
            sender, params_.round_in_phase(ctx.round),
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
