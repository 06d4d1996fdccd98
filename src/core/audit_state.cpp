#include "core/audit_state.hpp"

#include <cassert>
#include <utility>

namespace rfc::core {

const VoteIntention& AuditState::intention() const noexcept {
  static const VoteIntention kNone;
  const VoteIntention* h = intention_in(intention_);
  return h != nullptr ? *h : kNone;
}

void AuditState::write_intention(const ProtocolParams& params,
                                 VoteIntention intention) {
  assert(intention_.empty());
  intention_ = make_intention_payload(std::move(intention), params);
}

Certificate AuditState::take_votes_into_certificate(
    const ProtocolParams& params, sim::AgentId owner, Color color) {
  votes_in_own_certificate_ = true;
  return make_certificate(params, owner, color, std::move(votes_));
}

void AuditState::seal_own_certificate(const ProtocolParams& params,
                                      Certificate certificate) {
  assert(own_cert_.empty());
  own_cert_ = make_certificate_payload(std::move(certificate), params);
  if (min_cert_.empty() || own_certificate().less_than(min_certificate())) {
    min_cert_ = own_cert_.pinned();
  }
}

void AuditState::adopt_certificate(const ProtocolParams& params,
                                   const Certificate& certificate,
                                   const sim::Payload* arriving) {
  // Only a heap box (or a pinned view of one) can be kept past this round,
  // and only one that holds exactly `certificate` at its honest wire size
  // can stand in for the payload make_certificate_payload would build.  A
  // view stays a view: its box is another agent's write-once CE_u.
  if (arriving != nullptr && !arriving->is_arena_boxed() &&
      certificate_in(*arriving) == &certificate &&
      arriving->bit_size() == certificate.bit_size(params)) {
    min_cert_ = *arriving;
  } else {
    min_cert_ = make_certificate_payload(certificate, params);
  }
}

bool AuditState::verify(const ProtocolParams& params) {
  failure_ = verify_certificate(params, min_certificate(), collected_).failure;
  return failure_ == VerificationFailure::kNone;
}

}  // namespace rfc::core
