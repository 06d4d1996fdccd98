#include "core/payloads.hpp"

#include <utility>

#include "core/verification.hpp"
#include "sim/network.hpp"

namespace rfc::core {
namespace {

// --- Network-adversary hooks (sim/network.hpp) ----------------------------
// Boxed payloads are opaque to the engine's generic bit-flip, so the core
// registers per-tag ops: `corrupt` flips one semantic bit (the tampering the
// verifier must catch), `clone` re-boxes a heap-shared copy so a delayed
// push survives the round-arena reset.

sim::Payload corrupt_certificate(const sim::Payload& p, std::uint64_t salt) {
  const Certificate* cert = certificate_in(p);
  if (cert == nullptr) return {};
  Certificate tampered = *cert;
  // Any flip in k breaks k == Σ votes mod m, so verification reports
  // kBadKeySum no matter which bit the salt picks.
  tampered.k ^= std::uint64_t{1} << (salt % 64u);
  return sim::Payload::make_boxed<Certificate>(kCertificatePayloadTag,
                                               p.bit_size(),
                                               std::move(tampered));
}

sim::Payload clone_certificate(const sim::Payload& p) {
  const Certificate* cert = certificate_in(p);
  if (cert == nullptr) return {};
  return sim::Payload::make_boxed<Certificate>(kCertificatePayloadTag,
                                               p.bit_size(),
                                               Certificate{*cert});
}

/// The parameters an intention box's verdict was stamped for.
ProtocolParams stamp_params(const IntentionBox& box) noexcept {
  ProtocolParams params;
  params.n = box.n;
  params.q = box.q;
  params.m = box.m;
  return params;
}

sim::Payload corrupt_intention(const sim::Payload& p, std::uint64_t salt) {
  const IntentionBox* box = intention_box_in(p);
  if (box == nullptr || box->intention.empty()) return {};
  VoteIntention tampered = box->intention;
  // Flip one bit of one vote value: the commitment H no longer matches the
  // votes actually pushed, which is exactly Verification's check (iii).
  // The flip may push the value out of [m], so the verdict is recomputed.
  tampered[(salt >> 6u) % tampered.size()].value ^=
      std::uint64_t{1} << (salt % 64u);
  return sim::Payload::make_boxed<IntentionBox>(
      kIntentionPayloadTag, p.bit_size(),
      make_intention_box(std::move(tampered), stamp_params(*box)));
}

sim::Payload clone_intention(const sim::Payload& p) {
  const IntentionBox* box = intention_box_in(p);
  if (box == nullptr) return {};
  return sim::Payload::make_boxed<IntentionBox>(kIntentionPayloadTag,
                                                p.bit_size(), *box);
}

[[maybe_unused]] const bool kOpsRegistered = [] {
  sim::register_payload_ops(kCertificatePayloadTag,
                            {&corrupt_certificate, &clone_certificate});
  sim::register_payload_ops(kIntentionPayloadTag,
                            {&corrupt_intention, &clone_intention});
  return true;
}();

}  // namespace

IntentionBox make_intention_box(VoteIntention intention,
                                const ProtocolParams& params) {
  const bool well_formed = well_formed_intention(params, intention);
  const std::uint64_t targets = target_summary(intention);
  return {std::move(intention), targets, params.m, params.n, params.q,
          well_formed};
}

sim::Payload make_intention_payload(VoteIntention intention,
                                    const ProtocolParams& params) {
  const std::uint64_t bits =
      intention.size() * (static_cast<std::uint64_t>(params.value_bits()) +
                          params.label_bits());
  return sim::Payload::make_boxed<IntentionBox>(
      kIntentionPayloadTag, bits,
      make_intention_box(std::move(intention), params));
}

sim::Payload make_intention_payload_in(rfc::support::Arena* arena,
                                       VoteIntention intention,
                                       const ProtocolParams& params) {
  const std::uint64_t bits =
      intention.size() * (static_cast<std::uint64_t>(params.value_bits()) +
                          params.label_bits());
  return sim::Payload::make_boxed_in<IntentionBox>(
      arena, kIntentionPayloadTag, bits,
      make_intention_box(std::move(intention), params));
}

sim::Payload make_vote_payload(std::uint64_t value,
                               const ProtocolParams& params) {
  return sim::Payload::inline_words(kVotePayloadTag, params.value_bits(),
                                    value);
}

sim::Payload make_certificate_payload(Certificate certificate,
                                      const ProtocolParams& params) {
  const std::uint64_t bits = certificate.bit_size(params);
  return sim::Payload::make_boxed<Certificate>(kCertificatePayloadTag, bits,
                                               std::move(certificate));
}

sim::Payload make_certificate_payload_in(rfc::support::Arena* arena,
                                         Certificate certificate,
                                         const ProtocolParams& params) {
  const std::uint64_t bits = certificate.bit_size(params);
  return sim::Payload::make_boxed_in<Certificate>(
      arena, kCertificatePayloadTag, bits, std::move(certificate));
}

sim::Payload make_digest_payload(std::uint64_t digest) noexcept {
  return sim::Payload::inline_words(kDigestPayloadTag, 64, digest);
}

}  // namespace rfc::core
