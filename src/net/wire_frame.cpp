#include "net/wire_frame.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/payloads.hpp"

namespace rfc::net {

namespace {

constexpr std::uint64_t kFrameMagic = 0xC5;

bool known_kind(std::uint64_t raw) noexcept {
  return raw >= static_cast<std::uint64_t>(FrameKind::kRoundStatus) &&
         raw <= static_cast<std::uint64_t>(FrameKind::kResendRequest);
}

bool carries_payload(FrameKind kind) noexcept {
  return kind == FrameKind::kPullReply || kind == FrameKind::kPush;
}

bool carries_labels(FrameKind kind) noexcept {
  return kind == FrameKind::kPullRequest || carries_payload(kind);
}

}  // namespace

const char* to_string(FrameKind kind) noexcept {
  switch (kind) {
    case FrameKind::kRoundStatus: return "round-status";
    case FrameKind::kActionsDone: return "actions-done";
    case FrameKind::kRepliesDone: return "replies-done";
    case FrameKind::kPullRequest: return "pull-request";
    case FrameKind::kPullReply: return "pull-reply";
    case FrameKind::kPush: return "push";
    case FrameKind::kResendRequest: return "resend-request";
  }
  return "unknown";
}

void encode_payload(core::BitWriter& w, const sim::Payload& payload,
                    const core::ProtocolParams* params) {
  const sim::PayloadTag tag = payload.tag();
  w.write(tag, 16);
  if (payload.empty()) return;

  if (tag == core::kIntentionPayloadTag || tag == core::kCertificatePayloadTag) {
    if (params == nullptr) {
      throw std::invalid_argument(
          "encode_payload: protocol payloads need ProtocolParams");
    }
    if (tag == core::kIntentionPayloadTag) {
      const core::VoteIntention* intention = core::intention_in(payload);
      if (intention == nullptr) {
        throw std::invalid_argument("encode_payload: intention tag without "
                                    "a boxed VoteIntention");
      }
      core::encode_intention(w, *params, *intention);
    } else {
      const core::Certificate* certificate = core::certificate_in(payload);
      if (certificate == nullptr) {
        throw std::invalid_argument("encode_payload: certificate tag without "
                                    "a boxed Certificate");
      }
      core::encode_certificate(w, *params, *certificate);
    }
    return;
  }

  // Any other boxed payload (e.g. the sequential model's AsyncReply, 0x29)
  // has no registered wire form.
  if (payload.boxed_as<void>(tag) != nullptr) {
    throw std::invalid_argument("encode_payload: boxed payload tag has no "
                                "wire encoding");
  }

  // Generic inline payload: declared bit size plus the three words.
  if (payload.bit_size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("encode_payload: inline bit size overflows");
  }
  w.write(payload.bit_size(), 32);
  for (std::size_t i = 0; i < sim::Payload::kInlineWords; ++i) {
    w.write(payload.word(i), 64);
  }
}

core::WireResult<sim::Payload> decode_payload(
    core::BitReader& r, const core::ProtocolParams* params) {
  using R = core::WireResult<sim::Payload>;
  const auto tag = r.read(16);
  if (!tag) return R::failure(core::WireError::kTruncated);
  if (*tag == sim::kUntaggedPayload) return R::success(sim::Payload{});

  if (*tag == core::kIntentionPayloadTag) {
    if (params == nullptr) {
      return R::failure(core::WireError::kUnsupportedTag);
    }
    auto intention = core::decode_intention_checked(r, *params);
    if (!intention.ok()) return R::failure(intention.error);
    // Re-boxed through the factory, so the receiving auditors get the
    // box's well-formedness verdict under the same params.
    return R::success(
        core::make_intention_payload(std::move(*intention.value), *params));
  }
  if (*tag == core::kCertificatePayloadTag) {
    if (params == nullptr) {
      return R::failure(core::WireError::kUnsupportedTag);
    }
    auto certificate = core::decode_certificate_checked(r, *params);
    if (!certificate.ok()) return R::failure(certificate.error);
    return R::success(core::make_certificate_payload(
        std::move(*certificate.value), *params));
  }
  if (*tag == core::kAsyncReplyPayloadTag) {
    return R::failure(core::WireError::kUnsupportedTag);
  }

  const auto bits = r.read(32);
  if (!bits) return R::failure(core::WireError::kTruncated);
  std::uint64_t words[sim::Payload::kInlineWords] = {};
  for (auto& word : words) {
    const auto w = r.read(64);
    if (!w) return R::failure(core::WireError::kTruncated);
    word = *w;
  }
  return R::success(sim::Payload::inline_words(
      static_cast<sim::PayloadTag>(*tag), *bits, words[0], words[1],
      words[2]));
}

std::vector<std::uint8_t> FrameCodec::encode(const Frame& frame) const {
  if (frame.round > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("FrameCodec: round overflows the u32 header");
  }
  core::BitWriter w;
  // Allocate once: the header, then a payload that never takes more than
  // its charged bits plus a count prefix, or the 224 bits of the generic
  // inline form.
  constexpr std::uint64_t kHeaderBits = 8 + 8 + 32 + 32 + 32 + 8 + 32;
  w.reserve(kHeaderBits +
            (carries_payload(frame.kind)
                 ? 16 + std::max<std::uint64_t>(
                            frame.payload.bit_size() + 64, 32 + 3 * 64)
                 : 0));
  w.write(kFrameMagic, 8);
  w.write(static_cast<std::uint64_t>(frame.kind), 8);
  w.write(frame.round, 32);
  w.write(frame.agent, 32);
  w.write(frame.target, 32);
  w.write(frame.complete ? 1 : 0, 8);
  w.write(frame.count, 32);
  if (carries_payload(frame.kind)) {
    encode_payload(w, frame.payload, params);
  }
  return w.take_bytes();
}

core::WireResult<Frame> FrameCodec::decode(const std::uint8_t* data,
                                           std::size_t size) const {
  using R = core::WireResult<Frame>;
  core::BitReader r(data, static_cast<std::uint64_t>(size) * 8);

  const auto magic = r.read(8);
  if (!magic) return R::failure(core::WireError::kTruncated);
  if (*magic != kFrameMagic) return R::failure(core::WireError::kBadFrame);
  const auto kind = r.read(8);
  if (!kind) return R::failure(core::WireError::kTruncated);
  if (!known_kind(*kind)) return R::failure(core::WireError::kBadFrame);

  Frame frame;
  frame.kind = static_cast<FrameKind>(*kind);
  const auto round = r.read(32);
  const auto agent = r.read(32);
  const auto target = r.read(32);
  const auto complete = r.read(8);
  const auto count = r.read(32);
  if (!round || !agent || !target || !complete || !count) {
    return R::failure(core::WireError::kTruncated);
  }
  frame.round = *round;
  frame.agent = static_cast<sim::AgentId>(*agent);
  frame.target = static_cast<sim::AgentId>(*target);
  frame.complete = *complete != 0;
  frame.count = static_cast<std::uint32_t>(*count);

  if (carries_labels(frame.kind) && n != 0 &&
      (frame.agent >= n || frame.target >= n)) {
    return R::failure(core::WireError::kRangeViolation);
  }
  if (carries_payload(frame.kind)) {
    auto payload = decode_payload(r, params);
    if (!payload.ok()) return R::failure(payload.error);
    frame.payload = std::move(*payload.value);
  }
  // Only byte-boundary padding may trail a frame; whole extra bytes mean a
  // framing slip (or a hostile overlong buffer).
  if (r.remaining() >= 8) return R::failure(core::WireError::kBadFrame);
  return R::success(std::move(frame));
}

}  // namespace rfc::net
