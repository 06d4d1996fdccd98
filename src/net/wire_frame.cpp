#include "net/wire_frame.hpp"

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

// magic, kind, round, agent, target, complete, count.
constexpr std::uint64_t kHeaderBits = 8 + 8 + 32 + 32 + 32 + 8 + 32;
static_assert(kHeaderBits == FrameCodec::kHeaderBytes * 8,
              "the frame header must be byte-aligned: the payload section "
              "is encoded and cached on its own");

bool carries_labels(FrameKind kind) noexcept {
  return kind == FrameKind::kPullRequest || carries_payload(kind);
}

/// Bits a section can take after its tag: the 224 bits of the generic
/// inline form, or a boxed payload's charged bits plus a count prefix.  An
/// inline payload's declared size plays no part: it arrives from the wire
/// as any u32, and must not size an allocation.
std::uint64_t section_bits_bound(const sim::Payload& payload) noexcept {
  if (payload.empty()) return 16;
  if (payload.is_inline()) return 16 + 32 + 3 * 64;
  return 16 + payload.bit_size() + 64;
}

}  // namespace

bool carries_payload(FrameKind kind) noexcept {
  return kind == FrameKind::kPullReply || kind == FrameKind::kPush;
}

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
  const bool section = has_section(frame.kind, frame.count);
  std::vector<std::uint8_t> bytes;
  // Allocate once: the header, then the section's bound.
  bytes.reserve(kHeaderBytes +
                (section ? (section_bits_bound(frame.payload) + 7) / 8 : 0));
  encode_header(frame, bytes);
  if (section) encode_section(frame.payload, bytes);
  return bytes;
}

void FrameCodec::encode_header(const Frame& frame,
                               std::vector<std::uint8_t>& out) const {
  if (frame.round > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("FrameCodec: round overflows the u32 header");
  }
  // Every field is whole bytes at a fixed offset, written big-endian (the
  // bit order BitWriter would produce).
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes);
  std::uint8_t* p = out.data() + at;
  const auto put = [&p](std::uint64_t value, int bytes) {
    for (int i = bytes - 1; i >= 0; --i) {
      *p++ = static_cast<std::uint8_t>(value >> (8 * i));
    }
  };
  put(kFrameMagic, 1);
  put(static_cast<std::uint64_t>(frame.kind), 1);
  put(frame.round, 4);
  put(frame.agent, 4);
  put(frame.target, 4);
  put(frame.complete ? 1 : 0, 1);
  put(frame.count, 4);
}

void FrameCodec::encode_section(const sim::Payload& payload,
                                std::vector<std::uint8_t>& out) const {
  core::BitWriter w(std::move(out));
  w.reserve(section_bits_bound(payload));
  encode_payload(w, payload, params);
  out = w.take_bytes();
}

core::WireResult<Frame> FrameCodec::decode(const std::uint8_t* data,
                                           std::size_t size) const {
  auto frame = decode_header(data, size);
  if (!frame.ok() || !has_section(frame.value->kind, frame.value->count)) {
    return frame;
  }
  auto payload =
      decode_section(data + kHeaderBytes, size - kHeaderBytes);
  if (!payload.ok()) return core::WireResult<Frame>::failure(payload.error);
  frame.value->payload = std::move(*payload.value);
  return frame;
}

core::WireResult<Frame> FrameCodec::decode_header(const std::uint8_t* data,
                                                  std::size_t size) const {
  using R = core::WireResult<Frame>;
  // The fields are whole bytes at fixed offsets (see encode_header).
  const auto get = [data](std::size_t at, int bytes) {
    std::uint64_t value = 0;
    for (int i = 0; i < bytes; ++i) value = value << 8 | data[at + i];
    return value;
  };
  if (size < 1) return R::failure(core::WireError::kTruncated);
  if (data[0] != kFrameMagic) return R::failure(core::WireError::kBadFrame);
  if (size < 2) return R::failure(core::WireError::kTruncated);
  if (!known_kind(data[1])) return R::failure(core::WireError::kBadFrame);
  if (size < kHeaderBytes) return R::failure(core::WireError::kTruncated);

  Frame frame;
  frame.kind = static_cast<FrameKind>(data[1]);
  frame.round = get(2, 4);
  frame.agent = static_cast<sim::AgentId>(get(6, 4));
  frame.target = static_cast<sim::AgentId>(get(10, 4));
  frame.complete = data[14] != 0;
  frame.count = static_cast<std::uint32_t>(get(15, 4));

  if (carries_labels(frame.kind) && n != 0 &&
      (frame.agent >= n || frame.target >= n)) {
    return R::failure(core::WireError::kRangeViolation);
  }
  // Only a payload section may follow the header; extra bytes after a
  // mark, a pull request or a link reference mean a framing slip (or a
  // hostile overlong buffer), and a frame that owes a section and ends at
  // the header is cut short.
  if (has_section(frame.kind, frame.count)) {
    if (size == kHeaderBytes) return R::failure(core::WireError::kTruncated);
  } else if (size > kHeaderBytes) {
    return R::failure(core::WireError::kBadFrame);
  }
  return R::success(std::move(frame));
}

core::WireResult<sim::Payload> FrameCodec::decode_section(
    const std::uint8_t* data, std::size_t size) const {
  core::BitReader r(data, static_cast<std::uint64_t>(size) * 8);
  auto payload = decode_payload(r, params);
  // Only byte-boundary padding may trail a section; whole extra bytes mean
  // a framing slip (or a hostile overlong buffer).
  if (payload.ok() && r.remaining() >= 8) {
    return core::WireResult<sim::Payload>::failure(core::WireError::kBadFrame);
  }
  return payload;
}

}  // namespace rfc::net
