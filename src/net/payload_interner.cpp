#include "net/payload_interner.hpp"

#include <stdexcept>
#include <utility>

#include "core/payloads.hpp"

namespace rfc::net {

namespace {

/// True when `section` starts with a tag whose decodes are shared: the
/// boxed protocol payloads, the only ones worth caching.
bool shared_decode_tag(const std::uint8_t* section, std::size_t size) noexcept {
  if (size < 2) return false;
  const auto tag = static_cast<sim::PayloadTag>(section[0] << 8 | section[1]);
  return tag == core::kIntentionPayloadTag ||
         tag == core::kCertificatePayloadTag;
}

}  // namespace

PayloadInterner::PayloadInterner(const FrameCodec& codec)
    : codec_(codec), capacity_(codec.n) {
  if (capacity_ == 0) {
    throw std::invalid_argument(
        "PayloadInterner: the codec needs n, which bounds the caches");
  }
}

std::vector<std::uint8_t> PayloadInterner::encode(const Frame& frame) {
  std::vector<std::uint8_t> bytes;
  codec_.encode_header(frame, bytes);
  if (has_section(frame.kind, frame.count)) {
    append_section(frame.payload, bytes);
  }
  return bytes;
}

void PayloadInterner::append_section(const sim::Payload& payload,
                                     std::vector<std::uint8_t>& out) {
  const void* box = payload.is_arena_boxed()
                        ? nullptr
                        : payload.boxed_as<void>(payload.tag());
  if (box == nullptr) {
    ++counters_.encodes;
    codec_.encode_section(payload, out);
    return;
  }

  auto it = encoded_.find(box);
  if (it == encoded_.end()) {
    std::vector<std::uint8_t> section;
    codec_.encode_section(payload, section);
    ++counters_.encodes;
    if (encoded_.size() >= capacity_) encoded_.clear();
    it = encoded_.emplace(box, EncodedSection{payload, std::move(section)})
             .first;
  } else {
    ++counters_.encode_hits;
  }
  const std::vector<std::uint8_t>& section = it->second.section;
  out.insert(out.end(), section.begin(), section.end());
}

core::WireResult<Frame> PayloadInterner::decode(const std::uint8_t* data,
                                                std::size_t size) {
  auto frame = codec_.decode_header(data, size);
  if (!frame.ok() || !has_section(frame.value->kind, frame.value->count)) {
    return frame;
  }
  auto payload = decode_section(data + FrameCodec::kHeaderBytes,
                                size - FrameCodec::kHeaderBytes);
  if (!payload.ok()) return core::WireResult<Frame>::failure(payload.error);
  frame.value->payload = std::move(*payload.value);
  return frame;
}

core::WireResult<sim::Payload> PayloadInterner::decode_section(
    const std::uint8_t* data, std::size_t size) {
  if (!shared_decode_tag(data, size)) {
    ++counters_.decodes;
    return codec_.decode_section(data, size);
  }
  const std::string_view key(reinterpret_cast<const char*>(data), size);
  if (const auto it = decoded_.find(key); it != decoded_.end()) {
    ++counters_.decode_hits;
    return core::WireResult<sim::Payload>::success(it->second);
  }
  ++counters_.decodes;
  auto payload = codec_.decode_section(data, size);
  if (payload.ok()) {
    if (decoded_.size() >= capacity_) decoded_.clear();
    decoded_.emplace(std::string(key), *payload.value);
  }
  return payload;
}

}  // namespace rfc::net
