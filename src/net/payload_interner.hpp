// PayloadInterner — a node's wire boundary, encoding each boxed payload once
// and decoding each distinct protocol payload once.
//
// Protocol P's big messages, the O(log^2 n)-bit vote intentions and
// certificates, are immutable heap boxes.  A node sends one box in many
// frames (an agent serves its H_u to every auditor, and after Find-Min the
// network pushes one CE_min around), and the receiving node gets the same
// bytes many times.  FrameCodec alone re-encodes the box for every frame
// and decodes every arrival into a fresh box.  The interner sits between
// NodeDriver and FrameCodec and caches both directions:
//
//   * encode: a heap box's address keys its encoded payload section.  Each
//     entry holds the Payload itself, so the box cannot be freed, and its
//     address reused by another box, while the entry exists.  Inline,
//     empty and arena-boxed payloads are encoded directly.
//   * decode: for the intention and certificate tags, the section's bytes
//     (hash plus byte compare) key the payload decoded from them — never
//     the sender's label, so an equivocator's two intentions stay two
//     boxes.  A hit shares the already decoded box.  Only successful
//     decodes are cached, so a malformed section is rejected on every
//     arrival.  A caller may check a frame's header first and decode its
//     section only if it keeps the frame (NodeDriver does).
//
// Sharing is safe because a decode is a pure function of the section bytes
// and the run's ProtocolParams, and the box is immutable.  It also makes
// the receivers of one certificate share one box, as they do in memory,
// which Coherence's pointer-identity check and Find-Min's reuse of the
// arriving box rely on for speed.
//
// Bound: each map holds at most n entries (the codec's n) and is cleared
// wholesale when full.  A correct run has at most n distinct intentions,
// and each phase at most n distinct certificates, so the bound is met by
// honest traffic and caps what a hostile peer's distinct payloads can pin.
// Hits depend only on the order of the calls, so a caller that makes them
// in a fixed order (NodeDriver: label order) gets reproducible counters.
//
// No byte on the wire changes: encode(f) == codec.encode(f) and decode(b)
// equals codec.decode(b) field for field, errors included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/wire_frame.hpp"
#include "sim/payload.hpp"

namespace rfc::net {

/// Payload sections the interner encoded or decoded, and how many it served
/// from its caches instead.
struct InternerCounters {
  std::uint64_t encodes = 0;      ///< Sections encoded.
  std::uint64_t encode_hits = 0;  ///< Sections copied from the encode cache.
  std::uint64_t decodes = 0;      ///< Sections decoded (failures included).
  std::uint64_t decode_hits = 0;  ///< Boxes shared from the decode cache.

  InternerCounters& operator+=(const InternerCounters& other) noexcept {
    encodes += other.encodes;
    encode_hits += other.encode_hits;
    decodes += other.decodes;
    decode_hits += other.decode_hits;
    return *this;
  }
  bool operator==(const InternerCounters&) const = default;
};

class PayloadInterner {
 public:
  /// Caches at most codec.n sections in each direction; throws
  /// std::invalid_argument when codec.n is 0 (the bound is derived from it).
  explicit PayloadInterner(const FrameCodec& codec);

  /// The bytes codec.encode(frame) produces (and its throws).
  std::vector<std::uint8_t> encode(const Frame& frame);
  /// Appends `payload`'s section, as codec.encode_section does (and its
  /// throws), copying a heap box's from the cache.
  void append_section(const sim::Payload& payload,
                      std::vector<std::uint8_t>& out);
  /// What codec.decode(data, size) returns, except that an intention or
  /// certificate payload may share its box with earlier decodes.
  core::WireResult<Frame> decode(const std::uint8_t* data, std::size_t size);
  /// codec.decode_header: the frame without its payload section, which
  /// starts at data + FrameCodec::kHeaderBytes.
  core::WireResult<Frame> decode_header(const std::uint8_t* data,
                                        std::size_t size) const {
    return codec_.decode_header(data, size);
  }
  /// codec.decode_section, except that an intention or certificate may
  /// share its box with earlier decodes.
  core::WireResult<sim::Payload> decode_section(const std::uint8_t* data,
                                                std::size_t size);

  const FrameCodec& codec() const noexcept { return codec_; }
  const InternerCounters& counters() const noexcept { return counters_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t encoded_entries() const noexcept { return encoded_.size(); }
  std::size_t decoded_entries() const noexcept { return decoded_.size(); }

 private:
  struct EncodedSection {
    sim::Payload payload;  ///< Keeps the box, and so its address, alive.
    std::vector<std::uint8_t> section;
  };
  struct SectionHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view bytes) const noexcept {
      return std::hash<std::string_view>{}(bytes);
    }
  };

  FrameCodec codec_;
  std::size_t capacity_;
  std::unordered_map<const void*, EncodedSection> encoded_;
  std::unordered_map<std::string, sim::Payload, SectionHash, std::equal_to<>>
      decoded_;
  InternerCounters counters_;
};

}  // namespace rfc::net
