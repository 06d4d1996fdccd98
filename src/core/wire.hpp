// Bit-exact wire encoding of Protocol P's payloads.
//
// The complexity claims of the paper are stated in *bits*; the simulator
// accounts them via Payload::bit_size().  This module closes the loop: every
// payload can actually be serialized into exactly that many bits and parsed
// back, so the accounting model is honest — no hidden framing, no padding.
//
// Encoding model (Section 3): a vote value costs ceil(log2 m) bits, a label
// ceil(log2 n), a voting-round index ceil(log2 q), a color ceil(log2 n).
// Counts that both sides already know (q entries of an intention) are not
// transmitted; the certificate's variable-length W is prefixed by a vote
// count of ceil(log2 (n q)) bits, which is included in bit_size().
//
// Parse errors.  Decoders come in two flavors: the original optional-based
// ones (nullopt on any failure — what the in-memory simulator ever needed)
// and _checked variants returning a WireResult with a structured WireError.
// The checked variants exist because the transport layer (src/net) feeds
// these decoders bytes from the network: a truncated stream, an overlong
// vote count (a 2^30 reserve bomb), or an out-of-range label must each be
// rejected with a diagnosable reason instead of a crash, an assert, or an
// unbounded allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/certificate.hpp"
#include "core/params.hpp"
#include "core/types.hpp"

namespace rfc::core {

/// Structured reason a wire decode was rejected.
enum class WireError : std::uint8_t {
  kNone = 0,        ///< Decode succeeded.
  kTruncated,       ///< The stream ended before the value was complete.
  kCountOverflow,   ///< A count prefix exceeds its domain bound (n*q for a
                    ///< certificate's vote multiset) — an overlong buffer
                    ///< that would otherwise drive an unbounded reserve.
  kRangeViolation,  ///< A decoded field lies outside its domain (a label
                    ///< >= n, a voting round >= q).
  kBadFrame,        ///< Malformed transport frame (net/wire_frame).
  kUnsupportedTag,  ///< A payload tag the wire codec has no encoding for.
};

/// Stable diagnostic names ("truncated", "count-overflow", ...).
const char* to_string(WireError error) noexcept;

/// Outcome of a checked decode: a value, or a structured error.  `value`
/// is engaged iff `error == WireError::kNone`.
template <typename T>
struct WireResult {
  std::optional<T> value;
  WireError error = WireError::kNone;

  bool ok() const noexcept { return error == WireError::kNone; }
  static WireResult failure(WireError e) noexcept { return {std::nullopt, e}; }
  static WireResult success(T v) { return {std::move(v), WireError::kNone}; }
};

/// Append-only bit stream writer (MSB-first within each value).  Values
/// are packed a byte at a time; the output is the same bit string a
/// bit-serial writer would produce, padded with zero bits to a byte.
/// write() and BitReader::read() are defined inline below: they run once
/// per field of every transport frame.
class BitWriter {
 public:
  BitWriter() = default;
  /// Continues the byte-aligned stream `bytes`: later writes append to it.
  explicit BitWriter(std::vector<std::uint8_t> bytes) noexcept
      : bytes_(std::move(bytes)), bit_count_(bytes_.size() * 8) {}

  /// Appends the low `bits` bits of `value`.  Throws std::invalid_argument
  /// when `bits` > 64.
  void write(std::uint64_t value, std::uint32_t bits);

  /// Makes room for `bits` more bits, so a writer whose final size is known
  /// allocates once.
  void reserve(std::uint64_t bits) {
    bytes_.reserve(static_cast<std::size_t>((bit_count_ + bits + 7) / 8));
  }

  std::uint64_t bit_count() const noexcept { return bit_count_; }
  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

  /// Moves the bytes out and leaves the writer empty.
  std::vector<std::uint8_t> take_bytes() noexcept {
    bit_count_ = 0;
    return std::move(bytes_);
  }

 private:
  [[noreturn]] static void throw_width(std::uint32_t bits);

  std::vector<std::uint8_t> bytes_;
  std::uint64_t bit_count_ = 0;
};

/// Sequential reader over a BitWriter's output, a 64-bit window at a time.
/// It does not own the bytes: they must outlive the reader.
class BitReader {
 public:
  /// Reads the first `bit_count` bits of `data`.
  BitReader(const std::uint8_t* data, std::uint64_t bit_count) noexcept
      : data_(data), bit_count_(bit_count) {}
  BitReader(const std::vector<std::uint8_t>& bytes,
            std::uint64_t bit_count) noexcept
      : BitReader(bytes.data(), bit_count) {}

  /// Reads `bits` bits (at most 64); returns nullopt past the end.
  std::optional<std::uint64_t> read(std::uint32_t bits);

  std::uint64_t remaining() const noexcept { return bit_count_ - cursor_; }

 private:
  const std::uint8_t* data_;
  std::uint64_t bit_count_;
  std::uint64_t cursor_ = 0;
};

inline void BitWriter::write(std::uint64_t value, std::uint32_t bits) {
  if (bits > 64) throw_width(bits);
  if (bits == 0) return;
  if (bits < 64) value &= (std::uint64_t{1} << bits) - 1;
  // Bits still free in the last byte (0 when the stream is byte-aligned).
  const auto free_bits = static_cast<std::uint32_t>((8 - bit_count_ % 8) % 8);
  bit_count_ += bits;
  if (free_bits != 0) {
    if (bits <= free_bits) {
      bytes_.back() |= static_cast<std::uint8_t>(value << (free_bits - bits));
      return;
    }
    bits -= free_bits;
    bytes_.back() |= static_cast<std::uint8_t>(value >> bits);
  }
  // `bits` low bits of `value` remain, all starting on a byte boundary.
  while (bits >= 8) {
    bits -= 8;
    bytes_.push_back(static_cast<std::uint8_t>(value >> bits));
  }
  if (bits != 0) {
    bytes_.push_back(static_cast<std::uint8_t>(value << (8 - bits)));
  }
}

inline std::optional<std::uint64_t> BitReader::read(std::uint32_t bits) {
  if (bits > 64 || bits > bit_count_ - cursor_) return std::nullopt;
  if (bits == 0) return 0;
  std::size_t index = static_cast<std::size_t>(cursor_ / 8);
  const auto offset = static_cast<std::uint32_t>(cursor_ % 8);
  cursor_ += bits;
  if (offset + bits <= 64 && index + 8 <= (bit_count_ + 7) / 8) {
    // Whole value inside one 8-byte big-endian window of the stream.
    std::uint64_t window = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      window = (window << 8) | data_[index + i];
    }
    return (window << offset) >> (64 - bits);
  }
  // Near the end of the stream, or a value spanning nine bytes.
  std::uint64_t value = 0;
  if (offset != 0) {
    // The tail of a partly consumed byte.
    const std::uint32_t avail = 8 - offset;
    const std::uint64_t head = data_[index++] & (0xFFu >> offset);
    if (bits <= avail) return head >> (avail - bits);
    value = head;
    bits -= avail;
  }
  while (bits >= 8) {
    value = (value << 8) | data_[index++];
    bits -= 8;
  }
  if (bits != 0) value = (value << bits) | (data_[index] >> (8 - bits));
  return value;
}

// --- Encoders: each writes exactly the size the accounting model charges --

/// Vote intention H_u: q * (value_bits + label_bits) bits.
void encode_intention(BitWriter& w, const ProtocolParams& params,
                      const VoteIntention& intention);
std::optional<VoteIntention> decode_intention(BitReader& r,
                                              const ProtocolParams& params);
/// Checked variant: kTruncated on a short stream, kRangeViolation on a
/// vote target >= n (labels must name real agents).
WireResult<VoteIntention> decode_intention_checked(
    BitReader& r, const ProtocolParams& params);

/// Single vote: value_bits bits.
void encode_vote(BitWriter& w, const ProtocolParams& params,
                 std::uint64_t value);
std::optional<std::uint64_t> decode_vote(BitReader& r,
                                         const ProtocolParams& params);

/// Certificate (k, W, c, owner) with a |W| count prefix.
void encode_certificate(BitWriter& w, const ProtocolParams& params,
                        const Certificate& certificate);
std::optional<Certificate> decode_certificate(BitReader& r,
                                              const ProtocolParams& params);
/// Checked variant: kTruncated on a short stream, kCountOverflow when the
/// vote-count prefix exceeds n*q (the domain bound — guards the reserve),
/// kRangeViolation on a voter/owner label >= n or a voting round >= q.
WireResult<Certificate> decode_certificate_checked(
    BitReader& r, const ProtocolParams& params);

/// Bits the count prefix of a certificate costs: the vote multiset has at
/// most n*q elements.
std::uint32_t certificate_count_bits(const ProtocolParams& params) noexcept;

/// Exact encoded size of a certificate (bit_size() + count prefix).
std::uint64_t encoded_certificate_bits(const ProtocolParams& params,
                                       const Certificate& c) noexcept;

}  // namespace rfc::core
