// Transport frames of the distributed round protocol.
//
// Every byte a NodeDriver puts on a CommClient is one Frame: a header of
// whole big-endian fields, then (on pull replies and pushes) a payload
// section encoded with core/wire's BitWriter (MSB-first) and parsed back
// with the checked decoders — transport input is hostile by assumption, so
// every decode returns a structured core::WireError instead of asserting.
//
// Frame layout (bit-packed, then padded to a byte boundary):
//
//   magic     u8   0xC5 — rejects stray datagrams and framing slips
//   kind      u8   FrameKind
//   round     u32  engine round the frame belongs to
//   agent     u32  acting agent label (requester / pusher); kNoAgent on marks
//   target    u32  pullee / push destination label; kNoAgent on marks
//   complete  u8   kRoundStatus: the sender's block completion flag
//   count     u32  kActionsDone / kRepliesDone: data frames the sender put
//                  on the wire to *this* destination this round — the
//                  receiver waits until that many arrived, which makes the
//                  sync points exact even over a reordering transport (UDP).
//                  kPullReply / kPush: the payload's link id (below)
//   payload        kPullReply / kPush: see below
//
// The header is 152 bits, exactly FrameCodec::kHeaderBytes (19) bytes, so
// the payload section always starts on a byte boundary.
//
// Link ids: a sender numbers the heap boxes it sends over one link (one
// ordered pair of nodes), so a box crosses each link once.  On a pull
// reply or push, `count` is
//
//   0          a plain frame: the section follows (inline, empty and
//              arena-boxed payloads, and any frame that names no link id);
//   id + 1     a definition: the section follows, and gives link id `id`
//              the payload it decodes to;
//   kRef | id  a reference: header only, the payload is the one link id
//              `id` was defined with.
//
// The codec checks the shape only: a reference with trailing bytes is
// kBadFrame, a plain frame or definition without a section kTruncated.
// What an id means, and its bounds, are net::NodeDriver's (see there).
//
// Payload encoding: a 16-bit tag, then tag-dependent content.  Tag 0 is the
// empty payload (a silent pull reply).  The boxed core tags (0x22 vote
// intentions, 0x23 certificates) use the exact bit-level encodings of
// core/wire — the same bits the accounting model charges — and therefore
// need the run's ProtocolParams in the codec.  Every other tag is an inline
// payload and travels generically as (bits u32, 3 x u64 words).  The async
// boxed tag 0x29 has no wire form and is rejected as kUnsupportedTag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "core/wire.hpp"
#include "sim/agent.hpp"
#include "sim/payload.hpp"

namespace rfc::net {

enum class FrameKind : std::uint8_t {
  kRoundStatus = 1,  ///< Round-start barrier, carries the block's completion.
  kActionsDone = 2,  ///< All pull requests / pushes of the round are sent.
  kRepliesDone = 3,  ///< All pull replies of the round are sent.
  kPullRequest = 4,  ///< agent pulls target (a local label of the receiver).
  kPullReply = 5,    ///< Reply to agent's pull on target; payload may be empty.
  kPush = 6,         ///< agent pushes payload to target.
  kResendRequest = 7,  ///< "resend me everything you sent me for `round`":
                       ///< lossy transports (UDP) drop frames, and a lost
                       ///< barrier frame would otherwise hang the cluster
                       ///< until the sync timeout.  The receiver answers
                       ///< from its bounded per-round send buffer; dedup on
                       ///< the requester side makes the re-delivery
                       ///< idempotent (see net/node_driver.hpp).
};

const char* to_string(FrameKind kind) noexcept;

/// The reference bit of a pull reply's or push's `count` (see the layout).
inline constexpr std::uint32_t kRef = 0x8000'0000u;

struct Frame {
  FrameKind kind = FrameKind::kRoundStatus;
  std::uint64_t round = 0;
  sim::AgentId agent = sim::kNoAgent;
  sim::AgentId target = sim::kNoAgent;
  bool complete = false;
  std::uint32_t count = 0;
  sim::Payload payload{};
};

/// Encodes `payload` after its 16-bit tag.  Throws std::invalid_argument on
/// a boxed payload the wire has no encoding for, or on a protocol payload
/// without `params`.
void encode_payload(core::BitWriter& w, const sim::Payload& payload,
                    const core::ProtocolParams* params);

/// Inverse of encode_payload; structured errors on truncated, overlong, or
/// out-of-domain input.
core::WireResult<sim::Payload> decode_payload(
    core::BitReader& r, const core::ProtocolParams* params);

/// True for the frame kinds that carry a payload (pull replies and pushes).
bool carries_payload(FrameKind kind) noexcept;

/// True when a frame of `kind` with this `count` is followed by a payload
/// section: a payload-carrying kind that is not a link reference.
inline bool has_section(FrameKind kind, std::uint32_t count) noexcept {
  return carries_payload(kind) && (count & kRef) == 0;
}

/// Frame codec bound to one run's geometry: `n` validates agent labels
/// (0 = unknown, labels pass unchecked) and `params` enables the boxed
/// protocol payloads.
///
/// A frame is a fixed kHeaderBytes header, followed on payload-carrying
/// kinds, link references excepted, by a payload section (the 16-bit tag
/// and its body, zero-padded to a byte).  The header is byte-aligned, so
/// the two halves encode and decode independently: encode/decode are
/// exactly the header functions followed by the section functions, and
/// net::PayloadInterner reuses the section functions to encode a boxed
/// payload once for every frame that carries it.
struct FrameCodec {
  static constexpr std::size_t kHeaderBytes = 19;

  std::uint32_t n = 0;
  const core::ProtocolParams* params = nullptr;

  /// A link reference's payload is not encoded: it travels header-only.
  std::vector<std::uint8_t> encode(const Frame& frame) const;
  /// Parses `data` in place, without copying it; the returned Frame owns
  /// everything it holds, so `data` may be reused as soon as this returns.
  /// A link reference decodes with an empty payload.
  core::WireResult<Frame> decode(const std::uint8_t* data,
                                 std::size_t size) const;

  /// Appends the kHeaderBytes header of `frame` (its payload is ignored).
  /// Throws std::invalid_argument when the round overflows 32 bits.
  void encode_header(const Frame& frame, std::vector<std::uint8_t>& out) const;
  /// Appends `payload` as a section.  Throws as encode_payload does, and
  /// `out` is then unspecified.
  void encode_section(const sim::Payload& payload,
                      std::vector<std::uint8_t>& out) const;

  /// Parses and validates the header at the front of `data`: magic, kind,
  /// (on label-carrying kinds) agent labels, and whether a section follows
  /// exactly when has_section says one does.  The returned frame has an
  /// empty payload; the section, if any, starts at data + kHeaderBytes.
  core::WireResult<Frame> decode_header(const std::uint8_t* data,
                                        std::size_t size) const;
  /// Parses a whole section; only byte-boundary padding may trail it.
  core::WireResult<sim::Payload> decode_section(const std::uint8_t* data,
                                                std::size_t size) const;
};

}  // namespace rfc::net
