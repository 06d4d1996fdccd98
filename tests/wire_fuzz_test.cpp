// Transport-frame hardening: every payload tag round-trips through the
// frame codec, and no truncation or mutation of a valid frame can crash the
// decoder — hostile input yields a structured core::WireError, never an
// assert, a throw, or an unbounded allocation.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/payloads.hpp"
#include "core/wire.hpp"
#include "gossip/rumor.hpp"
#include "net/payload_interner.hpp"
#include "net/wire_frame.hpp"
#include "support/rng.hpp"

// Allocation probe: this binary's global operator new records the largest
// request made while the probe is armed, so a test can pin how much memory
// a hostile input makes the decoder ask for.
namespace {

std::atomic<bool> probe_armed{false};
std::atomic<std::size_t> largest_request{0};

void* probed_new(std::size_t size) {
  if (probe_armed.load(std::memory_order_relaxed)) {
    std::size_t seen = largest_request.load(std::memory_order_relaxed);
    while (size > seen &&
           !largest_request.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return probed_new(size); }
void* operator new[](std::size_t size) { return probed_new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rfc::net {
namespace {

core::ProtocolParams params() { return core::ProtocolParams::make(300, 3.0); }

core::VoteIntention sample_intention(const core::ProtocolParams& p,
                                     std::uint64_t seed) {
  rfc::support::Xoshiro256 rng(seed);
  core::VoteIntention h(p.q);
  for (core::VoteEntry& e : h) {
    e.value = rng.below(p.m);
    e.target = static_cast<sim::AgentId>(rng.below(p.n));
  }
  return h;
}

core::Certificate sample_certificate(const core::ProtocolParams& p,
                                     std::uint64_t seed) {
  rfc::support::Xoshiro256 rng(seed);
  core::ReceivedVotes votes;
  for (std::uint32_t i = 0; i < 25; ++i) {
    votes.push_back({static_cast<sim::AgentId>(rng.below(p.n)),
                     static_cast<std::uint32_t>(rng.below(p.q)),
                     rng.below(p.m)});
  }
  return core::make_certificate(p, 17, 5, votes);
}

/// One representative payload per registered tag that has a wire form.
std::vector<sim::Payload> every_wire_payload(const core::ProtocolParams& p) {
  std::vector<sim::Payload> payloads;
  payloads.emplace_back();  // Empty (tag 0): the silent pull reply.
  payloads.push_back(gossip::make_rumor_payload(0xDEADBEEFu, 64));
  payloads.push_back(core::make_vote_payload(123456, p));
  payloads.push_back(core::make_digest_payload(0x0123456789ABCDEFull));
  payloads.push_back(core::make_intention_payload(sample_intention(p, 7), p));
  payloads.push_back(
      core::make_certificate_payload(sample_certificate(p, 8), p));
  // Async vote (0x28) is inline and travels generically; the test tag range
  // (0xF0..) stands in for any future inline payload.
  payloads.push_back(sim::Payload::inline_words(core::kAsyncVotePayloadTag,
                                                24, 42, 0, 0));
  payloads.push_back(sim::Payload::inline_words(0xF0, 17, 1, 2, 3));
  return payloads;
}

void expect_equal_payloads(const sim::Payload& got, const sim::Payload& want) {
  EXPECT_EQ(got.tag(), want.tag());
  EXPECT_EQ(got.bit_size(), want.bit_size());
  EXPECT_EQ(got.empty(), want.empty());
  if (const core::VoteIntention* h = core::intention_in(want)) {
    ASSERT_NE(core::intention_in(got), nullptr);
    EXPECT_EQ(*core::intention_in(got), *h);
    return;
  }
  if (const core::Certificate* c = core::certificate_in(want)) {
    ASSERT_NE(core::certificate_in(got), nullptr);
    EXPECT_EQ(*core::certificate_in(got), *c);
    return;
  }
  for (std::size_t i = 0; i < sim::Payload::kInlineWords; ++i) {
    EXPECT_EQ(got.word(i), want.word(i));
  }
}

TEST(PayloadWire, EveryTagRoundTrips) {
  const auto p = params();
  for (const sim::Payload& payload : every_wire_payload(p)) {
    core::BitWriter w;
    encode_payload(w, payload, &p);
    core::BitReader r(w.bytes(), w.bit_count());
    const auto decoded = decode_payload(r, &p);
    ASSERT_TRUE(decoded.ok()) << "tag " << payload.tag() << ": "
                              << core::to_string(decoded.error);
    expect_equal_payloads(*decoded.value, payload);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(PayloadWire, AsyncReplyBoxedTagHasNoWireForm) {
  // 0x29 is the sequential model's in-memory reply object; it must be
  // rejected on both sides, not silently mis-serialized.
  const auto p = params();
  const sim::Payload boxed =
      sim::Payload::make_boxed<int>(core::kAsyncReplyPayloadTag, 8, 5);
  core::BitWriter w;
  EXPECT_THROW(encode_payload(w, boxed, &p), std::invalid_argument);

  core::BitWriter raw;
  raw.write(core::kAsyncReplyPayloadTag, 16);
  core::BitReader r(raw.bytes(), raw.bit_count());
  const auto decoded = decode_payload(r, &p);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, core::WireError::kUnsupportedTag);
}

TEST(PayloadWire, ProtocolPayloadsNeedParams) {
  const auto p = params();
  const sim::Payload intention =
      core::make_intention_payload(sample_intention(p, 9), p);
  core::BitWriter w;
  EXPECT_THROW(encode_payload(w, intention, nullptr), std::invalid_argument);

  core::BitWriter raw;
  raw.write(core::kIntentionPayloadTag, 16);
  core::BitReader r(raw.bytes(), raw.bit_count());
  const auto decoded = decode_payload(r, nullptr);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, core::WireError::kUnsupportedTag);
}

/// Frames covering every FrameKind, payload-carrying ones over every
/// wire-encodable payload.
std::vector<Frame> every_frame(const core::ProtocolParams& p) {
  std::vector<Frame> frames;
  Frame status;
  status.kind = FrameKind::kRoundStatus;
  status.round = 12;
  status.complete = true;
  frames.push_back(status);
  for (const FrameKind mark : {FrameKind::kActionsDone,
                               FrameKind::kRepliesDone}) {
    Frame f;
    f.kind = mark;
    f.round = 12;
    f.count = 7;
    frames.push_back(f);
  }
  Frame pull;
  pull.kind = FrameKind::kPullRequest;
  pull.round = 12;
  pull.agent = 3;
  pull.target = 141;
  frames.push_back(pull);
  for (const sim::Payload& payload : every_wire_payload(p)) {
    for (const FrameKind kind : {FrameKind::kPullReply, FrameKind::kPush}) {
      Frame f;
      f.kind = kind;
      f.round = 12;
      f.agent = 5;
      f.target = 299;
      f.payload = payload;
      frames.push_back(f);
    }
  }
  return frames;
}

TEST(FrameCodec, EveryKindAndPayloadRoundTrips) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  for (const Frame& frame : every_frame(p)) {
    const std::vector<std::uint8_t> bytes = codec.encode(frame);
    const auto decoded = codec.decode(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << to_string(frame.kind) << ": "
                              << core::to_string(decoded.error);
    EXPECT_EQ(decoded.value->kind, frame.kind);
    EXPECT_EQ(decoded.value->round, frame.round);
    EXPECT_EQ(decoded.value->agent, frame.agent);
    EXPECT_EQ(decoded.value->target, frame.target);
    EXPECT_EQ(decoded.value->complete, frame.complete);
    EXPECT_EQ(decoded.value->count, frame.count);
    expect_equal_payloads(decoded.value->payload, frame.payload);
  }
}

TEST(FrameCodec, RejectsBadMagicUnknownKindAndTrailingBytes) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  Frame f;
  f.kind = FrameKind::kRoundStatus;
  std::vector<std::uint8_t> bytes = codec.encode(f);

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(codec.decode(bad_magic.data(), bad_magic.size()).error,
            core::WireError::kBadFrame);

  std::vector<std::uint8_t> bad_kind = bytes;
  bad_kind[1] = 0x7F;
  EXPECT_EQ(codec.decode(bad_kind.data(), bad_kind.size()).error,
            core::WireError::kBadFrame);

  std::vector<std::uint8_t> overlong = bytes;
  overlong.push_back(0);
  EXPECT_EQ(codec.decode(overlong.data(), overlong.size()).error,
            core::WireError::kBadFrame);
}

TEST(FrameCodec, RejectsOutOfRangeLabels) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  Frame f;
  f.kind = FrameKind::kPullRequest;
  f.agent = p.n;  // One past the last valid label.
  f.target = 0;
  const std::vector<std::uint8_t> bytes = codec.encode(f);
  EXPECT_EQ(codec.decode(bytes.data(), bytes.size()).error,
            core::WireError::kRangeViolation);
}

TEST(FrameCodec, RejectsCertificateCountBomb) {
  // A hostile count prefix larger than n*q must be refused before any
  // reserve happens, not trusted as a vector length.
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  core::BitWriter w;
  w.write(0xC5, 8);
  w.write(static_cast<std::uint64_t>(FrameKind::kPush), 8);
  w.write(0, 32);   // round
  w.write(1, 32);   // agent
  w.write(2, 32);   // target
  w.write(0, 8);    // complete
  w.write(0, 32);   // count
  w.write(core::kCertificatePayloadTag, 16);
  w.write(0, p.value_bits());  // k
  w.write((1ull << core::certificate_count_bits(p)) - 1,
          core::certificate_count_bits(p));
  const auto decoded = codec.decode(w.bytes().data(), w.bytes().size());
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, core::WireError::kCountOverflow);
}

TEST(CertificateCountBound, HostileCountReservesOnlyWhatTheStreamHolds) {
  // At n = 2^20 a certificate may hold up to n*q votes, so a count of n*q
  // passes the domain check; the 19-byte payload below claims exactly that
  // and then ends.  Reserving the claimed count asked for ~900 MiB; the
  // decoder may reserve only what the remaining bits can carry.
  const auto p = core::ProtocolParams::make(1u << 20, 3.0);
  const std::uint64_t claimed = static_cast<std::uint64_t>(p.n) * p.q;
  core::BitWriter w;
  w.write(0, p.value_bits());  // k
  w.write(claimed, core::certificate_count_bits(p));
  while (w.bit_count() < 19 * 8) w.write(0, 1);
  ASSERT_EQ(w.bytes().size(), 19u);

  const std::uint64_t vote_bits =
      std::uint64_t{p.label_bits()} + p.round_bits() + p.value_bits();
  const std::size_t bound =
      (19 * 8 / vote_bits + 1) * sizeof(core::ReceivedVote);
  largest_request = 0;
  probe_armed = true;
  core::BitReader r(w.bytes(), w.bit_count());
  const auto decoded = core::decode_certificate_checked(r, p);
  probe_armed = false;
  EXPECT_EQ(decoded.error, core::WireError::kTruncated);
  EXPECT_LE(largest_request.load(), bound)
      << "claimed " << claimed << " votes of " << sizeof(core::ReceivedVote)
      << " B";
}

TEST(FrameCodec, DeclaredInlineSizeDoesNotSizeTheEncodeBuffer) {
  // A decoded inline payload carries whatever u32 size its sender declared;
  // re-encoding it (a relay, a resend) must allocate only the fixed inline
  // form, not a buffer of the declared size.
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  Frame f;
  f.kind = FrameKind::kPush;
  f.agent = 1;
  f.target = 2;
  f.payload = sim::Payload::inline_words(0xF0, 0xFFFFFFFFull, 1, 2, 3);
  largest_request = 0;
  probe_armed = true;
  const std::vector<std::uint8_t> bytes = codec.encode(f);
  probe_armed = false;
  EXPECT_EQ(bytes.size(), FrameCodec::kHeaderBytes + (16 + 32 + 3 * 64) / 8);
  EXPECT_LE(largest_request.load(), bytes.size());
}

TEST(FrameFuzz, EveryTruncationFailsStructurally) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  for (const Frame& frame : every_frame(p)) {
    const std::vector<std::uint8_t> bytes = codec.encode(frame);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const auto decoded = codec.decode(bytes.data(), len);
      // A truncated prefix must never parse as the full frame; payload-free
      // kinds may still parse if only padding was cut, so only the error
      // kind (when present) is pinned.
      if (!decoded.ok()) {
        EXPECT_NE(decoded.error, core::WireError::kNone);
      }
    }
  }
}

TEST(FrameFuzz, RandomMutationsNeverCrashTheDecoder) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  rfc::support::Xoshiro256 rng(20260808);
  const std::vector<Frame> frames = every_frame(p);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes =
        codec.encode(frames[rng.below(frames.size())]);
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t i = 0; i < flips; ++i) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    const auto decoded = codec.decode(bytes.data(), bytes.size());
    if (decoded.ok()) {
      // Whatever survived mutation must re-encode: the decoder may only
      // accept frames that are themselves well-formed.
      EXPECT_NO_THROW((void)codec.encode(*decoded.value));
    } else {
      EXPECT_NE(decoded.error, core::WireError::kNone);
    }
  }
}

TEST(FrameFuzz, InternerDecodesMutatedFramesAsTheCodecDoes) {
  // The interner caches decodes; hostile bytes must still get exactly the
  // codec's verdict, on first sight and on every repeat.
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  PayloadInterner interner(codec);
  rfc::support::Xoshiro256 rng(777);
  const std::vector<Frame> frames = every_frame(p);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes =
        codec.encode(frames[rng.below(frames.size())]);
    if (rng.below(2) == 0) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    for (int repeat = 0; repeat < 2; ++repeat) {
      const auto want = codec.decode(bytes.data(), bytes.size());
      const auto got = interner.decode(bytes.data(), bytes.size());
      ASSERT_EQ(got.error, want.error) << "iteration " << iter;
      if (!want.ok()) continue;
      EXPECT_EQ(codec.encode(*got.value), codec.encode(*want.value));
    }
  }
  EXPECT_GT(interner.counters().decode_hits, 0u);
}

TEST(FrameFuzz, RandomGarbageNeverCrashesTheDecoder) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  rfc::support::Xoshiro256 rng(424242);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes(rng.below(64));
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.below(256));
    }
    const auto decoded = codec.decode(bytes.data(), bytes.size());
    if (!decoded.ok()) {
      EXPECT_NE(decoded.error, core::WireError::kNone);
    }
  }
}

}  // namespace
}  // namespace rfc::net
