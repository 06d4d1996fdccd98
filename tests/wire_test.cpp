// Bit-exact serialization: every payload round-trips in exactly the number
// of bits the accounting model charges.  The second half pins
// net::PayloadInterner, the wire boundary that encodes each box once and
// decodes each distinct payload once, to the plain frame codec.
#include "core/wire.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/payloads.hpp"
#include "gossip/rumor.hpp"
#include "net/payload_interner.hpp"
#include "net/wire_frame.hpp"
#include "support/arena.hpp"
#include "support/rng.hpp"

namespace rfc::core {
namespace {

ProtocolParams params() { return ProtocolParams::make(300, 3.0); }

TEST(BitWriter, PacksMsbFirst) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0b01, 2);
  EXPECT_EQ(w.bit_count(), 5u);
  ASSERT_EQ(w.bytes().size(), 1u);
  EXPECT_EQ(w.bytes()[0], 0b10101000);
}

TEST(BitWriter, CrossesByteBoundaries) {
  BitWriter w;
  w.write(0xABCD, 16);
  w.write(0x3, 2);
  EXPECT_EQ(w.bit_count(), 18u);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_EQ(r.read(16), 0xABCDu);
  EXPECT_EQ(r.read(2), 0x3u);
}

TEST(BitReader, RefusesOverread) {
  BitWriter w;
  w.write(1, 4);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_TRUE(r.read(4).has_value());
  EXPECT_FALSE(r.read(1).has_value());
}

TEST(BitRoundTrip, RandomValues) {
  rfc::support::Xoshiro256 rng(44);
  BitWriter w;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> expected;
  for (int i = 0; i < 500; ++i) {
    const auto bits = static_cast<std::uint32_t>(1 + rng.below(64));
    const std::uint64_t value =
        bits == 64 ? rng.next() : rng.below(1ull << bits);
    w.write(value, bits);
    expected.emplace_back(value, bits);
  }
  BitReader r(w.bytes(), w.bit_count());
  for (const auto& [value, bits] : expected) {
    const auto got = r.read(bits);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

// --- Codec property: the byte-at-a-time BitWriter/BitReader against a
// bit-serial reference.  Certificate digests and every wire test depend on
// the exact bytes, so the packed codec must be indistinguishable from the
// one-bit-per-step algorithm it replaced.

/// One bit per step, MSB-first: the reference the packed codec must match.
struct SerialBitWriter {
  std::vector<std::uint8_t> bytes;
  std::uint64_t bit_count = 0;

  void write(std::uint64_t value, std::uint32_t bits) {
    for (std::uint32_t i = bits; i-- > 0;) {
      const std::size_t byte_index = static_cast<std::size_t>(bit_count / 8);
      if (byte_index == bytes.size()) bytes.push_back(0);
      if ((value >> i) & 1u) {
        bytes[byte_index] |=
            static_cast<std::uint8_t>(1u << (7 - bit_count % 8));
      }
      ++bit_count;
    }
  }
};

std::uint64_t serial_read(const std::vector<std::uint8_t>& bytes,
                          std::uint64_t cursor, std::uint32_t bits) {
  std::uint64_t value = 0;
  for (std::uint32_t i = 0; i < bits; ++i, ++cursor) {
    value = (value << 1) | ((bytes[cursor / 8] >> (7 - cursor % 8)) & 1u);
  }
  return value;
}

std::uint64_t low_bits(std::uint64_t value, std::uint32_t bits) {
  return bits == 64 ? value : value & ((std::uint64_t{1} << bits) - 1);
}

TEST(BitCodecProperty, RandomWritesMatchBitSerialReference) {
  rfc::support::Xoshiro256 rng(20261016);
  for (int trial = 0; trial < 300; ++trial) {
    BitWriter w;
    SerialBitWriter ref;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> written;
    const auto count = 1 + rng.below(48);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto bits = static_cast<std::uint32_t>(rng.below(65));  // 0..64
      // Full-width noise: bits above the width must be ignored.
      const std::uint64_t value = rng.next();
      w.write(value, bits);
      ref.write(value, bits);
      written.emplace_back(low_bits(value, bits), bits);
    }
    ASSERT_EQ(w.bit_count(), ref.bit_count) << "trial " << trial;
    ASSERT_EQ(w.bytes(), ref.bytes) << "trial " << trial;

    // Read back through both constructors; then one bit too many fails
    // without consuming anything.
    for (const bool from_pointer : {false, true}) {
      BitReader r = from_pointer ? BitReader(w.bytes().data(), w.bit_count())
                                 : BitReader(w.bytes(), w.bit_count());
      for (const auto& [value, bits] : written) {
        const auto got = r.read(bits);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, value);
      }
      EXPECT_EQ(r.remaining(), 0u);
      EXPECT_FALSE(r.read(1).has_value());
      EXPECT_EQ(r.read(0), 0u);
    }
  }
}

TEST(BitCodecProperty, EveryWidthAtEveryAlignment) {
  rfc::support::Xoshiro256 rng(77);
  for (std::uint32_t lead = 0; lead < 8; ++lead) {
    for (std::uint32_t bits = 0; bits <= 64; ++bits) {
      const std::uint64_t prefix = rng.next();
      const std::uint64_t value = rng.next();
      const std::uint64_t suffix = rng.next();
      BitWriter w;
      SerialBitWriter ref;
      ref.write(prefix, lead);
      ref.write(value, bits);
      ref.write(suffix, 13);
      w.write(prefix, lead);
      w.write(value, bits);
      w.write(suffix, 13);
      ASSERT_EQ(w.bytes(), ref.bytes) << "lead " << lead << " bits " << bits;
      ASSERT_EQ(w.bit_count(), ref.bit_count);

      BitReader r(w.bytes().data(), w.bit_count());
      EXPECT_EQ(r.read(lead), low_bits(prefix, lead));
      EXPECT_EQ(r.read(bits), low_bits(value, bits))
          << "lead " << lead << " bits " << bits;
      EXPECT_EQ(r.read(13), low_bits(suffix, 13));
      EXPECT_FALSE(r.read(1).has_value());
    }
  }
}

TEST(BitCodecProperty, ReadsAtEveryOffsetMatchReference) {
  // A reader positioned at any bit offset reads any width the same as the
  // bit-serial reference; a read that would cross the end is refused and
  // leaves the cursor where it was.
  rfc::support::Xoshiro256 rng(5);
  BitWriter w;
  for (int i = 0; i < 6; ++i) w.write(rng.next(), 64);
  w.write(rng.next(), 21);  // 405 bits: the stream ends mid-byte.
  const std::vector<std::uint8_t>& bytes = w.bytes();
  for (std::uint64_t offset = 0; offset <= w.bit_count(); ++offset) {
    for (std::uint32_t bits = 0; bits <= 64; ++bits) {
      BitReader r(bytes.data(), w.bit_count());
      std::uint64_t skipped = offset;
      while (skipped > 0) {
        const auto step =
            static_cast<std::uint32_t>(skipped < 64 ? skipped : 64);
        ASSERT_TRUE(r.read(step).has_value());
        skipped -= step;
      }
      const auto got = r.read(bits);
      if (offset + bits > w.bit_count()) {
        EXPECT_FALSE(got.has_value());
        EXPECT_EQ(r.remaining(), w.bit_count() - offset);
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, serial_read(bytes, offset, bits))
            << "offset " << offset << " bits " << bits;
      }
    }
  }
}

TEST(BitCodecProperty, WidthAbove64IsRejected) {
  BitWriter w;
  w.write(1, 3);
  EXPECT_THROW(w.write(0, 65), std::invalid_argument);
  EXPECT_THROW(w.write(~std::uint64_t{0}, 1000), std::invalid_argument);
  // The failed writes left the stream untouched.
  EXPECT_EQ(w.bit_count(), 3u);
  ASSERT_EQ(w.bytes().size(), 1u);
  EXPECT_EQ(w.bytes()[0], 0b00100000);

  BitReader r(w.bytes(), w.bit_count());
  EXPECT_FALSE(r.read(65).has_value());
  EXPECT_EQ(r.read(3), 1u);
}

TEST(BitWriter, TakeBytesMovesOutAndResets) {
  BitWriter w;
  w.write(0xABC, 12);
  const std::vector<std::uint8_t> bytes = w.take_bytes();
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0xAB, 0xC0}));
  EXPECT_EQ(w.bit_count(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BitWriter, ContinuesAByteAlignedStream) {
  BitWriter w(std::vector<std::uint8_t>{0x12, 0x34});
  EXPECT_EQ(w.bit_count(), 16u);
  w.write(0xA, 4);
  EXPECT_EQ(w.take_bytes(), (std::vector<std::uint8_t>{0x12, 0x34, 0xA0}));
}

TEST(WireIntention, RoundTripsAtExactSize) {
  const auto p = params();
  rfc::support::Xoshiro256 rng(7);
  VoteIntention h(p.q);
  for (VoteEntry& e : h) {
    e.value = rng.below(p.m);
    e.target = static_cast<sim::AgentId>(rng.below(p.n));
  }
  BitWriter w;
  encode_intention(w, p, h);
  // Exactly the size IntentionPayload charges.
  EXPECT_EQ(w.bit_count(),
            static_cast<std::uint64_t>(p.q) *
                (p.value_bits() + p.label_bits()));
  BitReader r(w.bytes(), w.bit_count());
  const auto decoded = decode_intention(r, p);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireVote, RoundTrips) {
  const auto p = params();
  BitWriter w;
  encode_vote(w, p, 123456);
  EXPECT_EQ(w.bit_count(), p.value_bits());
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_EQ(decode_vote(r, p), 123456u);
}

TEST(WireCertificate, RoundTripsAtChargedSizePlusCount) {
  const auto p = params();
  rfc::support::Xoshiro256 rng(8);
  ReceivedVotes votes;
  for (std::uint32_t i = 0; i < 25; ++i) {
    votes.push_back({static_cast<sim::AgentId>(rng.below(p.n)),
                     static_cast<std::uint32_t>(rng.below(p.q)),
                     rng.below(p.m)});
  }
  const Certificate cert = make_certificate(p, 17, 5, votes);

  BitWriter w;
  encode_certificate(w, p, cert);
  EXPECT_EQ(w.bit_count(), encoded_certificate_bits(p, cert));
  EXPECT_EQ(w.bit_count(),
            cert.bit_size(p) + certificate_count_bits(p));

  BitReader r(w.bytes(), w.bit_count());
  const auto decoded = decode_certificate(r, p);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cert);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireCertificate, EmptyVotesRoundTrip) {
  const auto p = params();
  Certificate cert;
  cert.k = 0;
  cert.color = 0;
  cert.owner = 3;
  BitWriter w;
  encode_certificate(w, p, cert);
  BitReader r(w.bytes(), w.bit_count());
  const auto decoded = decode_certificate(r, p);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cert);
}

TEST(WireCertificate, TruncatedStreamFailsCleanly) {
  const auto p = params();
  const Certificate cert = make_certificate(p, 1, 2, {{3, 0, 400}});
  BitWriter w;
  encode_certificate(w, p, cert);
  BitReader r(w.bytes(), w.bit_count() - 5);  // Chop the tail.
  EXPECT_FALSE(decode_certificate(r, p).has_value());
}

TEST(WireCertificate, CountPrefixCoversMaxVotes) {
  // The count field must be able to represent n*q (every vote in the
  // system landing on one agent).
  const auto p = params();
  const std::uint64_t max_count =
      static_cast<std::uint64_t>(p.n) * p.q;
  EXPECT_LT(max_count, 1ull << certificate_count_bits(p));
}

}  // namespace
}  // namespace rfc::core

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
  for (std::uint32_t i = 0; i < 20; ++i) {
    votes.push_back({static_cast<sim::AgentId>(rng.below(p.n)),
                     static_cast<std::uint32_t>(rng.below(p.q)),
                     rng.below(p.m)});
  }
  return core::make_certificate(p, 17, 5, votes);
}

Frame push_of(sim::Payload payload, sim::AgentId agent = 5,
              std::uint64_t round = 12) {
  Frame f;
  f.kind = FrameKind::kPush;
  f.round = round;
  f.agent = agent;
  f.target = 299;
  f.payload = std::move(payload);
  return f;
}

/// Every frame kind; the payload-carrying ones over every payload kind the
/// wire has: empty, inline, heap-boxed and arena-boxed.
std::vector<Frame> every_frame(const core::ProtocolParams& p,
                               rfc::support::Arena& arena) {
  std::vector<Frame> frames;
  for (const FrameKind mark : {FrameKind::kRoundStatus,
                               FrameKind::kActionsDone,
                               FrameKind::kRepliesDone,
                               FrameKind::kResendRequest}) {
    Frame f;
    f.kind = mark;
    f.round = 7;
    f.complete = true;
    f.count = 3;
    frames.push_back(f);
  }
  Frame pull;
  pull.kind = FrameKind::kPullRequest;
  pull.round = 7;
  pull.agent = 3;
  pull.target = 141;
  frames.push_back(pull);
  const std::vector<sim::Payload> payloads = {
      sim::Payload{},
      gossip::make_rumor_payload(0xDEADBEEFu, 64),
      core::make_vote_payload(123456, p),
      core::make_digest_payload(0x0123456789ABCDEFull),
      core::make_intention_payload(sample_intention(p, 1), p),
      core::make_intention_payload_in(&arena, sample_intention(p, 2), p),
      core::make_certificate_payload(sample_certificate(p, 3), p),
      core::make_certificate_payload_in(&arena, sample_certificate(p, 4), p),
      sim::Payload::inline_words(0xF0, 17, 1, 2, 3),
  };
  for (const sim::Payload& payload : payloads) {
    for (const FrameKind kind : {FrameKind::kPullReply, FrameKind::kPush}) {
      Frame f = push_of(payload);
      f.kind = kind;
      frames.push_back(f);
    }
  }
  return frames;
}

void expect_same_frame(const Frame& got, const Frame& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.agent, want.agent);
  EXPECT_EQ(got.target, want.target);
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.payload.tag(), want.payload.tag());
  EXPECT_EQ(got.payload.bit_size(), want.payload.bit_size());
  if (const core::VoteIntention* h = core::intention_in(want.payload)) {
    ASSERT_NE(core::intention_in(got.payload), nullptr);
    EXPECT_EQ(*core::intention_in(got.payload), *h);
  } else if (const core::Certificate* c = core::certificate_in(want.payload)) {
    ASSERT_NE(core::certificate_in(got.payload), nullptr);
    EXPECT_EQ(*core::certificate_in(got.payload), *c);
  } else {
    for (std::size_t i = 0; i < sim::Payload::kInlineWords; ++i) {
      EXPECT_EQ(got.payload.word(i), want.payload.word(i));
    }
  }
}

TEST(PayloadInterner, BytesEqualTheCodecForEveryFrameAndPayloadKind) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  PayloadInterner interner(codec);
  rfc::support::Arena arena;
  const std::vector<Frame> frames = every_frame(p, arena);
  // Twice over: the second pass serves the heap boxes from the cache.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Frame& frame : frames) {
      const std::vector<std::uint8_t> want = codec.encode(frame);
      const std::vector<std::uint8_t> got = interner.encode(frame);
      EXPECT_EQ(got, want) << "pass " << pass << ", " << to_string(frame.kind)
                           << " frame, payload tag " << frame.payload.tag();
      const auto decoded = interner.decode(got.data(), got.size());
      ASSERT_TRUE(decoded.ok()) << core::to_string(decoded.error);
      expect_same_frame(*decoded.value, frame);
    }
  }
  // Each heap box is encoded once and then copied into its 3 other frames;
  // each of the 4 protocol sections is decoded once and then shared with its
  // 3 other arrivals.
  EXPECT_EQ(interner.counters().encode_hits, 2u * 3u);
  EXPECT_EQ(interner.counters().decode_hits, 4u * 3u);
}

TEST(PayloadInterner, BoxSentTwiceIsEncodedOnce) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  PayloadInterner interner(codec);
  const sim::Payload box =
      core::make_certificate_payload(sample_certificate(p, 5), p);
  const Frame first = push_of(box, 5, 12);
  Frame second = push_of(box, 9, 13);
  second.kind = FrameKind::kPullReply;
  EXPECT_EQ(interner.encode(first), codec.encode(first));
  EXPECT_EQ(interner.encode(second), codec.encode(second));
  EXPECT_EQ(interner.counters().encodes, 1u);
  EXPECT_EQ(interner.counters().encode_hits, 1u);
  EXPECT_EQ(interner.encoded_entries(), 1u);
}

TEST(PayloadInterner, EqualSectionsDecodeToOneSharedBox) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  PayloadInterner interner(codec);
  // Two separately built boxes with equal contents, in frames whose headers
  // differ: one decoded box serves both.
  for (const sim::Payload& a :
       {core::make_intention_payload(sample_intention(p, 6), p),
        core::make_certificate_payload(sample_certificate(p, 6), p)}) {
    const sim::Payload b =
        a.tag() == core::kIntentionPayloadTag
            ? core::make_intention_payload(sample_intention(p, 6), p)
            : core::make_certificate_payload(sample_certificate(p, 6), p);
    const std::vector<std::uint8_t> fa = codec.encode(push_of(a, 1, 12));
    const std::vector<std::uint8_t> fb = codec.encode(push_of(b, 2, 13));
    const auto da = interner.decode(fa.data(), fa.size());
    const auto db = interner.decode(fb.data(), fb.size());
    ASSERT_TRUE(da.ok() && db.ok());
    EXPECT_EQ(db.value->agent, 2u);
    EXPECT_EQ(db.value->round, 13u);
    const void* box_a = da.value->payload.boxed_as<void>(a.tag());
    ASSERT_NE(box_a, nullptr);
    EXPECT_EQ(db.value->payload.boxed_as<void>(a.tag()), box_a);
  }
  EXPECT_EQ(interner.counters().decodes, 2u);
  EXPECT_EQ(interner.counters().decode_hits, 2u);
}

TEST(PayloadInterner, EquivocatorsTwoIntentionsDecodeToTwoBoxes) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  PayloadInterner interner(codec);
  // One sender label, one round, two different intentions: the decode key
  // is the payload's bytes, never who sent it.
  const core::VoteIntention h1 = sample_intention(p, 7);
  const core::VoteIntention h2 = sample_intention(p, 8);
  ASSERT_NE(h1, h2);
  const std::vector<std::uint8_t> f1 =
      codec.encode(push_of(core::make_intention_payload(h1, p), 4));
  const std::vector<std::uint8_t> f2 =
      codec.encode(push_of(core::make_intention_payload(h2, p), 4));
  const auto d1 = interner.decode(f1.data(), f1.size());
  const auto d2 = interner.decode(f2.data(), f2.size());
  ASSERT_TRUE(d1.ok() && d2.ok());
  ASSERT_NE(core::intention_in(d1.value->payload), nullptr);
  ASSERT_NE(core::intention_in(d2.value->payload), nullptr);
  EXPECT_EQ(*core::intention_in(d1.value->payload), h1);
  EXPECT_EQ(*core::intention_in(d2.value->payload), h2);
  EXPECT_NE(core::intention_in(d1.value->payload),
            core::intention_in(d2.value->payload));
}

TEST(PayloadInterner, ReallocatedBoxAddressNeverGetsStaleBytes) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  PayloadInterner interner(codec);
  // Each box is dropped right after its frame is sent, so the allocator is
  // free to hand its address to the next box; the cache must still never
  // serve one box's bytes for another.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Frame frame =
        push_of(core::make_intention_payload(sample_intention(p, 100 + i), p));
    ASSERT_EQ(interner.encode(frame), codec.encode(frame)) << "box " << i;
  }
  EXPECT_EQ(interner.counters().encodes, 64u);
  EXPECT_EQ(interner.counters().encode_hits, 0u);
}

TEST(PayloadInterner, MalformedSectionIsRejectedOnEveryArrivalAndNeverCached) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  PayloadInterner interner(codec);
  // An intention voting for label n (out of range), and a certificate cut
  // short in its vote list.
  std::vector<std::uint8_t> bad_label;
  codec.encode_header(push_of({}), bad_label);
  core::BitWriter w(std::move(bad_label));
  w.write(core::kIntentionPayloadTag, 16);
  for (std::uint32_t i = 0; i < p.q; ++i) {
    w.write(1, p.value_bits());
    w.write(p.n, p.label_bits());
  }
  bad_label = w.take_bytes();
  std::vector<std::uint8_t> truncated = codec.encode(
      push_of(core::make_certificate_payload(sample_certificate(p, 9), p)));
  truncated.resize(truncated.size() - 8);

  for (int arrival = 0; arrival < 3; ++arrival) {
    EXPECT_EQ(interner.decode(bad_label.data(), bad_label.size()).error,
              core::WireError::kRangeViolation);
    EXPECT_EQ(interner.decode(truncated.data(), truncated.size()).error,
              core::WireError::kTruncated);
  }
  EXPECT_EQ(interner.counters().decodes, 6u);
  EXPECT_EQ(interner.counters().decode_hits, 0u);
  EXPECT_EQ(interner.decoded_entries(), 0u);
}

TEST(PayloadInterner, DistinctPayloadsNeverGrowAMapPastItsBound) {
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  PayloadInterner interner(codec);
  EXPECT_EQ(interner.capacity(), p.n);
  EXPECT_THROW(PayloadInterner(FrameCodec{0, &p}), std::invalid_argument);
  std::vector<sim::Payload> held;  // Distinct live boxes: distinct addresses.
  for (std::uint64_t i = 0; i < 3 * p.n; ++i) {
    held.push_back(core::make_intention_payload(sample_intention(p, i), p));
    const std::vector<std::uint8_t> bytes = interner.encode(push_of(held.back()));
    ASSERT_TRUE(interner.decode(bytes.data(), bytes.size()).ok());
    ASSERT_LE(interner.encoded_entries(), p.n) << "payload " << i;
    ASSERT_LE(interner.decoded_entries(), p.n) << "payload " << i;
  }
  EXPECT_EQ(interner.counters().encodes, 3u * p.n);
  EXPECT_EQ(interner.counters().decodes, 3u * p.n);
}

TEST(FrameCodec, LinkReferenceIsHeaderOnly) {
  // A pull reply or push whose count has the kRef bit names a link id and
  // carries no section; its payload is not encoded and decodes empty.
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  PayloadInterner interner(codec);
  const sim::Payload box =
      core::make_certificate_payload(sample_certificate(p, 6), p);
  for (const FrameKind kind : {FrameKind::kPullReply, FrameKind::kPush}) {
    Frame reference = push_of(box);
    reference.kind = kind;
    reference.count = kRef | 41;
    EXPECT_FALSE(has_section(kind, reference.count));
    const std::vector<std::uint8_t> bytes = codec.encode(reference);
    EXPECT_EQ(bytes.size(), FrameCodec::kHeaderBytes);
    EXPECT_EQ(interner.encode(reference), bytes);
    for (const auto& decoded : {codec.decode(bytes.data(), bytes.size()),
                                interner.decode(bytes.data(), bytes.size())}) {
      ASSERT_TRUE(decoded.ok()) << core::to_string(decoded.error);
      EXPECT_EQ(decoded.value->count, kRef | 41u);
      EXPECT_TRUE(decoded.value->payload.empty());
    }
    // Section bytes after a reference are a framing slip.
    std::vector<std::uint8_t> trailing = bytes;
    trailing.push_back(0);
    EXPECT_EQ(codec.decode(trailing.data(), trailing.size()).error,
              core::WireError::kBadFrame);
  }
  // A reference touches neither cache.
  EXPECT_EQ(interner.counters(), InternerCounters{});
}

TEST(FrameCodec, DefinitionsAndPlainFramesOweASection) {
  // count = id + 1 defines a link id and, like a plain frame (count = 0),
  // is followed by the payload's section; cut to its header it is
  // truncated.
  const auto p = params();
  const FrameCodec codec{p.n, &p};
  for (const std::uint32_t count : {0u, 1u, 2u * p.n}) {
    Frame frame =
        push_of(core::make_intention_payload(sample_intention(p, 8), p));
    frame.count = count;
    EXPECT_TRUE(has_section(frame.kind, count));
    const std::vector<std::uint8_t> bytes = codec.encode(frame);
    const auto decoded = codec.decode(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << core::to_string(decoded.error);
    expect_same_frame(*decoded.value, frame);
    EXPECT_EQ(codec.decode(bytes.data(), FrameCodec::kHeaderBytes).error,
              core::WireError::kTruncated)
        << "count " << count;
  }
}

}  // namespace
}  // namespace rfc::net
