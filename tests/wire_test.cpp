// Bit-exact serialization: every payload round-trips in exactly the number
// of bits the accounting model charges.
#include "core/wire.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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
