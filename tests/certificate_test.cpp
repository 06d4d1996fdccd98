#include "core/certificate.hpp"

#include <gtest/gtest.h>

#include "core/payloads.hpp"
#include "sim/network.hpp"
#include "support/rng.hpp"

namespace rfc::core {
namespace {

ProtocolParams params() { return ProtocolParams::make(256, 2.0); }

TEST(Certificate, VoteSumIsModular) {
  const auto p = params();
  Certificate ce;
  ce.votes = {{1, 0, p.m - 1}, {2, 0, 2}};
  EXPECT_EQ(ce.vote_sum(p), 1u);  // (m-1) + 2 mod m.
}

TEST(Certificate, VoteSumEmptyIsZero) {
  Certificate ce;
  EXPECT_EQ(ce.vote_sum(params()), 0u);
}

TEST(Certificate, VoteSumReducesOversizedValues) {
  const auto p = params();
  Certificate ce;
  ce.votes = {{1, 0, p.m + 5}};  // Malformed value still sums mod m.
  EXPECT_EQ(ce.vote_sum(p), 5u);
}

TEST(Certificate, VoteSumMatchesTheDivisionFormula) {
  // Property test of the one-division-per-malformed-vote sum against the
  // two-divisions-per-vote formula it replaced, up to m = 2^63 (n = 2^21)
  // and with values at and above m.
  const auto old_sum = [](const ProtocolParams& p, const ReceivedVotes& w) {
    std::uint64_t sum = 0;
    for (const ReceivedVote& v : w) sum = (sum + v.value % p.m) % p.m;
    return sum;
  };
  rfc::support::Xoshiro256 rng(7);
  for (const std::uint32_t n : {2u, 3u, 256u, 2048u, 1u << 20, 1u << 21}) {
    const ProtocolParams p = ProtocolParams::make(n);
    for (int trial = 0; trial < 200; ++trial) {
      ReceivedVotes votes(rng.below(40));
      for (ReceivedVote& v : votes) {
        switch (rng.below(4)) {
          case 0: v.value = rng.below(p.m); break;      // Honest.
          case 1: v.value = p.m - 1 - rng.below(4); break;  // Near m.
          case 2: v.value = p.m + rng.below(p.m); break;    // In [m, 2m).
          default: v.value = rng.next(); break;             // Any word.
        }
      }
      ASSERT_EQ(vote_sum(p, votes), old_sum(p, votes)) << "n=" << n;
      Certificate ce;
      ce.votes = votes;
      ASSERT_EQ(ce.vote_sum(p), old_sum(p, votes));
    }
  }
  const ProtocolParams top = ProtocolParams::make(1u << 21);
  ASSERT_EQ(top.m, std::uint64_t{1} << 63);
  const ReceivedVotes edge = {
      {1, 0, top.m - 1}, {2, 0, top.m - 1}, {3, 0, ~std::uint64_t{0}}};
  EXPECT_EQ(vote_sum(top, edge), old_sum(top, edge));
}

TEST(Certificate, MakeCertificateComputesKey) {
  const auto p = params();
  ReceivedVotes votes = {{3, 1, 100}, {4, 2, 250}};
  const Certificate ce = make_certificate(p, 7, 2, votes);
  EXPECT_EQ(ce.k, 350u);
  EXPECT_EQ(ce.owner, 7u);
  EXPECT_EQ(ce.color, 2);
  EXPECT_EQ(ce.votes.size(), 2u);
}

TEST(Certificate, LessThanOrdersByKey) {
  Certificate a, b;
  a.k = 5;
  a.owner = 9;
  b.k = 6;
  b.owner = 1;
  EXPECT_TRUE(a.less_than(b));
  EXPECT_FALSE(b.less_than(a));
}

TEST(Certificate, LessThanTieBreaksByOwner) {
  Certificate a, b;
  a.k = b.k = 5;
  a.owner = 1;
  b.owner = 2;
  EXPECT_TRUE(a.less_than(b));
  EXPECT_FALSE(b.less_than(a));
  EXPECT_FALSE(a.less_than(a));  // Irreflexive.
}

TEST(Certificate, EqualityIsStructural) {
  const auto p = params();
  const Certificate a = make_certificate(p, 1, 0, {{2, 0, 10}});
  Certificate b = a;
  EXPECT_EQ(a, b);
  b.votes[0].value = 11;
  EXPECT_FALSE(a == b);
}

TEST(Certificate, BitSizeFormula) {
  const auto p = params();
  Certificate ce = make_certificate(p, 1, 0, {{2, 0, 10}, {3, 1, 20}});
  const std::uint64_t per_vote =
      p.label_bits() + p.round_bits() + p.value_bits();
  EXPECT_EQ(ce.bit_size(p),
            p.value_bits() + 2 * per_vote + p.color_bits() + p.label_bits());
}

TEST(Certificate, BitSizeGrowsWithVotes) {
  const auto p = params();
  Certificate small = make_certificate(p, 1, 0, {});
  ReceivedVotes many;
  for (std::uint32_t i = 0; i < 40; ++i) many.push_back({i, 0, i});
  Certificate large = make_certificate(p, 1, 0, many);
  EXPECT_GT(large.bit_size(p), small.bit_size(p));
}

TEST(CertificatePayload, ReportsCertificateSize) {
  const auto p = params();
  const Certificate ce = make_certificate(p, 1, 0, {{2, 0, 10}});
  const sim::Payload payload = make_certificate_payload(ce, p);
  EXPECT_EQ(payload.bit_size(), ce.bit_size(p));
  ASSERT_NE(certificate_in(payload), nullptr);
  EXPECT_EQ(*certificate_in(payload), ce);
}

TEST(IntentionPayload, SizeIsPerEntry) {
  const auto p = params();
  VoteIntention h(p.q, {1, 2});
  const sim::Payload payload = make_intention_payload(h, p);
  EXPECT_EQ(payload.bit_size(),
            static_cast<std::uint64_t>(p.q) *
                (p.value_bits() + p.label_bits()));
  ASSERT_NE(intention_in(payload), nullptr);
  EXPECT_EQ(intention_in(payload)->size(), p.q);
}

TEST(IntentionPayload, BoxCarriesItsVerdictAndParams) {
  const auto p = params();
  const sim::Payload honest = make_intention_payload(VoteIntention(p.q, {1, 2}), p);
  ASSERT_NE(intention_box_in(honest), nullptr);
  EXPECT_TRUE(intention_box_in(honest)->well_formed);
  EXPECT_TRUE(intention_box_in(honest)->stamped_for(p));
  EXPECT_FALSE(intention_box_in(honest)->stamped_for(ProtocolParams::make(512)));

  const sim::Payload short_h =
      make_intention_payload(VoteIntention(p.q - 1, {1, 2}), p);
  EXPECT_FALSE(intention_box_in(short_h)->well_formed);

  // The network adversary's tampering re-audits: flipping bit 63 of entry 0
  // (salt 63) pushes that value out of [m].
  const sim::Payload tampered = sim::corrupt_payload(honest, 63);
  ASSERT_NE(intention_box_in(tampered), nullptr);
  EXPECT_GE(intention_in(tampered)->front().value, p.m);
  EXPECT_FALSE(intention_box_in(tampered)->well_formed);
  EXPECT_TRUE(intention_box_in(tampered)->stamped_for(p));
}

TEST(VotePayload, SizeIsValueWidth) {
  const auto p = params();
  const sim::Payload payload = make_vote_payload(123, p);
  EXPECT_EQ(payload.bit_size(), p.value_bits());
  ASSERT_TRUE(is_vote(payload));
  EXPECT_EQ(vote_value_in(payload), 123u);
}

TEST(Payload, TagMismatchYieldsNull) {
  const auto p = params();
  // A boxed accessor refuses payloads of any other kind — the typed-access
  // contract that replaced dynamic_cast.
  const sim::Payload vote = make_vote_payload(1, p);
  EXPECT_EQ(certificate_in(vote), nullptr);
  EXPECT_EQ(intention_in(vote), nullptr);
  const sim::Payload cert =
      make_certificate_payload(make_certificate(p, 1, 0, {}), p);
  EXPECT_EQ(intention_in(cert), nullptr);
  EXPECT_FALSE(is_vote(cert));
  EXPECT_EQ(sim::Payload{}.bit_size(), 0u);
  EXPECT_TRUE(sim::Payload{}.empty());
}

}  // namespace
}  // namespace rfc::core
