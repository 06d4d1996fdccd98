#include "core/certificate.hpp"

#include "support/rng.hpp"

namespace rfc::core {
namespace {

/// One SplitMix64 finalization round per absorbed word: fast and far below
/// any collision rate observable in simulation.
std::uint64_t absorb(std::uint64_t state, std::uint64_t word) noexcept {
  rfc::support::SplitMix64 mix(state ^ (word * 0x9e3779b97f4a7c15ULL));
  return mix.next();
}

}  // namespace

std::uint64_t Certificate::bit_size(
    const ProtocolParams& params) const noexcept {
  const std::uint64_t per_vote =
      params.label_bits() + params.round_bits() + params.value_bits();
  return params.value_bits()                       // k
         + votes.size() * per_vote                 // W
         + params.color_bits()                     // c
         + params.label_bits();                    // owner label
}

std::uint64_t vote_sum(const ProtocolParams& params,
                       const ReceivedVotes& votes) noexcept {
  const std::uint64_t m = params.m;
  std::uint64_t sum = 0;
  for (const ReceivedVote& v : votes) {
    // Honest values are already in [m], so the division is the rare path.
    // With both terms in [m], one conditional subtract reduces the sum,
    // written as sum - (m - h) so that it cannot overflow for any m.
    const std::uint64_t h = v.value < m ? v.value : v.value % m;
    sum = sum >= m - h ? sum - (m - h) : sum + h;
  }
  return sum;
}

std::uint64_t Certificate::vote_sum(
    const ProtocolParams& params) const noexcept {
  return core::vote_sum(params, votes);
}

std::uint64_t Certificate::digest() const noexcept {
  std::uint64_t h = absorb(0x243f6a8885a308d3ULL, k);
  h = absorb(h, votes.size());
  for (const ReceivedVote& v : votes) {
    h = absorb(h, (static_cast<std::uint64_t>(v.voter) << 32) |
                      v.round_index);
    h = absorb(h, v.value);
  }
  h = absorb(h, static_cast<std::uint64_t>(color));
  h = absorb(h, owner);
  return h;
}

Certificate make_certificate(const ProtocolParams& params, sim::AgentId owner,
                             Color color, ReceivedVotes votes) {
  Certificate ce;
  ce.votes = std::move(votes);
  ce.color = color;
  ce.owner = owner;
  ce.k = ce.vote_sum(params);
  return ce;
}

}  // namespace rfc::core
