#include "core/wire.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/math_util.hpp"

namespace rfc::core {

const char* to_string(WireError error) noexcept {
  switch (error) {
    case WireError::kNone: return "ok";
    case WireError::kTruncated: return "truncated";
    case WireError::kCountOverflow: return "count-overflow";
    case WireError::kRangeViolation: return "range-violation";
    case WireError::kBadFrame: return "bad-frame";
    case WireError::kUnsupportedTag: return "unsupported-tag";
  }
  return "unknown";
}

void BitWriter::throw_width(std::uint32_t bits) {
  throw std::invalid_argument("BitWriter::write: width " +
                              std::to_string(bits) + " exceeds 64 bits");
}

void encode_intention(BitWriter& w, const ProtocolParams& params,
                      const VoteIntention& intention) {
  const std::uint32_t value_bits = params.value_bits();
  const std::uint32_t label_bits = params.label_bits();
  for (const VoteEntry& e : intention) {
    w.write(e.value, value_bits);
    w.write(e.target, label_bits);
  }
}

WireResult<VoteIntention> decode_intention_checked(
    BitReader& r, const ProtocolParams& params) {
  VoteIntention intention(params.q);
  const std::uint32_t value_bits = params.value_bits();
  const std::uint32_t label_bits = params.label_bits();
  for (VoteEntry& e : intention) {
    const auto value = r.read(value_bits);
    const auto target = r.read(label_bits);
    if (!value || !target) {
      return WireResult<VoteIntention>::failure(WireError::kTruncated);
    }
    if (*target >= params.n) {
      return WireResult<VoteIntention>::failure(WireError::kRangeViolation);
    }
    e.value = *value;
    e.target = static_cast<sim::AgentId>(*target);
  }
  return WireResult<VoteIntention>::success(std::move(intention));
}

void encode_vote(BitWriter& w, const ProtocolParams& params,
                 std::uint64_t value) {
  w.write(value, params.value_bits());
}

std::optional<std::uint64_t> decode_vote(BitReader& r,
                                         const ProtocolParams& params) {
  return r.read(params.value_bits());
}

std::uint32_t certificate_count_bits(const ProtocolParams& params) noexcept {
  return rfc::support::bit_width_for_domain(
      static_cast<std::uint64_t>(params.n) * params.q + 1);
}

void encode_certificate(BitWriter& w, const ProtocolParams& params,
                        const Certificate& certificate) {
  const std::uint32_t label_bits = params.label_bits();
  const std::uint32_t round_bits = params.round_bits();
  const std::uint32_t value_bits = params.value_bits();
  w.write(certificate.k, value_bits);
  w.write(certificate.votes.size(), certificate_count_bits(params));
  for (const ReceivedVote& v : certificate.votes) {
    w.write(v.voter, label_bits);
    w.write(v.round_index, round_bits);
    w.write(v.value, value_bits);
  }
  w.write(static_cast<std::uint64_t>(certificate.color), params.color_bits());
  w.write(certificate.owner, params.label_bits());
}

WireResult<Certificate> decode_certificate_checked(
    BitReader& r, const ProtocolParams& params) {
  using R = WireResult<Certificate>;
  Certificate c;
  const auto k = r.read(params.value_bits());
  const auto count = r.read(certificate_count_bits(params));
  if (!k || !count) return R::failure(WireError::kTruncated);
  // The count prefix's domain bound: at most every vote in the system
  // (n*q) can land on one agent.  Checking it *before* the reserve is what
  // turns a hostile count into a clean rejection instead of a gigabyte
  // allocation — and an overlong count always either violates this bound or
  // runs the stream dry below, so overlong buffers cannot smuggle votes in.
  if (*count > static_cast<std::uint64_t>(params.n) * params.q) {
    return R::failure(WireError::kCountOverflow);
  }
  c.k = *k;
  const std::uint32_t label_bits = params.label_bits();
  const std::uint32_t round_bits = params.round_bits();
  const std::uint32_t value_bits = params.value_bits();
  // A count within n*q can still claim far more votes than the stream
  // holds (n*q votes is ~900 MiB at n = 2^20): reserve only what the
  // remaining bits can carry, and let a short stream fail as kTruncated.
  const std::uint64_t vote_bits =
      std::uint64_t{label_bits} + round_bits + value_bits;
  c.votes.reserve(static_cast<std::size_t>(
      std::min(*count, r.remaining() / std::max<std::uint64_t>(vote_bits, 1))));
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto voter = r.read(label_bits);
    const auto round = r.read(round_bits);
    const auto value = r.read(value_bits);
    if (!voter || !round || !value) return R::failure(WireError::kTruncated);
    if (*voter >= params.n) return R::failure(WireError::kRangeViolation);
    if (*round >= params.q) return R::failure(WireError::kRangeViolation);
    c.votes.push_back({static_cast<sim::AgentId>(*voter),
                       static_cast<std::uint32_t>(*round), *value});
  }
  const auto color = r.read(params.color_bits());
  const auto owner = r.read(params.label_bits());
  if (!color || !owner) return R::failure(WireError::kTruncated);
  if (*owner >= params.n) return R::failure(WireError::kRangeViolation);
  c.color = static_cast<Color>(*color);
  c.owner = static_cast<sim::AgentId>(*owner);
  return R::success(std::move(c));
}

std::uint64_t encoded_certificate_bits(const ProtocolParams& params,
                                       const Certificate& c) noexcept {
  return c.bit_size(params) + certificate_count_bits(params);
}

}  // namespace rfc::core
