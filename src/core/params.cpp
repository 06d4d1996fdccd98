#include "core/params.hpp"

#include <stdexcept>

#include "support/math_util.hpp"

namespace rfc::core {

ProtocolParams ProtocolParams::make(std::uint32_t n, double gamma,
                                    bool strict_verification) {
  if (n == 0) throw std::invalid_argument("ProtocolParams: n must be > 0");
  if (n > (1u << 21)) {
    throw std::invalid_argument(
        "ProtocolParams: n must be <= 2^21 so m = n^3 fits in 63 bits");
  }
  if (gamma <= 0.0) {
    throw std::invalid_argument("ProtocolParams: gamma must be positive");
  }
  ProtocolParams p;
  p.n = n;
  p.gamma = gamma;
  p.q = rfc::support::round_count(gamma, n);
  p.m = rfc::support::cube(static_cast<std::uint64_t>(n));
  p.strict_verification = strict_verification;
  return p;
}

Phase ProtocolParams::phase_of_round(std::uint64_t round) const noexcept {
  if (round < voting_begin()) return Phase::kCommitment;
  if (round < find_min_begin()) return Phase::kVoting;
  if (round < coherence_begin()) return Phase::kFindMin;
  if (round < communication_rounds()) return Phase::kCoherence;
  return Phase::kFinished;
}

std::uint32_t ProtocolParams::round_in_phase(
    std::uint64_t round) const noexcept {
  // Inside the schedule the phase index is at most 3, so a compare and a
  // multiply replace the 64-bit division; rounds past it keep the modulus.
  if (round < communication_rounds()) {
    const auto phase = static_cast<std::uint64_t>(phase_of_round(round));
    return static_cast<std::uint32_t>(round - phase * q);
  }
  return static_cast<std::uint32_t>(round % q);
}

std::uint32_t ProtocolParams::label_bits() const noexcept {
  return rfc::support::bit_width_for_domain(n);
}

std::uint32_t ProtocolParams::value_bits() const noexcept {
  return rfc::support::bit_width_for_domain(m);
}

std::uint32_t ProtocolParams::round_bits() const noexcept {
  return rfc::support::bit_width_for_domain(q);
}

std::uint32_t ProtocolParams::color_bits() const noexcept {
  // Σ has at most n distinct colors in every scenario we model (leader
  // election uses Σ = [n], the largest case).
  return rfc::support::bit_width_for_domain(n);
}

}  // namespace rfc::core
