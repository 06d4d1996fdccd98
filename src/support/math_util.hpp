// Small integer / floating-point helpers shared across the library.
#pragma once

#include <bit>
#include <cstdint>

namespace rfc::support {

// The widths below run on every message the engine accounts (a pull
// request's label, a vote value in [n^3], a certificate's fields), so they
// are one count-leading-zeros instruction, not a loop over the bits.

/// floor(log2(x)) for x >= 1; 0 for x = 0.
constexpr std::uint32_t floor_log2(std::uint64_t x) noexcept {
  return x == 0 ? 0 : static_cast<std::uint32_t>(std::bit_width(x)) - 1;
}

/// ceil(log2(x)) for x >= 1; the number of bits needed to address x values.
constexpr std::uint32_t ceil_log2(std::uint64_t x) noexcept {
  return x <= 1 ? 0 : static_cast<std::uint32_t>(std::bit_width(x - 1));
}

/// Number of bits needed to encode a value drawn from {0, ..., x-1}.
/// At least 1 so that even a unary domain costs one bit on the wire.
constexpr std::uint32_t bit_width_for_domain(std::uint64_t x) noexcept {
  const std::uint32_t b = ceil_log2(x);
  return b == 0 ? 1 : b;
}

/// x^3 without overflow checks beyond the documented domain (x <= 2^21,
/// so x^3 <= 2^63).  The protocol's vote space is m = n^3.
constexpr std::uint64_t cube(std::uint64_t x) noexcept { return x * x * x; }

/// Natural logarithm of n, as the paper's `log n`; callers that need a round
/// count use ceil(gamma * ln n) via `round_count`.
double ln(double x) noexcept;

/// The per-phase round count q = ceil(gamma * ln n), with a floor of 1.
std::uint32_t round_count(double gamma, std::uint64_t n) noexcept;

}  // namespace rfc::support
