// Per-round execution tracing.
//
// A TraceRecorder attaches to the engine's round observer and snapshots the
// metric deltas of every round, giving tests and debugging tools a
// round-by-round view of the communication pattern (e.g. "pushes occur only
// during Voting and Coherence") without touching the agents.  It keeps
// every round — O(rounds) memory, fine for protocol runs whose round count
// is polylogarithmic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics.hpp"

namespace rfc::sim {

struct RoundTrace {
  std::uint64_t round = 0;
  std::uint64_t pushes = 0;
  std::uint64_t pull_requests = 0;
  std::uint64_t pull_replies = 0;
  std::uint64_t bits = 0;
  std::uint64_t active_links = 0;
};

class TraceRecorder {
 public:
  /// Installs this recorder as the engine's round observer.  The recorder
  /// must outlive the engine's run.
  void attach(Engine& engine);

  /// Every observed round, oldest first.
  const std::vector<RoundTrace>& rounds() const noexcept { return rounds_; }

  /// Sum of a field over a half-open round interval [begin, end).
  std::uint64_t total_pushes(std::uint64_t begin, std::uint64_t end) const;
  std::uint64_t total_pulls(std::uint64_t begin, std::uint64_t end) const;
  std::uint64_t total_bits(std::uint64_t begin, std::uint64_t end) const;

  /// One line per round: "r12: push=0 pull=64 bits=12345".
  std::string render() const;

 private:
  Metrics last_;
  std::vector<RoundTrace> rounds_;
};

}  // namespace rfc::sim
