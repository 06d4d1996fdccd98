// Pull-based minimum aggregation: every agent repeatedly pulls a random
// peer's current minimum and keeps the smaller value.  This is exactly the
// communication skeleton of Protocol P's Find-Min phase (with certificates
// in place of raw values), packaged standalone so it can be unit-tested and
// benchmarked in isolation.
//
// Snapshot semantics: `value_` is only mutated in on_pull_reply, which the
// engine delivers after all serve_pull calls of a round, so serve_pull
// naturally answers from round-start state.
#pragma once

#include <cstdint>

#include "sim/agent.hpp"
#include "sim/fault_model.hpp"
#include "sim/metrics.hpp"

namespace rfc::gossip {

class MinAggregationAgent final : public sim::Agent {
 public:
  MinAggregationAgent(std::uint64_t initial_value, std::uint64_t value_bits,
                      std::uint64_t rounds_budget) noexcept
      : value_(initial_value), value_bits_(value_bits),
        budget_(rounds_budget), rounds_left_(rounds_budget) {}

  std::uint64_t value() const noexcept { return value_; }

  sim::Action on_round(const sim::Context& ctx) override;
  sim::Payload serve_pull(const sim::Context& ctx,
                          sim::AgentId requester) override;
  void on_pull_reply(const sim::Context& ctx, sim::AgentId target,
                     const sim::Payload& reply) override;
  bool done() const override { return rounds_left_ == 0; }

  /// One-stage pipeline: the fraction of the pull budget spent.
  double progress() const noexcept override {
    return budget_ == 0 ? 1.0
                        : static_cast<double>(budget_ - rounds_left_) /
                              static_cast<double>(budget_);
  }

 private:
  std::uint64_t value_;
  std::uint64_t value_bits_;
  std::uint64_t budget_;
  std::uint64_t rounds_left_;
};

struct MinAggConfig {
  std::uint32_t n = 0;
  std::uint64_t seed = 1;
  std::uint64_t rounds = 0;          ///< Fixed budget, e.g. ceil(γ ln n).
  std::uint32_t num_faulty = 0;
  sim::FaultPlacement placement = sim::FaultPlacement::kNone;
  std::uint64_t value_bits = 64;
};

struct MinAggResult {
  bool converged = false;       ///< All active agents hold the global min.
  std::uint64_t global_min = 0; ///< Minimum over active agents' inputs.
  sim::Metrics metrics;
};

/// Runs min-aggregation with values drawn u.a.r. from [0, 2^63) and reports
/// whether the round budget sufficed for global convergence.
MinAggResult run_min_aggregation(const MinAggConfig& cfg);

}  // namespace rfc::gossip
