// Naive GOSSIP leader election: the verification-free strawman.
//
// Each agent draws a key u.a.r. in [m] (or uses its label, for the
// deterministic min-ID variant), the network pull-broadcasts the minimal
// (key, owner, color) tuple for q rounds, and everyone adopts the minimal
// tuple's color.  With honest agents this is fair and fast — but nothing
// binds an agent to its key, so a single rational agent claiming key 0 wins
// with certainty.  Experiment E8 measures exactly that, motivating the
// Commitment / Coherence / Verification machinery of Protocol P.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sim/agent.hpp"
#include "sim/budget.hpp"
#include "sim/fault_model.hpp"
#include "sim/metrics.hpp"
#include "sim/network_spec.hpp"
#include "sim/scheduler_spec.hpp"

namespace rfc::baseline {

enum class NaiveKeyMode : std::uint8_t {
  kRandom,  ///< Key u.a.r. in [m]: fair among honest agents.
  kMinId,   ///< Key = own label: deterministic and blatantly unfair.
};

std::string to_string(NaiveKeyMode mode);

class NaiveElectionAgent final : public sim::Agent {
 public:
  struct Tuple {
    std::uint64_t key = 0;
    sim::AgentId owner = sim::kNoAgent;
    core::Color color = core::kNoColor;
    bool less_than(const Tuple& other) const noexcept {
      if (key != other.key) return key < other.key;
      return owner < other.owner;
    }
  };

  /// `cheat` pins the key to 0 — the one-line attack this baseline admits.
  NaiveElectionAgent(NaiveKeyMode mode, std::uint64_t m, std::uint32_t q,
                     core::Color color, bool cheat) noexcept
      : mode_(mode), m_(m), q_(q), rounds_left_(q), color_(color),
        cheat_(cheat) {}

  core::Color decision() const noexcept { return best_.color; }
  const Tuple& best() const noexcept { return best_; }

  void on_start(const sim::Context& ctx) override;
  sim::Action on_round(const sim::Context& ctx) override;
  sim::Payload serve_pull(const sim::Context& ctx,
                          sim::AgentId requester) override;
  void on_pull_reply(const sim::Context& ctx, sim::AgentId target,
                     const sim::Payload& reply) override;
  bool done() const override { return rounds_left_ == 0; }

  /// One-stage pipeline: the fraction of the q-pull budget spent.
  double progress() const noexcept override {
    return q_ == 0 ? 1.0
                   : static_cast<double>(q_ - rounds_left_) /
                         static_cast<double>(q_);
  }

 private:
  NaiveKeyMode mode_;
  std::uint64_t m_;
  std::uint32_t q_;
  std::uint32_t rounds_left_;
  core::Color color_;
  bool cheat_;
  Tuple best_;
};

struct NaiveElectionConfig {
  std::uint32_t n = 0;
  double gamma = 4.0;
  std::uint64_t seed = 1;
  NaiveKeyMode mode = NaiveKeyMode::kRandom;
  std::vector<core::Color> colors;   ///< Empty = leader election.
  std::uint32_t cheaters = 0;        ///< First labels claim key 0.
  std::uint32_t num_faulty = 0;
  sim::FaultPlacement placement = sim::FaultPlacement::kNone;
  /// Activation policy; the default is the paper's synchronous model.
  /// Under activation-based policies agents spend their q pull budget
  /// whenever they wake, finish at different (random) times, and early
  /// finishers can freeze on a stale minimum — agreement is no longer
  /// w.h.p. at the synchronous budget (experiment E12b).
  sim::SchedulerSpec scheduler;
  /// Message-layer adversary & churn (sim/network_spec.hpp); the default is
  /// the reliable network.
  sim::NetworkSpec network;
  /// Scales the per-agent pull budget q, to explore how much extra work
  /// buys agreement back under asynchronous schedules.
  double budget_multiplier = 1.0;
  /// Optional run budget override (events and/or a virtual-time horizon).
  /// Unset fields fall back to the q-derived default event cap.
  sim::Budget budget;
};

struct NaiveElectionResult {
  bool agreement = false;            ///< All active agents adopted one tuple.
  core::Color winner = core::kNoColor;
  sim::AgentId leader = sim::kNoAgent;
  std::uint64_t rounds = 0;          ///< Scheduling events elapsed.
  sim::Metrics metrics;
};

NaiveElectionResult run_naive_election(const NaiveElectionConfig& cfg);

}  // namespace rfc::baseline
