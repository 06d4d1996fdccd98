// SchedulerSpec — activation policies as *values*.
//
// A SchedulerSpec names a built-in scheduling policy plus its parameters,
// and is what configuration structs store (gossip::SpreadConfig,
// core::RunConfig, baseline election configs, ...): copyable, comparable,
// and round-trippable through a string grammar, so one `--scheduler=` flag
// can select any policy for any protocol or experiment.
//
// Grammar:
//
//   spec      := policy [ ":" param ("," param)* ]
//   param     := key "=" value
//   value     := any text without "," (agent lists use "+", e.g. 0+3+7)
//
//   synchronous                                 the paper's lock-step rounds
//   sequential                                  one u.a.r. wake per step
//                                               over the initial pool (a
//                                               finished agent's draw is a
//                                               wasted step)
//   partial-async:p=0.25                        Bernoulli(p) wake subsets
//   batched:block=8                             contiguous blocks in rotation
//   batched:block=8,shards=4,threads=4          ... with sharded sub-rounds
//   adversarial:victim_fraction=0.25            seeded starvation orderings
//   adversarial:victims=0+3+7,stream=44528      explicit victim set
//   adversarial:phase=vote,budget=1500          adaptive: starve victims
//                                               only in their voting window,
//                                               spending <= 1500 denials
//   adversarial:target=min-cert,budget=200      reactive: re-plan the victim
//                                               set every step — starve the
//                                               weakest progress holder
//                                               (also: laggard, quorum-edge)
//   poisson                                     rate-1 Poisson clocks
//   poisson:rate=2                              rate-λ Poisson clocks
//                                               (Gillespie sampler; rate is
//                                               the policy's only key)
//
// `parse(to_string())` is the identity for every spec, and `make()` builds
// the live sim::Scheduler.  Unknown policies, unknown keys, and malformed
// values all throw std::invalid_argument with the offending text.
//
// The policies live in a fixed table, built on first use and never
// mutated, so parse()/make()/steps_per_round() are safe to call from any
// number of threads at once (analysis::run_trials workers do).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace rfc::sim {

class SchedulerSpec {
 public:
  /// Parameter map; ordered so to_string() is canonical.
  using Params = std::map<std::string, std::string>;

  /// Default-constructed spec is the paper's model (synchronous).
  SchedulerSpec();

  /// Parses the grammar above; throws std::invalid_argument on unknown
  /// policies or malformed text.  Parameter *values* are validated later,
  /// by make(), where the policy's schema is known.
  static SchedulerSpec parse(const std::string& text);

  /// Canonical text form; parse(to_string()) reproduces *this exactly.
  std::string to_string() const;

  /// Builds the live scheduler.  Throws std::invalid_argument on unknown
  /// parameter keys, malformed or out-of-range values.
  SchedulerPtr make() const;

  const std::string& policy() const noexcept { return policy_; }
  const Params& params() const noexcept { return params_; }

  /// Expected scheduling events per "round" of per-agent progress — the
  /// exchange rate between the policy's discrete time axis and the
  /// synchronous model's: 1 for round-based policies, ~n for
  /// activation-based ones (sequential, adversarial, poisson), ⌈1/p⌉ for
  /// partial-async.  Callers use it to scale step budgets across policies.
  std::uint64_t steps_per_round(std::uint32_t n) const;

  /// True when one event wakes a single agent (sequential, adversarial,
  /// poisson) rather than running an O(n) phased round.  Drivers key
  /// completion-check amortization off this: an O(n) scan per O(1) event
  /// is worth amortizing, per O(n) round it is not.
  bool activation_based() const;

  bool operator==(const SchedulerSpec& other) const = default;

  // --- Typed parameter access (used by factories; throws on bad text). ---
  bool has_param(const std::string& key) const;
  double param_double(const std::string& key, double def) const;
  std::uint64_t param_uint(const std::string& key, std::uint64_t def) const;
  /// "+"-separated agent labels, e.g. "0+3+7"; empty when absent.
  std::vector<AgentId> param_agent_list(const std::string& key) const;

  // --- Named constructors for the shipped policies. ---
  static SchedulerSpec synchronous();
  /// Sharded synchronous rounds (sim/sharding.hpp): shards=1 collapses to
  /// the plain spec, so one call site covers serial and parallel runs.
  static SchedulerSpec synchronous(const ShardingConfig& sharding);
  static SchedulerSpec sequential();
  static SchedulerSpec partial_async(double wake_probability);
  /// Batched delivery: `blocks` contiguous label blocks wake in rotation,
  /// one per sub-step; shards=/threads= parallelize each masked sub-round.
  static SchedulerSpec batched(std::uint32_t blocks,
                               const ShardingConfig& sharding = {});
  static SchedulerSpec adversarial(const AdversarialConfig& cfg);
  static SchedulerSpec poisson(double rate = 1.0);

  /// Policy names, sorted.
  static std::vector<std::string> registered_policies();

  /// `name — summary` lines for every policy (CLI help text).
  static std::string describe_registry();

 private:
  SchedulerSpec(std::string policy, Params params);

  std::string policy_;
  Params params_;
};

/// Shortest decimal form of `value` that strtod's back exactly; keeps
/// to_string() canonical and human-readable ("0.25", not "0.250000").
std::string format_param_double(double value);

}  // namespace rfc::sim
