// NetworkSpec — message-layer adversaries as *values*.
//
// A NetworkSpec names a built-in network policy plus its parameters, the
// transport-side twin of SchedulerSpec: where a SchedulerSpec decides *when*
// agents wake, a NetworkSpec decides *what the network does to their
// messages* — drop, duplicate, reorder, delay, bounded Byzantine corruption
// of payloads — plus membership churn (agents crashing and rejoining
// mid-run).  Configuration structs store it next to their SchedulerSpec
// (gossip::SpreadConfig, core::RunConfig, ...), so every run entry point and
// every `--network=` flag composes any network policy with any scheduling
// policy.
//
// Grammar (same shape as SchedulerSpec):
//
//   spec      := policy [ ":" param ("," param)* ]
//   param     := key "=" value
//
//   network                                     the reliable network (default;
//                                               all rates zero — bit-identical
//                                               to running with no adversary)
//   network:drop=0.1                            each message lost w.p. 0.1
//   network:dup=0.05                            pushes delivered twice
//   network:reorder=0.2                         pushes deferred to the end of
//                                               the round's delivery phase
//   network:delay=3                             pushes delayed by a uniform
//                                               0..3 rounds
//   network:corrupt=0.01                        payload bits flipped in
//                                               transit (verifiers must catch
//                                               tampered certificates)
//   network:churn=0.001,rejoin=5                each up agent crashes w.p.
//                                               0.001 per round and rejoins
//                                               after 5 rounds (rejoin=0:
//                                               crashed agents never return)
//   network:drop=0.1,corrupt=0.01,seed=7        faults composable; seed
//                                               selects the fault stream
//
// Every fault verdict is a pure hash of (seed, message kind, time, sender,
// target) — no RNG stream is consumed — so a spec is deterministic (same
// seed ⇒ same drops/corruptions), independent of delivery order (rounds
// stay bit-identical at every partition count and block size), and
// inert at zero rates (pinned bit-identical to the engine with no network
// model installed).
//
// `parse(to_string())` is the identity for every spec.  Structural errors
// (empty params, duplicate keys, missing '=') throw at parse(); unknown
// keys and malformed or out-of-range *values* throw at make(), naming the
// offending key — matching SchedulerSpec.
//
// Like SchedulerSpec's, the policy table is built on first use and never
// mutated, so every member is safe to call from concurrent threads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/network.hpp"

namespace rfc::sim {

class NetworkSpec {
 public:
  /// Parameter map; ordered so to_string() is canonical.
  using Params = std::map<std::string, std::string>;

  /// Default-constructed spec is the reliable network (policy "network",
  /// all rates zero) — the inert adversary.
  NetworkSpec();

  /// Parses the grammar above; throws std::invalid_argument on unknown
  /// policies or malformed text.  Parameter *values* are validated later,
  /// by make(), where the policy's schema is known.
  static NetworkSpec parse(const std::string& text);

  /// Canonical text form; parse(to_string()) reproduces *this exactly.
  std::string to_string() const;

  /// Builds the live fault model.  Throws std::invalid_argument on unknown
  /// parameter keys, malformed or out-of-range values (probabilities
  /// outside [0, 1], negative counts), naming the key in the message.
  NetworkModelPtr make() const;

  /// True when make() would produce a model with every rate zero — running
  /// with this spec is bit-identical to running with no network model.
  bool inert() const;

  const std::string& policy() const noexcept { return policy_; }
  const Params& params() const noexcept { return params_; }

  bool operator==(const NetworkSpec& other) const = default;

  // --- Typed parameter access (used by factories; throws on bad text). ---
  bool has_param(const std::string& key) const;
  double param_double(const std::string& key, double def) const;
  std::uint64_t param_uint(const std::string& key, std::uint64_t def) const;

  // --- Named constructors. ---
  /// The reliable network (the default).
  static NetworkSpec none();
  /// Uniform loss: every message dropped w.p. `drop`.
  static NetworkSpec lossy(double drop, std::uint64_t seed = 0);

  /// Policy names, sorted.
  static std::vector<std::string> registered_policies();

  /// `name — summary` lines for every policy (CLI help text).
  static std::string describe_registry();

 private:
  NetworkSpec(std::string policy, Params params);

  std::string policy_;
  Params params_;
};

}  // namespace rfc::sim
