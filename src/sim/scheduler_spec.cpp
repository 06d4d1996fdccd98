#include "sim/scheduler_spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "support/parse.hpp"

namespace rfc::sim {

namespace {

/// One table entry: how to build the policy and how its discrete time axis
/// relates to synchronous rounds.
struct Policy {
  SchedulerPtr (*factory)(const SchedulerSpec&);
  std::uint64_t (*steps_per_round)(std::uint32_t n, const SchedulerSpec&);
  std::vector<std::string> keys;  ///< Accepted parameter names.
  std::string summary;            ///< One-liner for --help style listings.
  bool activation_based = false;  ///< One event = one wake-up, not a round.
};

using Registry = std::map<std::string, Policy>;

std::uint64_t activation_steps(std::uint32_t n, const SchedulerSpec&) {
  return std::max<std::uint32_t>(n, 1);
}

std::uint64_t round_steps(std::uint32_t, const SchedulerSpec&) { return 1; }

/// Shared shards=/threads= parameters of the round-based policies.
ShardingConfig sharding_from(const SchedulerSpec& spec) {
  ShardingConfig cfg;
  const std::uint64_t shards = spec.param_uint("shards", 1);
  if (shards == 0 || shards > 0xFFFFFFFFull) {
    throw std::invalid_argument("SchedulerSpec: " + spec.policy() +
                                ":shards must be a positive 32-bit count");
  }
  cfg.shards = static_cast<std::uint32_t>(shards);
  const std::uint64_t threads = spec.param_uint("threads", 0);
  if (threads > 0xFFFFFFFFull) {
    throw std::invalid_argument("SchedulerSpec: " + spec.policy() +
                                ":threads must be a 32-bit count");
  }
  cfg.threads = static_cast<std::uint32_t>(threads);
  return cfg;
}

Registry make_builtin_registry() {
  Registry reg;
  reg["synchronous"] = {
      [](const SchedulerSpec& spec) {
        return make_synchronous_scheduler(sharding_from(spec));
      },
      round_steps,
      {"shards", "threads"},
      "the paper's lock-step rounds (default; shards=S,threads=T to "
      "parallelize the round, bit-identical for any S/T)"};
  reg["sequential"] = {
      [](const SchedulerSpec&) { return make_sequential_scheduler(); },
      activation_steps,
      {},
      "one u.a.r. active agent wakes per step, drawn over the initial pool "
      "forever (a finished agent's draw is a wasted step)",
      /*activation_based=*/true};
  reg["partial-async"] = {
      [](const SchedulerSpec& spec) {
        return make_partial_async_scheduler(spec.param_double("p", 0.5),
                                            sharding_from(spec));
      },
      [](std::uint32_t n, const SchedulerSpec& spec) -> std::uint64_t {
        const double p = spec.param_double("p", 0.5);
        if (p >= 1.0) return 1;
        if (p <= 0.0) return std::max<std::uint32_t>(n, 1);
        return static_cast<std::uint64_t>(std::ceil(1.0 / p));
      },
      {"p", "shards", "threads"},
      "each round wakes an independent Bernoulli(p) subset (p=0.5)"};
  reg["batched"] = {
      [](const SchedulerSpec& spec) {
        BatchedDeliveryConfig cfg;
        const std::uint64_t blocks = spec.param_uint("block", 2);
        if (blocks == 0 || blocks > 0xFFFFFFFFull) {
          throw std::invalid_argument(
              "SchedulerSpec: batched:block must be a positive 32-bit "
              "count");
        }
        cfg.blocks = static_cast<std::uint32_t>(blocks);
        cfg.sharding = sharding_from(spec);
        return make_batched_delivery_scheduler(cfg);
      },
      [](std::uint32_t n, const SchedulerSpec& spec) -> std::uint64_t {
        // One full rotation (a round of per-agent progress) is B sub-steps.
        const std::uint64_t blocks = spec.param_uint("block", 2);
        const std::uint64_t cap = std::max<std::uint32_t>(n, 1);
        return std::max<std::uint64_t>(1, std::min(blocks, cap));
      },
      {"block", "shards", "threads"},
      "wakes contiguous label blocks (racks/shards) in rotation, one "
      "masked sub-round per sub-step (block=2; shards=S,threads=T "
      "parallelize the sub-round)"};
  reg["adversarial"] = {
      [](const SchedulerSpec& spec) {
        AdversarialConfig cfg;
        cfg.victim_fraction = spec.param_double("victim_fraction", 0.25);
        cfg.stream = spec.param_uint("stream", cfg.stream);
        cfg.victim_ids = spec.param_agent_list("victims");
        cfg.budget = spec.param_uint("budget", 0);
        if (spec.has_param("phase")) {
          cfg.target_phase =
              parse_agent_phase(spec.params().at("phase"));
        }
        if (spec.has_param("target")) {
          cfg.target = parse_reactive_target(spec.params().at("target"));
          if (!cfg.victim_ids.empty()) {
            throw std::invalid_argument(
                "SchedulerSpec: adversarial:target= selects victims from "
                "observations; drop victims=");
          }
        }
        return make_adversarial_scheduler(std::move(cfg));
      },
      activation_steps,
      {"victim_fraction", "stream", "victims", "phase", "budget", "target"},
      "seeded starvation orderings (victim_fraction=0.25 or victims=a+b+c); "
      "phase=vote starves victims only in that pipeline phase, budget=N "
      "caps the spent wake-up denials, target=min-cert|laggard|quorum-edge "
      "re-plans the victim set every step from EngineView observations",
      /*activation_based=*/true};
  reg["poisson"] = {
      [](const SchedulerSpec& spec) {
        return make_poisson_clock_scheduler(spec.param_double("rate", 1.0));
      },
      activation_steps,
      {"rate"},
      "continuous-time rate-λ Poisson clocks (rate=1), sampled "
      "Gillespie-style over the active pool",
      /*activation_based=*/true};
  return reg;
}

/// Built once (thread-safe static initialization) and never mutated, so
/// concurrent readers need no lock.
const Registry& registry() {
  static const Registry reg = make_builtin_registry();
  return reg;
}

const Policy& find_policy(const std::string& name) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::string known;
    for (const auto& [n, p] : registry()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("SchedulerSpec: unknown policy \"" + name +
                                "\" (registered: " + known + ")");
  }
  return it->second;
}

[[noreturn]] void bad_value(const std::string& policy, const std::string& key,
                            const std::string& value, const char* expected) {
  throw std::invalid_argument("SchedulerSpec: " + policy + ":" + key + "=\"" +
                              value + "\" is not " + expected);
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

std::string format_param_double(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

SchedulerSpec::SchedulerSpec() : policy_("synchronous") {}

SchedulerSpec::SchedulerSpec(std::string policy, Params params)
    : policy_(std::move(policy)), params_(std::move(params)) {}

SchedulerSpec SchedulerSpec::parse(const std::string& text) {
  const auto colon = text.find(':');
  const std::string name = trim(text.substr(0, colon));
  if (name.empty()) {
    throw std::invalid_argument("SchedulerSpec: empty policy name in \"" +
                                text + "\"");
  }
  find_policy(name);  // Fail fast on unknown policies.

  Params params;
  if (colon != std::string::npos) {
    std::string rest = text.substr(colon + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
      const auto comma = rest.find(',', pos);
      const std::string item = trim(
          rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos));
      if (item.empty()) {
        throw std::invalid_argument(
            "SchedulerSpec: empty parameter in \"" + text + "\"");
      }
      const auto eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("SchedulerSpec: expected key=value, got \"" +
                                    item + "\" in \"" + text + "\"");
      }
      const std::string key = trim(item.substr(0, eq));
      if (!params.emplace(key, trim(item.substr(eq + 1))).second) {
        throw std::invalid_argument("SchedulerSpec: duplicate parameter \"" +
                                    key + "\" in \"" + text + "\"");
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  return SchedulerSpec(name, std::move(params));
}

std::string SchedulerSpec::to_string() const {
  std::string out = policy_;
  char sep = ':';
  for (const auto& [key, value] : params_) {
    out += sep;
    out += key;
    out += '=';
    out += value;
    sep = ',';
  }
  return out;
}

SchedulerPtr SchedulerSpec::make() const {
  const Policy& policy = find_policy(policy_);
  for (const auto& [key, value] : params_) {
    if (std::find(policy.keys.begin(), policy.keys.end(), key) ==
        policy.keys.end()) {
      throw std::invalid_argument("SchedulerSpec: policy \"" + policy_ +
                                  "\" has no parameter \"" + key + "\"");
    }
  }
  return policy.factory(*this);
}

std::uint64_t SchedulerSpec::steps_per_round(std::uint32_t n) const {
  return find_policy(policy_).steps_per_round(n, *this);
}

bool SchedulerSpec::activation_based() const {
  return find_policy(policy_).activation_based;
}

bool SchedulerSpec::has_param(const std::string& key) const {
  return params_.count(key) > 0;
}

double SchedulerSpec::param_double(const std::string& key, double def) const {
  const auto it = params_.find(key);
  if (it == params_.end()) return def;
  double value = 0.0;
  if (!rfc::support::parse_number(it->second, value)) {
    bad_value(policy_, key, it->second, "a number");
  }
  return value;
}

std::uint64_t SchedulerSpec::param_uint(const std::string& key,
                                        std::uint64_t def) const {
  const auto it = params_.find(key);
  if (it == params_.end()) return def;
  std::uint64_t value = 0;
  if (!rfc::support::parse_uint64(it->second, value)) {
    bad_value(policy_, key, it->second, "a non-negative integer");
  }
  return value;
}

std::vector<AgentId> SchedulerSpec::param_agent_list(
    const std::string& key) const {
  const auto it = params_.find(key);
  if (it == params_.end()) return {};
  std::vector<AgentId> ids;
  const std::string& text = it->second;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto plus = text.find('+', pos);
    const std::string item =
        text.substr(pos, plus == std::string::npos ? std::string::npos
                                                   : plus - pos);
    std::uint64_t value = 0;
    if (!rfc::support::parse_uint64(item, value) || value > 0xFFFFFFFFull) {
      bad_value(policy_, key, text, "a +-separated agent-label list");
    }
    ids.push_back(static_cast<AgentId>(value));
    if (plus == std::string::npos) break;
    pos = plus + 1;
  }
  return ids;
}

SchedulerSpec SchedulerSpec::synchronous() { return SchedulerSpec(); }

SchedulerSpec SchedulerSpec::synchronous(const ShardingConfig& sharding) {
  Params params;
  if (sharding.shards > 1) {
    params["shards"] = std::to_string(sharding.shards);
    if (sharding.threads != 0) {
      params["threads"] = std::to_string(sharding.threads);
    }
  }
  return SchedulerSpec("synchronous", std::move(params));
}

SchedulerSpec SchedulerSpec::sequential() {
  return SchedulerSpec("sequential", {});
}

SchedulerSpec SchedulerSpec::partial_async(double wake_probability) {
  return SchedulerSpec("partial-async",
                       {{"p", format_param_double(wake_probability)}});
}

SchedulerSpec SchedulerSpec::batched(std::uint32_t blocks,
                                     const ShardingConfig& sharding) {
  Params params;
  params["block"] = std::to_string(blocks);
  if (sharding.shards > 1) {
    params["shards"] = std::to_string(sharding.shards);
    if (sharding.threads != 0) {
      params["threads"] = std::to_string(sharding.threads);
    }
  }
  return SchedulerSpec("batched", std::move(params));
}

SchedulerSpec SchedulerSpec::adversarial(const AdversarialConfig& cfg) {
  Params params;
  if (cfg.victim_ids.empty()) {
    params["victim_fraction"] = format_param_double(cfg.victim_fraction);
  } else {
    std::string list;
    for (AgentId id : cfg.victim_ids) {
      if (!list.empty()) list += '+';
      list += std::to_string(id);
    }
    params["victims"] = std::move(list);
  }
  if (cfg.target_phase != AgentPhase::kUnknown) {
    params["phase"] = rfc::sim::to_string(cfg.target_phase);
  }
  if (cfg.target != ReactiveTarget::kNone) {
    params["target"] = rfc::sim::to_string(cfg.target);
  }
  if (cfg.budget != 0) {
    params["budget"] = std::to_string(cfg.budget);
  }
  if (cfg.stream != AdversarialConfig{}.stream) {
    params["stream"] = std::to_string(cfg.stream);
  }
  return SchedulerSpec("adversarial", std::move(params));
}

SchedulerSpec SchedulerSpec::poisson(double rate) {
  Params params;
  if (rate != 1.0) params["rate"] = format_param_double(rate);
  return SchedulerSpec("poisson", std::move(params));
}

std::vector<std::string> SchedulerSpec::registered_policies() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, policy] : registry()) names.push_back(name);
  return names;
}

std::string SchedulerSpec::describe_registry() {
  std::string out;
  for (const auto& [name, policy] : registry()) {
    out += "  " + name + " — " + policy.summary + "\n";
  }
  return out;
}

}  // namespace rfc::sim
