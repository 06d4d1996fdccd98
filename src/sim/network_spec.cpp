#include "sim/network_spec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/scheduler_spec.hpp"  // format_param_double
#include "support/parse.hpp"

namespace rfc::sim {

namespace {

/// One table entry: how to build the policy.
struct Policy {
  NetworkModelPtr (*factory)(const NetworkSpec&);
  std::vector<std::string> keys;  ///< Accepted parameter names.
  std::string summary;            ///< One-liner for --help style listings.
};

using Registry = std::map<std::string, Policy>;

[[noreturn]] void bad_value(const std::string& policy, const std::string& key,
                            const std::string& value, const char* expected) {
  throw std::invalid_argument("NetworkSpec: " + policy + ":" + key + "=\"" +
                              value + "\" is not " + expected);
}

/// Reads a probability parameter; rejects NaN and values outside [0, 1] at
/// make() time with the key name in the message.
double probability_from(const NetworkSpec& spec, const std::string& key) {
  const double value = spec.param_double(key, 0.0);
  if (!(value >= 0.0 && value <= 1.0)) {  // Also catches NaN.
    bad_value(spec.policy(), key,
              spec.has_param(key) ? spec.params().at(key) : "",
              "a probability in [0, 1]");
  }
  return value;
}

NetworkModel::Rates rates_from(const NetworkSpec& spec) {
  NetworkModel::Rates rates;
  rates.drop = probability_from(spec, "drop");
  rates.dup = probability_from(spec, "dup");
  rates.reorder = probability_from(spec, "reorder");
  rates.corrupt = probability_from(spec, "corrupt");
  rates.churn = probability_from(spec, "churn");
  rates.delay = spec.param_uint("delay", 0);
  rates.rejoin = spec.param_uint("rejoin", 0);
  rates.seed = spec.param_uint("seed", 0);
  return rates;
}

Registry make_builtin_registry() {
  Registry reg;
  reg["network"] = {
      [](const NetworkSpec& spec) {
        return std::make_unique<NetworkModel>(rates_from(spec));
      },
      {"drop", "dup", "reorder", "delay", "corrupt", "churn", "rejoin",
       "seed"},
      "the i.i.d. message adversary: drop=p loses messages, dup=p doubles "
      "pushes, reorder=p defers pushes to the end of the delivery phase, "
      "delay=k spreads pushes over 0..k later rounds, corrupt=p flips "
      "payload bits in transit, churn=p crashes up agents each round "
      "(rejoin=k rounds later; rejoin=0 means for good), seed=s picks the "
      "fault stream; all rates zero (the default) is the reliable network"};
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
    throw std::invalid_argument("NetworkSpec: unknown policy \"" + name +
                                "\" (registered: " + known + ")");
  }
  return it->second;
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

NetworkSpec::NetworkSpec() : policy_("network") {}

NetworkSpec::NetworkSpec(std::string policy, Params params)
    : policy_(std::move(policy)), params_(std::move(params)) {}

NetworkSpec NetworkSpec::parse(const std::string& text) {
  const auto colon = text.find(':');
  const std::string name = trim(text.substr(0, colon));
  if (name.empty()) {
    throw std::invalid_argument("NetworkSpec: empty policy name in \"" +
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
        throw std::invalid_argument("NetworkSpec: empty parameter in \"" +
                                    text + "\"");
      }
      const auto eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("NetworkSpec: expected key=value, got \"" +
                                    item + "\" in \"" + text + "\"");
      }
      const std::string key = trim(item.substr(0, eq));
      if (!params.emplace(key, trim(item.substr(eq + 1))).second) {
        throw std::invalid_argument("NetworkSpec: duplicate parameter \"" +
                                    key + "\" in \"" + text + "\"");
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  return NetworkSpec(name, std::move(params));
}

std::string NetworkSpec::to_string() const {
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

NetworkModelPtr NetworkSpec::make() const {
  const Policy& policy = find_policy(policy_);
  for (const auto& [key, value] : params_) {
    if (std::find(policy.keys.begin(), policy.keys.end(), key) ==
        policy.keys.end()) {
      throw std::invalid_argument("NetworkSpec: policy \"" + policy_ +
                                  "\" has no parameter \"" + key + "\"");
    }
  }
  return policy.factory(*this);
}

bool NetworkSpec::inert() const {
  const NetworkModelPtr model = make();
  return !model->message_faults() && !model->has_churn();
}

bool NetworkSpec::has_param(const std::string& key) const {
  return params_.count(key) > 0;
}

double NetworkSpec::param_double(const std::string& key, double def) const {
  const auto it = params_.find(key);
  if (it == params_.end()) return def;
  double value = 0.0;
  if (!rfc::support::parse_number(it->second, value)) {
    bad_value(policy_, key, it->second, "a number");
  }
  return value;
}

std::uint64_t NetworkSpec::param_uint(const std::string& key,
                                      std::uint64_t def) const {
  const auto it = params_.find(key);
  if (it == params_.end()) return def;
  std::uint64_t value = 0;
  if (!rfc::support::parse_uint64(it->second, value)) {
    bad_value(policy_, key, it->second, "a non-negative integer");
  }
  return value;
}

NetworkSpec NetworkSpec::none() { return NetworkSpec(); }

NetworkSpec NetworkSpec::lossy(double drop, std::uint64_t seed) {
  Params params;
  params["drop"] = format_param_double(drop);
  if (seed != 0) params["seed"] = std::to_string(seed);
  return NetworkSpec("network", std::move(params));
}

std::vector<std::string> NetworkSpec::registered_policies() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, policy] : registry()) names.push_back(name);
  return names;
}

std::string NetworkSpec::describe_registry() {
  std::string out;
  for (const auto& [name, policy] : registry()) {
    out += "  " + name + " — " + policy.summary + "\n";
  }
  return out;
}

}  // namespace rfc::sim
