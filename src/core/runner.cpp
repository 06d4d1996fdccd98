#include "core/runner.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <vector>

namespace rfc::core {

std::vector<Color> leader_election_colors(std::uint32_t n) {
  std::vector<Color> colors(n);
  for (std::uint32_t i = 0; i < n; ++i) colors[i] = static_cast<Color>(i);
  return colors;
}

std::vector<Color> split_colors(std::uint32_t n,
                                const std::vector<double>& fractions) {
  std::vector<Color> colors(n, 0);
  if (fractions.empty()) return colors;
  double total = 0.0;
  for (double f : fractions) total += f;
  std::uint32_t next = 0;
  for (std::size_t c = 0; c + 1 < fractions.size(); ++c) {
    const auto count = static_cast<std::uint32_t>(
        fractions[c] / total * static_cast<double>(n) + 0.5);
    for (std::uint32_t i = 0; i < count && next < n; ++i) {
      colors[next++] = static_cast<Color>(c);
    }
  }
  while (next < n) colors[next++] = static_cast<Color>(fractions.size() - 1);
  return colors;
}

namespace {

/// Collects Def. 2 / Def. 5 diagnostics after the run.
GoodExecutionEvents collect_events(const sim::Engine& engine,
                                   const std::vector<bool>& in_coalition) {
  GoodExecutionEvents ev;
  const std::uint32_t n = engine.n();

  ev.min_votes = std::numeric_limits<std::uint32_t>::max();
  ev.max_votes = 0;
  ev.k_values_distinct = true;
  ev.find_min_agreement = true;
  ev.every_agent_audited = true;
  ev.every_agent_cleanly_voted = true;

  // k of every honest CE_u, checked for duplicates once the scan is done.
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  const Certificate* reference_min = nullptr;

  // M: agents commitment-pulled by some coalition member (Def. 5(3)).
  std::unordered_set<sim::AgentId> pulled_by_coalition;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (engine.is_faulty(i) || !in_coalition[i]) continue;
    const auto& agent = static_cast<const ProtocolAgent&>(engine.agent(i));
    for (const auto& [peer, record] : agent.collected_intentions()) {
      (void)record;
      pulled_by_coalition.insert(peer);
    }
  }

  // Which agents received a "clean" vote: from an honest voter outside
  // C ∪ M.  Scan honest voters' intentions (they vote as declared).
  std::vector<bool> cleanly_voted(n, false);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (engine.is_faulty(v) || in_coalition[v]) continue;
    if (pulled_by_coalition.contains(v)) continue;
    const auto& voter = static_cast<const ProtocolAgent&>(engine.agent(v));
    for (const VoteEntry& e : voter.audit().intention()) {
      if (e.target < n) cleanly_voted[e.target] = true;
    }
  }

  bool any_honest = false;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (engine.is_faulty(i)) continue;
    const auto& agent = static_cast<const ProtocolAgent&>(engine.agent(i));

    // Def. 5(1): audited by at least one honest agent.
    bool audited = false;
    for (sim::AgentId p : agent.commitment_pullers()) {
      if (!engine.is_faulty(p) && !in_coalition[p]) {
        audited = true;
        break;
      }
    }
    ev.every_agent_audited = ev.every_agent_audited && audited;
    ev.every_agent_cleanly_voted =
        ev.every_agent_cleanly_voted && cleanly_voted[i];

    if (in_coalition[i]) continue;  // Honest-only diagnostics below.
    any_honest = true;

    const auto votes = static_cast<std::uint32_t>(
        agent.audit().received_votes().size());
    ev.min_votes = std::min(ev.min_votes, votes);
    ev.max_votes = std::max(ev.max_votes, votes);

    if (agent.has_own_certificate()) keys.push_back(agent.own_certificate().k);
    if (agent.has_min_certificate()) {
      if (reference_min == nullptr) {
        reference_min = &agent.min_certificate();
      } else if (!(*reference_min == agent.min_certificate())) {
        ev.find_min_agreement = false;
      }
    }
  }
  if (!any_honest) ev.min_votes = 0;
  std::sort(keys.begin(), keys.end());
  ev.k_values_distinct =
      std::adjacent_find(keys.begin(), keys.end()) == keys.end();
  return ev;
}

}  // namespace

std::unique_ptr<sim::Engine> build_protocol_engine(const RunConfig& cfg) {
  ProtocolParams params =
      ProtocolParams::make(cfg.n, cfg.gamma, cfg.strict_verification);
  params.coherence_digest = cfg.coherence_digest;

  // Deviation agents share the Coalition blackboard across labels, which a
  // sharded round would mutate from several threads at once — reject the
  // combination instead of racing (see RunConfig::scheduler).
  if (!cfg.coalition.empty() && cfg.scheduler.param_uint("shards", 1) > 1) {
    throw std::invalid_argument(
        "run_protocol: coalition deviations share a blackboard across "
        "labels and are not shard-safe; use shards=1");
  }

  auto engine = std::make_unique<sim::Engine>(
      sim::EngineConfig{cfg.n, cfg.seed, cfg.topology, cfg.scheduler.make(),
                        cfg.network.make()});
  rfc::support::Xoshiro256 fault_rng(
      rfc::support::derive_seed(cfg.seed, 0x0fau));
  engine->apply_fault_plan(
      sim::make_fault_plan(cfg.placement, cfg.n, cfg.num_faulty, fault_rng));

  std::vector<bool> in_coalition(cfg.n, false);
  for (sim::AgentId id : cfg.coalition) in_coalition.at(id) = true;

  const std::vector<Color> colors =
      cfg.colors.empty() ? leader_election_colors(cfg.n) : cfg.colors;

  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    std::unique_ptr<ProtocolAgent> agent;
    if (in_coalition[i] && cfg.factory) {
      agent = cfg.factory(i, params, colors.at(i));
    }
    if (agent == nullptr) {
      agent = std::make_unique<ProtocolAgent>(params, colors.at(i));
    }
    engine->set_agent(i, std::move(agent));
  }
  return engine;
}

RunResult run_protocol_on(sim::Engine& engine, const RunConfig& cfg) {
  ProtocolParams params =
      ProtocolParams::make(cfg.n, cfg.gamma, cfg.strict_verification);
  params.coherence_digest = cfg.coherence_digest;

  std::vector<bool> in_coalition(cfg.n, false);
  for (sim::AgentId id : cfg.coalition) in_coalition.at(id) = true;

  std::uint64_t agreement_round = RunResult::kNotMeasured;
  if (cfg.measure_convergence) {
    engine.set_round_observer([&](const sim::Engine& e) {
      if (agreement_round != RunResult::kNotMeasured) return;
      const std::uint64_t round = e.round() - 1;  // Round just executed.
      if (params.phase_of_round(round) != Phase::kFindMin) return;
      const Certificate* reference = nullptr;
      for (std::uint32_t i = 0; i < e.n(); ++i) {
        if (e.is_faulty(i) || in_coalition[i]) continue;
        const auto& agent = static_cast<const ProtocolAgent&>(e.agent(i));
        if (!agent.has_min_certificate()) return;
        if (reference == nullptr) {
          reference = &agent.min_certificate();
        } else if (!(*reference == agent.min_certificate())) {
          return;
        }
      }
      agreement_round = params.round_in_phase(round);
    });
  }

  // Budget in scheduling events: one event per round under the synchronous
  // model, ~n events per round of per-agent progress under activation-based
  // policies.  cfg.budget overrides; the default event cap survives as a
  // backstop when only a virtual-time horizon is given.
  sim::Budget budget = cfg.budget;
  if (budget.events == 0) {
    budget.events = (params.total_rounds() + cfg.max_rounds_slack) *
                    cfg.scheduler.steps_per_round(cfg.n);
  }
  engine.run(budget);

  RunResult result;
  static_cast<HonestOutcome&>(result) =
      tally_honest_outcome<ProtocolAgent>(engine, cfg.colors, in_coalition);
  result.rounds = engine.round();
  result.find_min_agreement_round = agreement_round;
  result.num_active = engine.num_active();
  result.metrics = engine.metrics();
  result.events = collect_events(engine, in_coalition);
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    if (engine.is_faulty(i)) continue;
    const auto& agent = static_cast<const ProtocolAgent&>(engine.agent(i));
    result.max_local_memory_bits =
        std::max(result.max_local_memory_bits, agent.local_memory_bits());
  }
  return result;
}

RunResult run_protocol(const RunConfig& cfg) {
  const std::unique_ptr<sim::Engine> engine = build_protocol_engine(cfg);
  return run_protocol_on(*engine, cfg);
}

}  // namespace rfc::core
