// Shared end-state digest helpers for the equivalence suites.
//
// A run digest FNV-1a-hashes everything the equivalence contracts pin:
// the run outcome, every Metrics field (bit patterns, not approximations),
// and the per-agent end state — for Protocol P including the wire-encoded
// certificates, so "identical" means identical at the bit level.  The
// pinned constants in the tests were captured from the pre-SoA engine
// (PR 7 tree) and must never change: any engine-core refactor has to
// reproduce them exactly (same RNG stream consumption, same metrics,
// same end state).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>

#include "core/protocol_agent.hpp"
#include "core/runner.hpp"
#include "core/wire.hpp"
#include "gossip/rumor.hpp"
#include "net/state_digest.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"

namespace rfc::testing {

inline void mix_double(net::Fnv1a& fnv, double value) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  fnv.mix_u64(bits);
}

inline void mix_metrics(net::Fnv1a& fnv, const sim::Metrics& m) noexcept {
  fnv.mix_u64(m.rounds);
  mix_double(fnv, m.virtual_time);
  fnv.mix_u64(m.pushes);
  fnv.mix_u64(m.pull_requests);
  fnv.mix_u64(m.pull_replies);
  fnv.mix_u64(m.total_bits);
  fnv.mix_u64(m.max_message_bits);
  fnv.mix_u64(m.active_links);
  fnv.mix_u64(m.denials);
}

/// Pre-run hook: lets a test retune the engine (e.g. force many delivery
/// blocks at tiny n) before the run starts.
using EngineConfigureHook = std::function<void(sim::Engine&)>;

/// Runs a rumor spread and digests result + metrics + every agent's state.
inline std::uint64_t rumor_end_state_digest(
    const gossip::SpreadConfig& cfg,
    const EngineConfigureHook& configure = {}) {
  auto engine = gossip::build_spread_engine(cfg);
  if (configure) configure(*engine);
  const gossip::SpreadResult res =
      gossip::run_rumor_spreading_on(*engine, cfg);
  net::Fnv1a fnv;
  fnv.mix_bool(res.complete);
  fnv.mix_u64(res.rounds);
  mix_double(fnv, res.virtual_time);
  mix_metrics(fnv, res.metrics);
  for (sim::AgentId u = 0; u < cfg.n; ++u) {
    fnv.mix_u64(u);
    fnv.mix_bool(engine->is_faulty(u));
    fnv.mix_bool(
        static_cast<const gossip::RumorAgent&>(engine->agent(u)).informed());
  }
  return fnv.value();
}

/// Digests a finished Protocol P run: outcome + metrics + every agent's end
/// state, with certificates hashed through their checked wire encoding.
inline std::uint64_t protocol_run_digest(const sim::Engine& engine,
                                         const core::RunConfig& cfg,
                                         const core::RunResult& res) {
  const core::ProtocolParams params =
      core::ProtocolParams::make(cfg.n, cfg.gamma, cfg.strict_verification);
  const auto mix_certificate = [&params](net::Fnv1a& fnv,
                                         const core::Certificate& cert) {
    core::BitWriter w;
    core::encode_certificate(w, params, cert);
    fnv.mix_u64(w.bit_count());
    fnv.mix_bytes(w.bytes().data(), w.bytes().size());
  };
  net::Fnv1a fnv;
  fnv.mix_u64(static_cast<std::uint64_t>(res.winner));
  fnv.mix_u64(res.winner_agent);
  fnv.mix_u64(res.rounds);
  fnv.mix_u64(res.num_active);
  fnv.mix_u64(res.honest_failures);
  fnv.mix_u64(res.max_local_memory_bits);
  mix_metrics(fnv, res.metrics);
  for (sim::AgentId u = 0; u < cfg.n; ++u) {
    fnv.mix_u64(u);
    fnv.mix_bool(engine.is_faulty(u));
    const auto& p =
        static_cast<const core::ProtocolAgent&>(engine.agent(u));
    fnv.mix_bool(p.failed());
    fnv.mix_bool(p.decided());
    fnv.mix_u64(static_cast<std::uint64_t>(p.decision()));
    fnv.mix_bool(p.has_own_certificate());
    if (p.has_own_certificate()) mix_certificate(fnv, p.own_certificate());
    fnv.mix_bool(p.has_min_certificate());
    if (p.has_min_certificate()) mix_certificate(fnv, p.min_certificate());
  }
  return fnv.value();
}

/// Runs Protocol P and digests it with protocol_run_digest.
inline std::uint64_t protocol_end_state_digest(
    const core::RunConfig& cfg, const EngineConfigureHook& configure = {}) {
  auto engine = core::build_protocol_engine(cfg);
  if (configure) configure(*engine);
  const core::RunResult res = core::run_protocol_on(*engine, cfg);
  return protocol_run_digest(*engine, cfg, res);
}

}  // namespace rfc::testing
