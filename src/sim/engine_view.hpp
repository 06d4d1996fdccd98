// Read-only engine observations for adaptive scheduling policies.
//
// A Scheduler decides *when* agents run; an *adaptive* scheduler decides it
// from what the execution is doing — the paper's worst-case adversary picks
// whom to starve based on the protocol's state.  EngineView is the
// observation half of the engine↔scheduler contract: a non-owning, read-only
// window over EngineCore handed to every Scheduler::step() call, exposing
//
//   * the clocks (discrete event count and accumulated virtual time),
//   * per-agent done()/faulty status (done() from the core's cache),
//   * per-agent protocol phase and numeric progress, read live through the
//     Agent::phase() / Agent::progress() hooks (e.g. Protocol P agents
//     report their audit-pipeline stage and position, so a phase-aware
//     adversary can starve an agent exactly during its voting window and a
//     reactive one can re-plan its victim set around the weakest progress
//     holder), and
//   * shard geometry (the contiguous block partition of the label space
//     shared with ShardedRoundExecutor and the batched-delivery policy).
//
// Policies mutate the core only through its execution primitives
// (ShardedRoundExecutor::run_round / sequential_activation, taken by
// EngineCore&); everything they *observe* goes through this type, which
// keeps the observation surface explicit and const.
#pragma once

#include <cstdint>

#include "sim/agent.hpp"
#include "sim/engine_core.hpp"
#include "sim/sharding.hpp"

namespace rfc::sim {

class EngineView {
 public:
  explicit EngineView(const EngineCore& core) noexcept : core_(&core) {}

  std::uint32_t n() const noexcept { return core_->n(); }
  /// Elapsed discrete scheduling events (rounds or activations).
  std::uint64_t time() const noexcept { return core_->time(); }
  /// Elapsed virtual time (the sum of scheduler step() increments).
  double virtual_time() const noexcept { return core_->virtual_time(); }
  std::uint32_t num_active() const noexcept { return core_->num_active(); }
  std::uint32_t num_faulty() const noexcept { return core_->num_faulty(); }

  bool faulty(AgentId id) const { return core_->is_faulty(id); }
  /// The agent's own done() report (the core's cache once started).
  /// Faulty agents never wake regardless.
  bool done(AgentId id) const { return core_->agent_done(id); }
  /// The agent's phase observation (sim::AgentPhase), read live; kUnknown
  /// for agents that expose none.
  AgentPhase phase(AgentId id) const { return core_->agent(id).phase(); }
  /// The agent's numeric pipeline position (Agent::progress(): completed
  /// stages + fraction of the current stage); 0 for agents that expose
  /// none.  Read live.  Reactive adversaries rank victims by this
  /// observation.
  double progress(AgentId id) const { return core_->agent(id).progress(); }
  /// True when every non-faulty agent reports done().
  bool all_done() const { return core_->all_done(); }

  // --- Shard geometry: the contiguous block partition of [0, n). ---
  //
  // All three helpers agree on the effective block count blocks(requested):
  // block_of always returns an index in [0, blocks(requested)) and is the
  // exact inverse of block_begin over that range, so a per-block array
  // sized with blocks() is always indexed in bounds.

  /// Effective block count when asking for `requested` blocks — clamped to
  /// the label count (more blocks would only add empty ranges), exactly as
  /// the sharded executor and the batched policy clamp theirs.
  std::uint32_t blocks(std::uint32_t requested) const noexcept {
    return requested < n() ? requested : n();
  }
  /// First label of block `b` out of blocks(num_blocks) (same rule as the
  /// sharded round's shard map); block b covers
  /// [block_begin(b), block_begin(b+1)).
  std::uint32_t block_begin(std::uint32_t b,
                            std::uint32_t num_blocks) const noexcept {
    return contiguous_block_begin(n(), blocks(num_blocks), b);
  }
  /// The block owning label `id` under a blocks(num_blocks) partition: the
  /// largest b with block_begin(b) <= id, i.e. ceil((id+1)·B/n) - 1.
  std::uint32_t block_of(AgentId id, std::uint32_t num_blocks) const noexcept {
    const std::uint64_t effective = blocks(num_blocks);
    return static_cast<std::uint32_t>(
        ((static_cast<std::uint64_t>(id) + 1) * effective - 1) / n());
  }

 private:
  const EngineCore* core_;
};

}  // namespace rfc::sim
