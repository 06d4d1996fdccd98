#include "core/async_protocol.hpp"

#include "core/payloads.hpp"

namespace rfc::core {
namespace {

/// A vote in the sequential model carries its own voting-round index (the
/// receiver has no global clock to infer it from); travels inline as
/// (value, round_index).
sim::Payload make_async_vote_payload(std::uint64_t value,
                                     std::uint32_t round_index,
                                     const ProtocolParams& params) noexcept {
  return sim::Payload::inline_words(
      kAsyncVotePayloadTag,
      static_cast<std::uint64_t>(params.value_bits()) + params.round_bits(),
      value, round_index);
}

/// Composite pull reply: the servee cannot know whether the puller is
/// auditing (wants H) or broadcasting (wants CE_min), so it sends both.
/// This costs a constant-factor message inflation over the synchronous
/// protocol — part of the price of the sequential model.  It holds a view
/// of the server's H_u box and CE_min's payload as the server holds it.
struct AsyncReply {
  sim::Payload intention;
  sim::Payload min_cert;
};

sim::Payload make_async_reply_payload(rfc::support::Arena* arena,
                                      const AuditState& audit,
                                      const ProtocolParams& params) {
  const sim::Payload& min_cert = audit.min_certificate_payload();
  const std::uint64_t bits =
      audit.intention().size() *
          (static_cast<std::uint64_t>(params.value_bits()) +
           params.label_bits()) +
      1 + (min_cert.empty() ? 0 : audit.min_certificate().bit_size(params));
  // Transient by construction: the reply is consumed by the puller's
  // on_pull_reply within the same activation, so the round arena owns it.
  return sim::Payload::make_boxed_in<AsyncReply>(
      arena, kAsyncReplyPayloadTag, bits,
      AsyncReply{audit.intention_payload().pinned(), min_cert});
}

const AsyncReply* async_reply_in(const sim::Payload& p) noexcept {
  return p.boxed_as<AsyncReply>(kAsyncReplyPayloadTag);
}

}  // namespace

AsyncSchedule::LocalPhase AsyncSchedule::phase_of(
    std::uint64_t a) const noexcept {
  const std::uint64_t block = q + slack;
  if (a < q) return LocalPhase::kCommitment;
  if (a < block) return LocalPhase::kGuard;
  if (a < block + q) return LocalPhase::kVoting;
  if (a < 2 * block) return LocalPhase::kGuard;
  if (a < 3 * block) return LocalPhase::kFindMin;  // Length q + slack.
  if (a < 3 * block + q) return LocalPhase::kCoherence;
  return LocalPhase::kFinished;
}

std::uint32_t AsyncSchedule::index_of(std::uint64_t a) const noexcept {
  return static_cast<std::uint32_t>(a % (q + slack) % q);
}

sim::AgentPhase AsyncSchedule::observed_phase(std::uint64_t a) const noexcept {
  const std::uint64_t block = q + slack;
  if (a < q) return sim::AgentPhase::kCommit;
  // The guard after commitment leads into voting; the guard after voting
  // leads into find-min (whose own jitter absorber is the extended phase).
  if (a < block + q) return sim::AgentPhase::kVote;
  if (a < 3 * block) return sim::AgentPhase::kSpread;
  if (a < 3 * block + q) return sim::AgentPhase::kConfirm;
  return sim::AgentPhase::kDone;
}

double AsyncSchedule::progress_of(std::uint64_t a) const noexcept {
  // Stage boundaries mirror observed_phase: commit [0, q), vote
  // [q, block+q) (guard + q pushes), spread [block+q, 3·block) (guard + the
  // extended find-min), confirm [3·block, 3·block+q).
  const std::uint64_t block = q + slack;
  const double fq = static_cast<double>(q);
  if (a < q) return static_cast<double>(a) / fq;
  if (a < block + q) {
    return 1.0 + static_cast<double>(a - q) / static_cast<double>(block);
  }
  if (a < 3 * block) {
    return 2.0 + static_cast<double>(a - (block + q)) /
                     static_cast<double>(2 * block - q);
  }
  if (a < 3 * block + q) {
    return 3.0 + static_cast<double>(a - 3 * block) / fq;
  }
  return 4.0;
}

AsyncProtocolAgent::AsyncProtocolAgent(const ProtocolParams& params,
                                       AsyncSchedule schedule, Color color)
    : params_(params), schedule_(schedule), color_(color) {}

void AsyncProtocolAgent::on_start(const sim::Context& ctx) {
  audit_.write_intention(params_, draw_intention(params_, ctx));
}

sim::Action AsyncProtocolAgent::on_round(const sim::Context& ctx) {
  if (done()) return sim::Action::idle();
  const std::uint64_t a = activations_++;
  switch (schedule_.phase_of(a)) {
    case AsyncSchedule::LocalPhase::kCommitment:
      return sim::Action::pull(ctx.random_peer());
    case AsyncSchedule::LocalPhase::kVoting: {
      const std::uint32_t i = schedule_.index_of(a);
      const VoteEntry& vote = audit_.intention().at(i);
      return sim::Action::push(
          vote.target, make_async_vote_payload(vote.value, i, params_));
    }
    case AsyncSchedule::LocalPhase::kFindMin:
      if (!audit_.has_own_certificate()) {
        audit_.seal_own_certificate(
            params_,
            audit_.take_votes_into_certificate(params_, ctx.self, color_));
      }
      return sim::Action::pull(ctx.random_peer());
    case AsyncSchedule::LocalPhase::kCoherence:
      return sim::Action::push(ctx.random_peer(),
                               audit_.min_certificate_payload());
    case AsyncSchedule::LocalPhase::kFinished:
      // Verification + decision.
      if (audit_.verify(params_)) {
        final_color_ = audit_.min_certificate().color;
      } else {
        failed_ = true;
      }
      decided_ = true;
      break;
    case AsyncSchedule::LocalPhase::kGuard:
      break;
  }
  return sim::Action::idle();
}

sim::Payload AsyncProtocolAgent::serve_pull(const sim::Context& ctx,
                                            sim::AgentId) {
  if (failed_) return {};  // Invalid state: quiescent.
  // Decided agents keep serving: in the sequential model fast agents finish
  // while slow auditors are still working, and refusing them would make
  // honest agents look faulty.
  return make_async_reply_payload(ctx.arena, audit_, params_);
}

void AsyncProtocolAgent::on_pull_reply(const sim::Context&,
                                       sim::AgentId target,
                                       const sim::Payload& reply) {
  if (done()) return;
  const AsyncReply* r = async_reply_in(reply);
  const auto phase = schedule_.phase_of(activations_ - 1);
  if (phase == AsyncSchedule::LocalPhase::kCommitment) {
    // A missing reply marks the peer faulty (footnote 4).
    audit_.file_commitment_reply(params_, target,
                                 r != nullptr ? r->intention : sim::Payload{});
  } else if (phase == AsyncSchedule::LocalPhase::kFindMin && r != nullptr) {
    if (const Certificate* cert = certificate_in(r->min_cert)) {
      audit_.consider_certificate(params_, *cert, &r->min_cert);
    }
  }
}

void AsyncProtocolAgent::on_push(const sim::Context&, sim::AgentId sender,
                                 const sim::Payload& payload) {
  if (done() || payload.empty()) return;
  if (payload.tag() == kAsyncVotePayloadTag) {
    // Votes landing after the certificate is sealed are lost — the
    // misalignment the guard bands exist to make unlikely.
    if (!audit_.has_own_certificate()) {
      audit_.record_vote(params_,
                         {sender, static_cast<std::uint32_t>(payload.word(1)),
                          payload.word(0)});
    }
    return;
  }
  if (const Certificate* cert = certificate_in(payload)) {
    if (schedule_.phase_of(activations_ - 1) ==
        AsyncSchedule::LocalPhase::kCoherence) {
      // Algorithm 1's Coherence rule: any disagreement is fatal.
      if (!audit_.coherent_with(*cert)) failed_ = true;
    } else if (audit_.min_certificate_payload().empty() ||
               cert->less_than(audit_.min_certificate())) {
      // An early coherence push from a fast peer doubles as Find-Min
      // information.
      audit_.adopt_certificate(params_, *cert, &payload);
    }
  }
}

std::unique_ptr<sim::Engine> build_async_engine(const AsyncRunConfig& cfg) {
  const ProtocolParams params = ProtocolParams::make(cfg.n, cfg.gamma);
  auto engine = std::make_unique<sim::Engine>(sim::EngineConfig{
      cfg.n, cfg.seed, nullptr, cfg.scheduler.make(), cfg.network.make()});
  rfc::support::Xoshiro256 fault_rng(
      rfc::support::derive_seed(cfg.seed, 0x0fau));
  engine->apply_fault_plan(
      sim::make_fault_plan(cfg.placement, cfg.n, cfg.num_faulty, fault_rng));

  const std::vector<Color> colors =
      cfg.colors.empty() ? leader_election_colors(cfg.n) : cfg.colors;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    engine->set_agent(i, std::make_unique<AsyncProtocolAgent>(
                             params, AsyncSchedule{params.q, cfg.slack},
                             colors.at(i)));
  }
  return engine;
}

AsyncRunResult run_async_protocol_on(sim::Engine& engine,
                                     const AsyncRunConfig& cfg) {
  const AsyncSchedule schedule{ProtocolParams::make(cfg.n, cfg.gamma).q,
                               cfg.slack};
  // Each active agent needs ~total_activations wake-ups, which costs
  // ~steps_per_round scheduling events apiece under the chosen policy;
  // coupon-collector slack covers the wake schedule's tail.  An explicit
  // cfg.budget overrides, but the default event cap stays as a termination
  // backstop when only a virtual-time horizon is given.
  const std::uint64_t spr = cfg.scheduler.steps_per_round(cfg.n);
  sim::Budget budget = cfg.budget;
  if (budget.events == 0) {
    budget.events = 8ull * schedule.total_activations() * spr + 64ull * spr;
  }
  engine.run(budget);

  AsyncRunResult result;
  static_cast<HonestOutcome&>(result) =
      tally_honest_outcome<AsyncProtocolAgent>(engine, cfg.colors, {});
  result.steps = engine.steps();
  result.virtual_time = engine.virtual_time();
  result.metrics = engine.metrics();
  return result;
}

AsyncRunResult run_async_protocol(const AsyncRunConfig& cfg) {
  const std::unique_ptr<sim::Engine> engine = build_async_engine(cfg);
  return run_async_protocol_on(*engine, cfg);
}

}  // namespace rfc::core
