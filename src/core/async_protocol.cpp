#include "core/async_protocol.hpp"

#include <memory>

#include "core/payloads.hpp"
#include "core/runner.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "support/math_util.hpp"

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
/// protocol — part of the price of the sequential model.
struct AsyncReply {
  VoteIntention intention;
  bool has_cert = false;
  Certificate cert;
};

sim::Payload make_async_reply_payload(rfc::support::Arena* arena,
                                      const VoteIntention& intention,
                                      const Certificate* min_cert,
                                      const ProtocolParams& params) {
  const bool has_cert = min_cert != nullptr;
  const std::uint64_t bits =
      intention.size() * (static_cast<std::uint64_t>(params.value_bits()) +
                          params.label_bits()) +
      1 + (has_cert ? min_cert->bit_size(params) : 0);
  // Transient by construction: the reply is consumed by the puller's
  // on_pull_reply within the same activation, so the round arena owns it.
  return sim::Payload::make_boxed_in<AsyncReply>(
      arena, kAsyncReplyPayloadTag, bits,
      AsyncReply{intention, has_cert,
                 has_cert ? *min_cert : Certificate{}});
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
  intention_.resize(params_.q);
  for (VoteEntry& e : intention_) {
    e.value = ctx.rng->below(params_.m);
    e.target = ctx.random_peer();
  }
}

sim::Action AsyncProtocolAgent::on_round(const sim::Context& ctx) {
  if (done()) return sim::Action::idle();
  const std::uint64_t a = activations_++;
  const auto phase = schedule_.phase_of(a);
  switch (phase) {
    case AsyncSchedule::LocalPhase::kCommitment:
      return sim::Action::pull(ctx.random_peer());
    case AsyncSchedule::LocalPhase::kVoting: {
      const std::uint32_t i = schedule_.index_of(a);
      const VoteEntry& vote = intention_.at(i);
      return sim::Action::push(
          vote.target, make_async_vote_payload(vote.value, i, params_));
    }
    case AsyncSchedule::LocalPhase::kFindMin:
      if (!own_cert_built_) {
        own_cert_ = make_certificate(params_, ctx.self, color_,
                                     received_votes_);
        own_cert_built_ = true;
        if (!has_min_cert_ || own_cert_.less_than(min_cert_)) {
          min_cert_ = own_cert_;
        }
        has_min_cert_ = true;
      }
      return sim::Action::pull(ctx.random_peer());
    case AsyncSchedule::LocalPhase::kCoherence:
      in_coherence_ = true;
      // The pushed certificate is copied out by every receiver's
      // consider_certificate within the round — arena-transient.
      return sim::Action::push(
          ctx.random_peer(),
          make_certificate_payload_in(ctx.arena, min_cert_, params_));
    case AsyncSchedule::LocalPhase::kFinished:
      finalize();
      return sim::Action::idle();
    case AsyncSchedule::LocalPhase::kGuard:
      return sim::Action::idle();
  }
  return sim::Action::idle();
}

sim::Payload AsyncProtocolAgent::serve_pull(const sim::Context& ctx,
                                            sim::AgentId) {
  if (failed_) return {};  // Invalid state: quiescent.
  // Decided agents keep serving: in the sequential model fast agents finish
  // while slow auditors are still working, and refusing them would make
  // honest agents look faulty.
  return make_async_reply_payload(
      ctx.arena, intention_, has_min_cert_ ? &min_cert_ : nullptr, params_);
}

void AsyncProtocolAgent::on_pull_reply(const sim::Context&,
                                       sim::AgentId target,
                                       const sim::Payload& reply) {
  if (done()) return;
  const AsyncReply* payload = async_reply_in(reply);
  const auto phase = schedule_.phase_of(activations_ - 1);
  if (phase == AsyncSchedule::LocalPhase::kCommitment) {
    // First declaration wins; a missing or malformed intention marks the
    // peer faulty (footnote 4).
    if (collected_.contains(target)) return;
    // L_u holds at most q records: one per Commitment pull.
    if (collected_.empty()) collected_.reserve(params_.q);
    // The reply is arena-transient, so its intention is copied once into a
    // box of our own, stamped with its verdict and target summary (which
    // lets Verification skip the records that cannot name the winner).
    IntentionBox box = payload != nullptr
                           ? make_intention_box(payload->intention, params_)
                           : IntentionBox{};
    if (box.well_formed) {
      collected_.append_kept(
          target, std::make_shared<const IntentionBox>(std::move(box)));
    } else {
      collected_.append(target, nullptr);
    }
  } else if (phase == AsyncSchedule::LocalPhase::kFindMin) {
    if (payload != nullptr && payload->has_cert &&
        payload->cert.less_than(min_cert_)) {
      min_cert_ = payload->cert;
    }
  }
}

void AsyncProtocolAgent::on_push(const sim::Context&, sim::AgentId sender,
                                 const sim::Payload& payload) {
  if (done() || payload.empty()) return;
  if (payload.tag() == kAsyncVotePayloadTag) {
    // Votes landing after the certificate is sealed are lost — the
    // misalignment the guard bands exist to make unlikely.
    if (!own_cert_built_) {
      received_votes_.push_back(ReceivedVote{
          sender, static_cast<std::uint32_t>(payload.word(1)),
          payload.word(0)});
    }
    return;
  }
  if (const Certificate* cert = certificate_in(payload)) {
    if (in_coherence_) {
      // Algorithm 1's Coherence rule: any disagreement is fatal.
      if (!(*cert == min_cert_)) {
        failed_ = true;
        failed_in_coherence_ = true;
      }
    } else if (!has_min_cert_ || cert->less_than(min_cert_)) {
      // An early coherence push from a fast peer doubles as Find-Min
      // information.
      min_cert_ = *cert;
      has_min_cert_ = true;
    }
  }
}

void AsyncProtocolAgent::finalize() {
  if (decided_ || failed_) return;
  const VerificationResult result =
      verify_certificate(params_, min_cert_, collected_);
  verification_failure_ = result.failure;
  if (result.accepted()) {
    final_color_ = min_cert_.color;
    decided_ = true;
  } else {
    failed_ = true;
    decided_ = true;
  }
}

AsyncRunResult run_async_protocol(const AsyncRunConfig& cfg) {
  const ProtocolParams params = ProtocolParams::make(cfg.n, cfg.gamma);
  AsyncSchedule schedule;
  schedule.q = params.q;
  schedule.slack = cfg.slack;

  sim::Engine engine(
      {cfg.n, cfg.seed, nullptr, cfg.scheduler.make(), cfg.network.make()});
  rfc::support::Xoshiro256 fault_rng(
      rfc::support::derive_seed(cfg.seed, 0x0fau));
  engine.apply_fault_plan(
      sim::make_fault_plan(cfg.placement, cfg.n, cfg.num_faulty, fault_rng));

  const std::vector<Color> colors =
      cfg.colors.empty() ? leader_election_colors(cfg.n) : cfg.colors;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    engine.set_agent(i, std::make_unique<AsyncProtocolAgent>(
                            params, schedule, colors.at(i)));
  }

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
  result.steps = engine.steps();
  result.virtual_time = engine.virtual_time();
  result.metrics = engine.metrics();

  bool have = false;
  Color winner = kNoColor;
  bool bottom = false;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    if (engine.is_faulty(i)) continue;
    ++result.active_colors[colors.at(i)];
    const auto& agent =
        static_cast<const AsyncProtocolAgent&>(engine.agent(i));
    if (agent.failed() || !agent.decided()) {
      bottom = true;
      continue;
    }
    if (!have) {
      have = true;
      winner = agent.decision();
    } else if (winner != agent.decision()) {
      bottom = true;
    }
  }
  if (!bottom && have) result.winner = winner;
  return result;
}

}  // namespace rfc::core
