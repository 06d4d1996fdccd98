#include "rational/strategies.hpp"

#include <algorithm>
#include <memory>

#include "core/payloads.hpp"

namespace rfc::rational {

const std::vector<DeviationStrategy>& all_deviation_strategies() {
  static const std::vector<DeviationStrategy> kAll = {
      DeviationStrategy::kHonest,
      DeviationStrategy::kSelfishVoting,
      DeviationStrategy::kForgedEmptyCert,
      DeviationStrategy::kForgedCoalitionCert,
      DeviationStrategy::kVoteDrop,
      DeviationStrategy::kEquivocate,
      DeviationStrategy::kPlayDead,
      DeviationStrategy::kFindMinSuppress,
      DeviationStrategy::kStubbornCert,
      DeviationStrategy::kAdaptiveVote,
      DeviationStrategy::kSkipVerification,
  };
  return kAll;
}

std::string to_string(DeviationStrategy s) {
  switch (s) {
    case DeviationStrategy::kHonest: return "honest";
    case DeviationStrategy::kSelfishVoting: return "selfish-voting";
    case DeviationStrategy::kForgedEmptyCert: return "forged-empty-cert";
    case DeviationStrategy::kForgedCoalitionCert: return "forged-coalition-cert";
    case DeviationStrategy::kVoteDrop: return "vote-drop";
    case DeviationStrategy::kEquivocate: return "equivocate";
    case DeviationStrategy::kPlayDead: return "play-dead";
    case DeviationStrategy::kFindMinSuppress: return "find-min-suppress";
    case DeviationStrategy::kStubbornCert: return "stubborn-cert";
    case DeviationStrategy::kAdaptiveVote: return "adaptive-vote";
    case DeviationStrategy::kSkipVerification: return "skip-verification";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// CoalitionAgent
// ---------------------------------------------------------------------------

CoalitionAgent::CoalitionAgent(const core::ProtocolParams& params,
                               core::Color color, CoalitionPtr coalition)
    : core::ProtocolAgent(params, color), coalition_(std::move(coalition)) {}

core::VoteIntention CoalitionAgent::choose_intention(const sim::Context& ctx) {
  core::VoteIntention h = core::ProtocolAgent::choose_intention(ctx);
  coalition_->publish_intention(ctx.self, h);
  return h;
}

// ---------------------------------------------------------------------------
// kSelfishVoting
// ---------------------------------------------------------------------------

core::VoteIntention SelfishVotingAgent::choose_intention(
    const sim::Context& ctx) {
  core::VoteIntention h(params_.q, {0, coalition_->beneficiary()});
  coalition_->publish_intention(ctx.self, h);
  return h;
}

// ---------------------------------------------------------------------------
// kForgedEmptyCert
// ---------------------------------------------------------------------------

core::Certificate ForgedEmptyCertAgent::build_own_certificate(
    const sim::Context& ctx) {
  if (!is_beneficiary(ctx)) {
    return core::ProtocolAgent::build_own_certificate(ctx);
  }
  core::Certificate forged;
  forged.k = 0;  // Guaranteed global minimum.
  forged.color = color_;
  forged.owner = ctx.self;
  return forged;
}

// ---------------------------------------------------------------------------
// kForgedCoalitionCert
// ---------------------------------------------------------------------------

core::VoteIntention ForgedCoalitionCertAgent::choose_intention(
    const sim::Context& ctx) {
  // Members declare exactly the votes the forged certificate will contain,
  // so every value/target audit of a coalition voter passes.
  core::VoteIntention h(params_.q, {0, coalition_->beneficiary()});
  coalition_->publish_intention(ctx.self, h);
  return h;
}

core::Certificate ForgedCoalitionCertAgent::build_own_certificate(
    const sim::Context& ctx) {
  if (!is_beneficiary(ctx)) {
    return core::ProtocolAgent::build_own_certificate(ctx);
  }
  // W := the coalition's declared votes for us, nothing else.  All values
  // are zero, so k = 0 and the certificate wins Find-Min.  Honest votes we
  // actually received are discarded — only the completeness cross-check
  // (the inconsistency used in the proof of Claim 1) can notice.
  core::Certificate forged;
  forged.color = color_;
  forged.owner = ctx.self;
  for (const auto& [member, intention] : coalition_->declared_intentions()) {
    for (std::uint32_t j = 0; j < intention.size(); ++j) {
      if (intention[j].target == ctx.self) {
        forged.votes.push_back({member, j, intention[j].value});
      }
    }
  }
  forged.k = forged.vote_sum(params_);
  return forged;
}

// ---------------------------------------------------------------------------
// kVoteDrop
// ---------------------------------------------------------------------------

core::Certificate VoteDropAgent::build_own_certificate(
    const sim::Context& ctx) {
  if (!is_beneficiary(ctx)) {
    return core::ProtocolAgent::build_own_certificate(ctx);
  }
  // Built from a copy: the default would move W_u into the certificate,
  // and the votes dropped below must stay in received_votes().
  core::Certificate cert =
      core::make_certificate(params_, ctx.self, color_, received_votes_);

  // Search all ways of dropping up to two received votes and keep the
  // variant with the smallest key.  O(|W|^2) with |W| = Θ(log n).
  const auto& votes = cert.votes;
  const std::uint64_t m = params_.m;
  std::uint64_t best_k = cert.k;
  int best_i = -1, best_j = -1;
  const auto sub = [m](std::uint64_t k, std::uint64_t h) {
    return (k + m - h % m) % m;
  };
  for (std::size_t i = 0; i < votes.size(); ++i) {
    const std::uint64_t k1 = sub(cert.k, votes[i].value);
    if (k1 < best_k) {
      best_k = k1;
      best_i = static_cast<int>(i);
      best_j = -1;
    }
    for (std::size_t j = i + 1; j < votes.size(); ++j) {
      const std::uint64_t k2 = sub(k1, votes[j].value);
      if (k2 < best_k) {
        best_k = k2;
        best_i = static_cast<int>(i);
        best_j = static_cast<int>(j);
      }
    }
  }
  if (best_i >= 0) {
    core::ReceivedVotes kept;
    kept.reserve(votes.size());
    for (std::size_t i = 0; i < votes.size(); ++i) {
      if (static_cast<int>(i) == best_i || static_cast<int>(i) == best_j) {
        continue;
      }
      kept.push_back(votes[i]);
    }
    cert.votes = std::move(kept);
    cert.k = best_k;
  }
  return cert;
}

// ---------------------------------------------------------------------------
// kEquivocate
// ---------------------------------------------------------------------------

sim::Payload EquivocatingAgent::commitment_reply(const sim::Context& ctx,
                                                 sim::AgentId) {
  // A fresh lie for every auditor.
  core::VoteIntention fake(params_.q);
  for (core::VoteEntry& e : fake) {
    e.value = ctx.rng->below(params_.m);
    e.target = static_cast<sim::AgentId>(ctx.rng->below(params_.n));
  }
  // Never cached by this agent — each auditor gets a fresh lie — so the
  // round arena owns it.
  return core::make_intention_payload_in(ctx.arena, std::move(fake), params_);
}

// ---------------------------------------------------------------------------
// kPlayDead
// ---------------------------------------------------------------------------

core::VoteIntention PlayDeadAgent::choose_intention(const sim::Context& ctx) {
  core::VoteIntention h(params_.q, {0, coalition_->beneficiary()});
  coalition_->publish_intention(ctx.self, h);
  return h;
}

sim::Payload PlayDeadAgent::commitment_reply(const sim::Context&,
                                             sim::AgentId) {
  return {};  // Pretend to be faulty; auditors pin us to h* = 0.
}

// ---------------------------------------------------------------------------
// kFindMinSuppress
// ---------------------------------------------------------------------------

sim::Payload FindMinSuppressAgent::find_min_reply(const sim::Context& ctx,
                                                  sim::AgentId) {
  if (!has_own_certificate()) return {};
  // Serve our own certificate, never the smaller ones we have seen; the
  // auditor copies it out within the round, so it is arena-transient.
  return core::make_certificate_payload_in(ctx.arena, own_certificate(),
                                           params_);
}

// ---------------------------------------------------------------------------
// kStubbornCert
// ---------------------------------------------------------------------------

void StubbornCertAgent::consider_certificate(
    const core::Certificate& certificate) {
  if (coalition_->contains(certificate.owner)) {
    core::ProtocolAgent::consider_certificate(certificate);
  }
  // Smaller honest certificates are ignored: we keep pushing ours.
}

void StubbornCertAgent::on_coherence_certificate(const core::Certificate&) {
  // Never fail ourselves; the damage is done at the honest receivers.
}

void StubbornCertAgent::on_coherence_digest(std::uint64_t) {
  // Likewise under the digest optimization.
}

// ---------------------------------------------------------------------------
// kAdaptiveVote
// ---------------------------------------------------------------------------

core::VoteEntry AdaptiveVoteAgent::vote_for_round(const sim::Context& ctx,
                                                  std::uint32_t i) {
  const sim::AgentId beneficiary = coalition_->beneficiary();
  if (ctx.self == beneficiary) {
    return core::ProtocolAgent::vote_for_round(ctx, i);
  }
  if (ctx.self == coalition_->fixer() && i + 1 == params_.q) {
    // Cancel everything the beneficiary has received so far: one vote of
    // m - (sum so far) drives the running key to 0.  Votes delivered in
    // this final round (including honest ones) remain uncontrolled — that
    // residual uniformity is exactly Claim 2's deferred-decision argument.
    const std::uint64_t sum = coalition_->beneficiary_vote_sum();
    return {(params_.m - sum) % params_.m, beneficiary};
  }
  return {0, beneficiary};
}

void AdaptiveVoteAgent::on_push(const sim::Context& ctx, sim::AgentId sender,
                                const sim::Payload& payload) {
  core::ProtocolAgent::on_push(ctx, sender, payload);
  if (ctx.self == coalition_->beneficiary()) {
    // received_votes(), not the member: pushes go on arriving after
    // Find-Min begins, when W_u has moved into CE_u.
    coalition_->publish_beneficiary_vote_sum(
        core::vote_sum(params_, received_votes()));
  }
}

// ---------------------------------------------------------------------------
// kSkipVerification
// ---------------------------------------------------------------------------

void SkipVerificationAgent::on_coherence_certificate(
    const core::Certificate&) {
  // Ignore mismatches entirely.
}

void SkipVerificationAgent::on_coherence_digest(std::uint64_t) {
  // Ignore mismatches entirely.
}

void SkipVerificationAgent::finalize(const sim::Context&) {
  if (has_min_certificate()) {
    decide(min_certificate().color);
  } else {
    fail_protocol();
  }
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

core::AgentFactory make_deviating_factory(DeviationStrategy s,
                                          CoalitionPtr coalition) {
  return [s, coalition](sim::AgentId /*id*/, const core::ProtocolParams& params,
                        core::Color color)
             -> std::unique_ptr<core::ProtocolAgent> {
    switch (s) {
      case DeviationStrategy::kHonest:
        return nullptr;  // Runner installs a plain honest agent.
      case DeviationStrategy::kSelfishVoting:
        return std::make_unique<SelfishVotingAgent>(params, color, coalition);
      case DeviationStrategy::kForgedEmptyCert:
        return std::make_unique<ForgedEmptyCertAgent>(params, color,
                                                      coalition);
      case DeviationStrategy::kForgedCoalitionCert:
        return std::make_unique<ForgedCoalitionCertAgent>(params, color,
                                                          coalition);
      case DeviationStrategy::kVoteDrop:
        return std::make_unique<VoteDropAgent>(params, color, coalition);
      case DeviationStrategy::kEquivocate:
        return std::make_unique<EquivocatingAgent>(params, color, coalition);
      case DeviationStrategy::kPlayDead:
        return std::make_unique<PlayDeadAgent>(params, color, coalition);
      case DeviationStrategy::kFindMinSuppress:
        return std::make_unique<FindMinSuppressAgent>(params, color,
                                                      coalition);
      case DeviationStrategy::kStubbornCert:
        return std::make_unique<StubbornCertAgent>(params, color, coalition);
      case DeviationStrategy::kAdaptiveVote:
        return std::make_unique<AdaptiveVoteAgent>(params, color, coalition);
      case DeviationStrategy::kSkipVerification:
        return std::make_unique<SkipVerificationAgent>(params, color,
                                                       coalition);
    }
    return nullptr;
  };
}

}  // namespace rfc::rational
