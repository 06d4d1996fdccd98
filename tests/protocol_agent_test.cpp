// White-box tests of the honest ProtocolAgent driven through a real engine.
#include "core/protocol_agent.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/payloads.hpp"
#include "core/runner.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/scheduler_spec.hpp"
#include "support/arena.hpp"
#include "support/rng.hpp"

namespace rfc::core {
namespace {

struct World {
  explicit World(std::uint32_t n, double gamma = 2.0, std::uint64_t seed = 1)
      : params(ProtocolParams::make(n, gamma)), engine({n, seed}) {
    for (std::uint32_t i = 0; i < n; ++i) {
      auto agent = std::make_unique<ProtocolAgent>(
          params, static_cast<Color>(i % 3));
      agents.push_back(agent.get());
      engine.set_agent(i, std::move(agent));
    }
  }
  void run_all() { engine.run(params.total_rounds() + 4); }

  ProtocolParams params;
  sim::Engine engine;
  std::vector<ProtocolAgent*> agents;
};

TEST(ProtocolAgent, IntentionHasCorrectShape) {
  World w(64);
  w.engine.step();  // on_start runs before round 0.
  for (const auto* agent : w.agents) {
    const VoteIntention& h = agent->intention();
    ASSERT_EQ(h.size(), w.params.q);
    for (const VoteEntry& e : h) {
      EXPECT_LT(e.value, w.params.m);
      EXPECT_LT(e.target, w.params.n);
    }
  }
}

TEST(ProtocolAgent, IntentionsVaryAcrossAgents) {
  World w(32);
  w.engine.step();
  std::set<std::uint64_t> first_values;
  for (const auto* agent : w.agents) {
    first_values.insert(agent->intention().front().value);
  }
  EXPECT_GT(first_values.size(), 30u);  // Collisions vanishingly unlikely.
}

TEST(ProtocolAgent, CommitmentCollectsOnePullPerRound) {
  World w(64);
  for (std::uint32_t r = 0; r < w.params.q; ++r) w.engine.step();
  for (const auto* agent : w.agents) {
    // Up to q records (self-pulls and repeats dedupe).
    EXPECT_GE(agent->collected_intentions().size(), 1u);
    EXPECT_LE(agent->collected_intentions().size(), w.params.q);
    for (const auto& [peer, record] : agent->collected_intentions()) {
      EXPECT_LT(peer, w.params.n);
      EXPECT_FALSE(record.marked_faulty());  // Everyone honest & active.
      ASSERT_NE(record.box(), nullptr);
      EXPECT_EQ(record.intention().size(), w.params.q);
    }
  }
}

TEST(ProtocolAgent, FaultyPeersAreMarkedFaulty) {
  World w(32);
  // Make half the network faulty before starting.
  for (std::uint32_t i = 16; i < 32; ++i) w.engine.set_faulty(i);
  for (std::uint32_t r = 0; r < w.params.q; ++r) w.engine.step();
  bool saw_faulty_mark = false;
  for (std::uint32_t i = 0; i < 16; ++i) {
    for (const auto& [peer, record] :
         w.agents[i]->collected_intentions()) {
      if (peer >= 16) {
        EXPECT_TRUE(record.marked_faulty());
        saw_faulty_mark = true;
      } else {
        EXPECT_FALSE(record.marked_faulty());
      }
    }
  }
  EXPECT_TRUE(saw_faulty_mark);  // With q pulls over 32 labels, certain.
}

TEST(ProtocolAgent, VotesMatchDeclaredIntentions) {
  World w(64);
  for (std::uint32_t r = 0; r < 2 * w.params.q; ++r) w.engine.step();
  // Cross-check: every received vote (v, j, h) equals H_v[j] and targets
  // the receiver.
  for (std::uint32_t i = 0; i < 64; ++i) {
    for (const ReceivedVote& vote : w.agents[i]->received_votes()) {
      const VoteIntention& hv = w.agents[vote.voter]->intention();
      EXPECT_EQ(hv.at(vote.round_index).value, vote.value);
      EXPECT_EQ(hv.at(vote.round_index).target, i);
    }
  }
}

TEST(ProtocolAgent, TotalVotesEqualsActiveTimesQ) {
  World w(64);
  for (std::uint32_t r = 0; r < 2 * w.params.q; ++r) w.engine.step();
  std::size_t total = 0;
  for (const auto* agent : w.agents) total += agent->received_votes().size();
  EXPECT_EQ(total, 64ull * w.params.q);
}

TEST(ProtocolAgent, CertificateBuiltAtFindMinStart) {
  World w(64);
  for (std::uint32_t r = 0; r < 2 * w.params.q; ++r) w.engine.step();
  for (const auto* agent : w.agents) {
    EXPECT_FALSE(agent->has_own_certificate());
  }
  w.engine.step();
  for (const auto* agent : w.agents) {
    ASSERT_TRUE(agent->has_own_certificate());
    const Certificate& ce = agent->own_certificate();
    EXPECT_EQ(ce.k, ce.vote_sum(w.params));
    EXPECT_EQ(ce.votes.size(), agent->received_votes().size());
  }
}

TEST(ProtocolAgent, FindMinReachesGlobalMinimum) {
  World w(128, 4.0);
  for (std::uint32_t r = 0; r < 3 * w.params.q; ++r) w.engine.step();
  Certificate global_min = w.agents[0]->own_certificate();
  for (const auto* agent : w.agents) {
    if (agent->own_certificate().less_than(global_min)) {
      global_min = agent->own_certificate();
    }
  }
  for (const auto* agent : w.agents) {
    EXPECT_EQ(agent->min_certificate(), global_min);
  }
}

TEST(ProtocolAgent, FullRunDecidesUnanimously) {
  World w(128, 4.0);
  w.run_all();
  ASSERT_TRUE(w.agents[0]->decided());
  const Color winner = w.agents[0]->decision();
  EXPECT_NE(winner, kNoColor);
  for (const auto* agent : w.agents) {
    EXPECT_TRUE(agent->decided());
    EXPECT_FALSE(agent->failed());
    EXPECT_EQ(agent->decision(), winner);
    EXPECT_EQ(agent->verification_failure(), VerificationFailure::kNone);
  }
}

TEST(ProtocolAgent, WinnerColorBelongsToMinCertOwner) {
  World w(64, 3.0);
  w.run_all();
  const Certificate& min_cert = w.agents[0]->min_certificate();
  EXPECT_EQ(w.agents[0]->decision(),
            w.agents[min_cert.owner]->initial_color());
}

TEST(ProtocolAgent, AuditRecordsShareThePeersReplyBox) {
  // L_u keeps the immutable box a Commitment reply arrived in: an honest
  // agent's record for an honest peer is that peer's reply object, never a
  // per-record copy.
  World w(256, 4.0);
  for (std::uint32_t r = 0; r < w.params.q; ++r) w.engine.step();
  std::size_t shared = 0;
  for (const auto* agent : w.agents) {
    for (const auto& [peer, record] : agent->collected_intentions()) {
      const VoteIntention* box =
          intention_in(w.agents[peer]->intention_payload());
      ASSERT_NE(box, nullptr);
      EXPECT_EQ(&record.intention(), box);
      ++shared;
    }
  }
  EXPECT_GT(shared, 256u);
}

TEST(ProtocolAgent, FindMinConvergesOnOneSharedBox) {
  // Adopting a heap-boxed certificate keeps its payload, so after Find-Min
  // every honest agent serves the winner's very object.
  World w(256, 4.0);
  for (std::uint32_t r = 0; r < 3 * w.params.q; ++r) w.engine.step();
  const Certificate* box =
      certificate_in(w.agents[0]->min_certificate_payload());
  ASSERT_NE(box, nullptr);
  for (const auto* agent : w.agents) {
    EXPECT_EQ(certificate_in(agent->min_certificate_payload()), box);
  }
}

TEST(ProtocolAgent, IntentionAndOwnCertificateLiveOnlyInTheirBoxes) {
  // One copy of H_u and CE_u per agent: the accessors read the very objects
  // the agent serves, not member copies of them.
  World w(64, 4.0);
  for (std::uint32_t r = 0; r <= 2 * w.params.q; ++r) w.engine.step();
  for (const auto* agent : w.agents) {
    ASSERT_TRUE(agent->has_own_certificate());
    EXPECT_EQ(&agent->intention(), intention_in(agent->intention_payload()));
    EXPECT_EQ(&agent->own_certificate(),
              certificate_in(agent->own_certificate_payload()));
  }
}

TEST(ProtocolAgent, FaultFreeRunEndsWithOneMinCertificateObject) {
  // After a fault-free run every honest agent's CE_min is the same object,
  // read straight through the shared box.
  World w(256, 4.0);
  w.run_all();
  const Certificate* min = &w.agents[0]->min_certificate();
  for (const auto* agent : w.agents) {
    ASSERT_TRUE(agent->decided());
    ASSERT_FALSE(agent->failed());
    EXPECT_EQ(&agent->min_certificate(), min);
  }
}

TEST(ProtocolAgent, ServedBoxesAreCountedOnlyByOwnersAndAuditRecords) {
  // H_u and CE_u are served, pushed and adopted as pinned views, and L_u
  // records filed from pinned replies view H_u boxes too, so after a
  // fault-free run nothing but its owner holds a CE_u or an H_u box, even
  // though the L_u records name the H_u boxes.
  World w(256, 4.0);
  w.run_all();
  std::map<const VoteIntention*, long> records;
  for (const auto* agent : w.agents) {
    ASSERT_TRUE(agent->decided());
    ASSERT_FALSE(agent->failed());
    EXPECT_TRUE(agent->min_certificate_payload().is_pinned());
    for (const auto& [peer, record] : agent->collected_intentions()) {
      ++records[&record.intention()];
    }
  }
  long named = 0;  // Records naming an owner's H_u box.
  for (const auto* agent : w.agents) {
    const auto certificate =
        agent->own_certificate_payload().shared_as<Certificate>(
            kCertificatePayloadTag);
    ASSERT_NE(certificate, nullptr);
    EXPECT_EQ(certificate.use_count() - 1, 1);
    const auto intention =
        agent->intention_payload().shared_as<IntentionBox>(
            kIntentionPayloadTag);
    ASSERT_NE(intention, nullptr);
    EXPECT_EQ(intention.use_count() - 1, 1);
    named += records[&intention->intention];
  }
  // Every record names some owner's box, so the count of 1 above holds
  // for boxes that L_u does name.
  long filed = 0;
  for (const auto& [box, count] : records) filed += count;
  EXPECT_EQ(named, filed);
  EXPECT_GT(named, 256);
}

/// The honest agent, counting its build_own_certificate calls.
class BuildCountingAgent final : public ProtocolAgent {
 public:
  BuildCountingAgent(const ProtocolParams& params, Color color,
                     std::vector<int>* builds)
      : ProtocolAgent(params, color), builds_(builds) {}

 protected:
  Certificate build_own_certificate(const sim::Context& ctx) override {
    ++(*builds_)[ctx.self];
    return ProtocolAgent::build_own_certificate(ctx);
  }

 private:
  std::vector<int>* builds_;
};

TEST(ProtocolAgent, OwnCertificateIsBuiltAtMostOnceUnderEveryScheduler) {
  // CE_u's box must never be reassigned, since CE_min payloads across the
  // network are pinned views of it: no activation policy may build it
  // twice for one agent.
  constexpr std::uint32_t kN = 64;
  for (const char* spec :
       {"synchronous", "sequential",
        "adversarial:victim_fraction=0.25,budget=64", "poisson:rate=2",
        "partial-async:p=0.4"}) {
    SCOPED_TRACE(spec);
    RunConfig cfg;
    cfg.n = kN;
    cfg.gamma = 4.0;
    cfg.seed = 3;
    cfg.scheduler = sim::SchedulerSpec::parse(spec);
    const ProtocolParams params = ProtocolParams::make(kN, cfg.gamma);
    sim::Engine engine({kN, cfg.seed, nullptr, cfg.scheduler.make()});
    std::vector<int> builds(kN, 0);
    for (std::uint32_t i = 0; i < kN; ++i) {
      engine.set_agent(i, std::make_unique<BuildCountingAgent>(
                              params, static_cast<Color>(i % 3), &builds));
    }
    run_protocol_on(engine, cfg);
    int total = 0;
    for (const int b : builds) {
      EXPECT_LE(b, 1);
      total += b;
    }
    if (std::string(spec) == "synchronous") {
      EXPECT_EQ(total, int{kN});
    }
  }
}

TEST(ProtocolAgent, VerdictStampedForOtherParamsIsRecomputed) {
  // A box stamped well-formed for n=64 holds a target outside [32]; an n=32
  // auditor must not trust that verdict, and marks the peer faulty.
  const ProtocolParams p32 = ProtocolParams::make(32, 2.0);
  ProtocolParams p64_stamp = p32;
  p64_stamp.n = 64;
  VoteIntention h(p32.q, {1, 3});
  h.back().target = 40;
  const sim::Payload reply = make_intention_payload(h, p64_stamp);
  ASSERT_NE(intention_box_in(reply), nullptr);
  ASSERT_TRUE(intention_box_in(reply)->well_formed);

  ProtocolAgent auditor(p32, 0);
  sim::Context ctx;
  ctx.self = 0;
  ctx.n = 32;
  ctx.round = 0;  // Commitment.
  auditor.on_pull_reply(ctx, 5, reply);
  auditor.on_pull_reply(ctx, 6, make_intention_payload(h, p32));
  h.back().target = 20;
  auditor.on_pull_reply(ctx, 7, make_intention_payload(h, p64_stamp));

  const CollectedIntentions& collected = auditor.collected_intentions();
  ASSERT_EQ(collected.size(), 3u);
  EXPECT_TRUE(collected.find(5)->second.marked_faulty());
  EXPECT_TRUE(collected.find(6)->second.marked_faulty());
  EXPECT_FALSE(collected.find(7)->second.marked_faulty());
}

TEST(ProtocolAgent, PeerPulledTwiceKeepsItsFirstDeclaration) {
  // First declaration wins (the h* of Theorem 7's proof): a second,
  // different reply from a peer neither replaces its record nor adds one,
  // and a peer first marked faulty stays marked.  Records keep arrival
  // order.
  const ProtocolParams p = ProtocolParams::make(32, 2.0);
  ProtocolAgent auditor(p, 0);
  sim::Context ctx;
  ctx.self = 0;
  ctx.n = 32;
  ctx.round = 0;  // Commitment.
  const VoteIntention declared(p.q, {1, 3});
  const sim::Payload first = make_intention_payload(declared, p);
  auditor.on_pull_reply(ctx, 9, first);
  auditor.on_pull_reply(ctx, 4, sim::Payload{});
  auditor.on_pull_reply(ctx, 9,
                        make_intention_payload(VoteIntention(p.q, {2, 7}), p));
  auditor.on_pull_reply(ctx, 4, make_intention_payload(declared, p));

  const CollectedIntentions& collected = auditor.collected_intentions();
  ASSERT_EQ(collected.size(), 2u);
  EXPECT_EQ(collected.begin()->first, 9u);
  const auto it = collected.find(9);
  ASSERT_NE(it, collected.end());
  EXPECT_EQ(&it->second.intention(), intention_in(first));
  EXPECT_EQ(it->second.intention(), declared);
  EXPECT_EQ(it->second.targets(), target_summary(declared));
  EXPECT_TRUE(collected.find(4)->second.marked_faulty());
}

/// A Commitment-round context for driving one agent's on_pull_reply.
sim::Context commitment_context(const ProtocolParams& p) {
  sim::Context ctx;
  ctx.self = 0;
  ctx.n = p.n;
  ctx.round = 0;
  return ctx;
}

TEST(ProtocolAgent, RecordOfAHeapReplyOutlivesEveryOtherHandle) {
  // A reply that is no pinned view (here a plain heap box and a
  // network-tampered copy) is kept by L_u's own handle: the record still
  // reads the declared H once every other handle to the box is gone.
  const ProtocolParams p = ProtocolParams::make(32, 2.0);
  ProtocolAgent auditor(p, 0);
  const sim::Context ctx = commitment_context(p);
  const VoteIntention declared(p.q, {1, 3});
  VoteIntention tampered_h;
  {
    const sim::Payload reply = make_intention_payload(declared, p);
    const sim::Payload tampered = sim::corrupt_payload(reply, 5);
    ASSERT_NE(intention_in(tampered), nullptr);
    tampered_h = *intention_in(tampered);
    auditor.on_pull_reply(ctx, 9, reply);
    auditor.on_pull_reply(ctx, 4, tampered);
  }
  const CollectedIntentions& collected = auditor.collected_intentions();
  ASSERT_EQ(collected.size(), 2u);
  const CommitmentRecord honest = collected.find(9)->second;
  ASSERT_FALSE(honest.marked_faulty());
  EXPECT_EQ(honest.intention(), declared);
  EXPECT_EQ(honest.targets(), target_summary(declared));
  const CommitmentRecord lie = collected.find(4)->second;
  ASSERT_FALSE(lie.marked_faulty());
  EXPECT_EQ(lie.intention(), tampered_h);
}

TEST(ProtocolAgent, RecordOfAnArenaReplySurvivesArenaRelease) {
  // An arena reply dies with its round's arena, so the record is a heap
  // copy of the box, verdict and summary included.
  const ProtocolParams p = ProtocolParams::make(32, 2.0);
  ProtocolAgent auditor(p, 0);
  const sim::Context ctx = commitment_context(p);
  VoteIntention declared(p.q, {1, 3});
  declared.back().target = 17;
  const IntentionBox* arena_box = nullptr;
  {
    auto arena = std::make_unique<rfc::support::Arena>();
    const sim::Payload reply =
        make_intention_payload_in(arena.get(), declared, p);
    ASSERT_TRUE(reply.is_arena_boxed());
    arena_box = intention_box_in(reply);
    auditor.on_pull_reply(ctx, 9, reply);
    arena->reset();  // The round barrier: the arena's objects die.
  }  // ~Arena releases its chunks.
  const CommitmentRecord record =
      auditor.collected_intentions().find(9)->second;
  ASSERT_FALSE(record.marked_faulty());
  EXPECT_NE(record.box(), arena_box);
  EXPECT_EQ(record.intention(), declared);
  EXPECT_EQ(record.targets(), target_summary(declared));
  EXPECT_TRUE(record.box()->well_formed);
  EXPECT_TRUE(record.box()->stamped_for(p));
}

TEST(ProtocolAgent, FilteredRecordLookupMatchesAPlainScan) {
  // Differential fuzz of L_u's lookup (a label filter, then a branch-free
  // scan) against a plain first-declaration-wins list.  Pulled labels come
  // from a few filter bits (b + 64 k), peers are pulled repeatedly, up to
  // 2q distinct peers file records, and replies are pinned views, heap
  // boxes, arena boxes, malformed or empty.
  const ProtocolParams p = ProtocolParams::make(4096, 2.0);
  const sim::Context ctx = commitment_context(p);
  rfc::support::Xoshiro256 rng(2026);
  struct Expected {
    sim::AgentId peer;
    const IntentionBox* box;  ///< The reply's box; null if marked faulty.
    bool copied;              ///< Arena reply: the record is a copy.
  };
  std::size_t shared_bits = 0;
  for (int rep = 0; rep < 200; ++rep) {
    ProtocolAgent auditor(p, 0);
    rfc::support::Arena arena;
    std::vector<sim::AgentId> bits(1 + rng.below(4));
    for (sim::AgentId& b : bits) b = static_cast<sim::AgentId>(rng.below(64));
    const std::uint64_t distinct = 1 + rng.below(2 * p.q);
    // Owners of the pinned replies, never reallocated while viewed.
    std::vector<sim::Payload> owners;
    owners.reserve(4 * p.q);
    std::vector<Expected> expected;
    for (std::uint32_t pull = 0; pull < 4 * p.q; ++pull) {
      const auto peer = static_cast<sim::AgentId>(
          bits[rng.below(bits.size())] + 64 * rng.below(p.n / 64));
      const bool fresh =
          std::none_of(expected.begin(), expected.end(),
                       [&](const Expected& e) { return e.peer == peer; });
      if (fresh && expected.size() == distinct) continue;
      VoteIntention h(p.q);
      for (VoteEntry& e : h) {
        e = {rng.below(p.m), static_cast<sim::AgentId>(rng.below(p.n))};
      }
      sim::Payload reply;
      switch (rng.below(5)) {
        case 0: break;  // Silent.
        case 1: reply = make_intention_payload(h, p); break;
        case 2:
          owners.push_back(make_intention_payload(h, p));
          reply = owners.back().pinned();
          break;
        case 3: reply = make_intention_payload_in(&arena, h, p); break;
        default:
          h.pop_back();  // Malformed: one entry short.
          reply = make_intention_payload(h, p);
          break;
      }
      auditor.on_pull_reply(ctx, peer, reply);
      if (!fresh) continue;
      const IntentionBox* box = intention_box_in(reply);
      expected.push_back({peer, box != nullptr && box->well_formed ? box
                                                                   : nullptr,
                          reply.is_arena_boxed()});
      shared_bits += expected.size() > 1 &&
                     std::any_of(expected.begin(), expected.end() - 1,
                                 [&](const Expected& e) {
                                   return (e.peer & 63) == (peer & 63);
                                 });
    }
    arena.reset();

    const CollectedIntentions& collected = auditor.collected_intentions();
    ASSERT_EQ(collected.size(), expected.size()) << "rep " << rep;
    auto it = collected.begin();
    for (const Expected& e : expected) {
      const auto [peer, record] = *it++;
      EXPECT_EQ(peer, e.peer);
      EXPECT_EQ(record.marked_faulty(), e.box == nullptr);
      if (e.box != nullptr && !e.copied) {
        EXPECT_EQ(record.box(), e.box);
      }
    }
    for (sim::AgentId label = 0; label < p.n; ++label) {
      const auto want =
          std::find_if(expected.begin(), expected.end(),
                       [&](const Expected& e) { return e.peer == label; });
      const auto got = collected.find(label);
      ASSERT_EQ(got == collected.end(), want == expected.end())
          << "rep " << rep << ", label " << label;
      EXPECT_EQ(collected.contains(label), want != expected.end());
      if (want == expected.end()) continue;
      EXPECT_EQ(got->first, label);
      const std::size_t index =
          static_cast<std::size_t>(want - expected.begin());
      std::size_t at = 0;
      for (auto scan = collected.begin(); scan != got; ++scan) ++at;
      EXPECT_EQ(at, index) << "rep " << rep << ", label " << label;
    }
  }
  EXPECT_GT(shared_bits, 1000u);  // Filter collisions are the common case.
}

TEST(ProtocolAgent, CoherenceComparesDistinctBoxesDeeply) {
  // The Coherence check skips the deep compare only for the agent's own
  // CE_min object; any other box is compared by value.
  World w(64, 4.0);
  for (std::uint32_t r = 0; r < 3 * w.params.q; ++r) w.engine.step();
  ProtocolAgent& agent = *w.agents[0];
  sim::Context ctx;
  ctx.self = 0;
  ctx.n = 64;
  ctx.round = w.params.coherence_begin();
  rfc::support::Xoshiro256 rng(1);
  ctx.rng = &rng;

  const sim::Payload equal_copy =
      make_certificate_payload(agent.min_certificate(), w.params);
  ASSERT_NE(certificate_in(equal_copy),
            certificate_in(agent.min_certificate_payload()));
  agent.on_push(ctx, 7, equal_copy);
  EXPECT_FALSE(agent.failed());

  Certificate tampered = agent.min_certificate();
  ASSERT_FALSE(tampered.votes.empty());
  tampered.votes.back().value ^= 1;
  agent.on_push(ctx, 7, make_certificate_payload(tampered, w.params));
  EXPECT_TRUE(agent.failed());
}

TEST(ProtocolAgent, CommitmentPullersAreRecorded) {
  World w(32);
  for (std::uint32_t r = 0; r < w.params.q; ++r) w.engine.step();
  std::size_t total_pulls = 0;
  for (const auto* agent : w.agents) {
    total_pulls += agent->commitment_pullers().size();
  }
  EXPECT_EQ(total_pulls, 32ull * w.params.q);
}

TEST(ProtocolAgent, ServesNothingOutsideProtocolPhases) {
  World w(16);
  // Drive to the Voting phase, where the protocol defines no pulls.
  for (std::uint32_t r = 0; r < w.params.q + 1; ++r) w.engine.step();
  sim::Context ctx;
  ctx.self = 0;
  ctx.n = 16;
  ctx.round = w.params.q + 1;  // Voting.
  rfc::support::Xoshiro256 rng(1);
  ctx.rng = &rng;
  EXPECT_TRUE(w.agents[0]->serve_pull(ctx, 5).empty());
}

TEST(ProtocolAgent, DoneAgentIsQuiescent) {
  World w(16);
  w.run_all();
  ASSERT_TRUE(w.agents[0]->done());
  sim::Context ctx;
  ctx.self = 0;
  ctx.n = 16;
  ctx.round = 0;  // Even a Commitment-phase pull gets silence now.
  rfc::support::Xoshiro256 rng(1);
  ctx.rng = &rng;
  EXPECT_TRUE(w.agents[0]->serve_pull(ctx, 3).empty());
  EXPECT_EQ(w.agents[0]->on_round(ctx).kind, sim::ActionKind::kIdle);
}

TEST(ProtocolAgent, TerminatesWithinScheduledRounds) {
  World w(64);
  const std::uint64_t rounds = w.engine.run(w.params.total_rounds() + 100);
  EXPECT_EQ(rounds, w.params.total_rounds());
}

}  // namespace
}  // namespace rfc::core
