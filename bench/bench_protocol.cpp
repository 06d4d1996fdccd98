// Microbenchmarks of Protocol P end to end: one full execution per
// iteration, at several network sizes and fault levels, plus the
// verification audit in isolation.
#include <benchmark/benchmark.h>

#include "core/runner.hpp"
#include "core/verification.hpp"
#include "support/rng.hpp"

namespace {

void BM_ProtocolRun(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto fault_pct = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t seed = 3;
  for (auto _ : state) {
    rfc::core::RunConfig cfg;
    cfg.n = n;
    cfg.gamma = 4.0;
    cfg.seed = seed++;
    cfg.num_faulty = n * fault_pct / 100;
    cfg.placement = fault_pct ? rfc::sim::FaultPlacement::kRandom
                              : rfc::sim::FaultPlacement::kNone;
    const auto result = rfc::core::run_protocol(cfg);
    benchmark::DoNotOptimize(result.winner);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ProtocolRun)
    ->Args({256, 0})
    ->Args({1024, 0})
    ->Args({4096, 0})
    ->Args({1024, 30});

void BM_VerifyCertificate(benchmark::State& state) {
  // A realistic audit: certificate with Θ(log n) votes checked against a
  // commitment map with Θ(log^2 n) entries.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto params = rfc::core::ProtocolParams::make(n, 4.0);
  rfc::support::Xoshiro256 rng(99);

  rfc::core::CollectedIntentions collected;
  rfc::core::Certificate cert;
  cert.owner = 0;
  cert.color = 1;
  for (std::uint32_t v = 1; v <= params.q; ++v) {
    rfc::core::VoteIntention intention(params.q);
    for (std::uint32_t j = 0; j < params.q; ++j) {
      intention[j] = {rng.below(params.m),
                      static_cast<rfc::sim::AgentId>(rng.below(n))};
    }
    // One declared vote per audited peer lands on the owner.
    const std::uint32_t j = v % params.q;
    intention[j].target = 0;
    cert.votes.push_back({v, j, intention[j].value});
    collected.append_kept(v, std::make_shared<const rfc::core::IntentionBox>(
                                 rfc::core::IntentionBox{std::move(intention)}));
  }
  cert.k = cert.vote_sum(params);

  for (auto _ : state) {
    const auto result =
        rfc::core::verify_certificate(params, cert, collected);
    benchmark::DoNotOptimize(result.failure);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VerifyCertificate)->Arg(1024)->Arg(65536);

}  // namespace
