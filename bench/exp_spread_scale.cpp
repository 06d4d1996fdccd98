// Million-agent engine acceptance run: ONE push-pull rumor spread, end to
// end, at --n agents (default 2^20), reporting wall clock, ns per
// agent-round, peak RSS, and the full metrics block.  Like every experiment
// it takes --scheduler=SPEC and --shards=S [--shard-threads=T], so the same
// spread runs through the sharded round (bit-identical to the serial one:
// the digest must not change).
//
// CI's release-bench job runs this at n=2^20 under a wall-clock ceiling —
// the check that the engine's structure-of-arrays hot path, round arenas,
// and cache-blocked delivery actually hold up at scale, not just in
// microbenchmark steady states.  The run also prints an FNV-1a digest of
// (outcome, metrics, informed bitmap), so two engine builds can be
// compared for bit-identical behavior at full scale with grep and diff.
//
// Exits nonzero if the spread does not complete — an incomplete spread at
// these fault-free defaults means the engine lost messages.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include <sys/resource.h>

#include "exp_util.hpp"
#include "gossip/rumor.hpp"
#include "net/state_digest.hpp"
#include "sim/engine.hpp"
#include "sim/fault_model.hpp"
#include "support/cli.hpp"

namespace {

long peak_rss_kib() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux.
}

}  // namespace

int main(int argc, char** argv) {
  const rfc::support::CliArgs args(argc, argv);
  rfc::gossip::SpreadConfig cfg;
  cfg.n = static_cast<std::uint32_t>(args.get_uint("n", 1u << 20));
  cfg.mechanism = rfc::gossip::Mechanism::kPushPull;
  cfg.seed = args.get_uint("seed", 20260809);
  cfg.num_faulty = static_cast<std::uint32_t>(args.get_uint("faulty", 0));
  cfg.placement = cfg.num_faulty == 0 ? rfc::sim::FaultPlacement::kNone
                                      : rfc::sim::FaultPlacement::kRandom;
  cfg.scheduler = rfc::exputil::scheduler_spec(args);
  rfc::exputil::reject_unread(args);

  auto engine = rfc::gossip::build_spread_engine(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  const rfc::gossip::SpreadResult res =
      rfc::gossip::run_rumor_spreading_on(*engine, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  rfc::net::Fnv1a fnv;
  fnv.mix_bool(res.complete);
  fnv.mix_u64(res.rounds);
  fnv.mix_u64(res.metrics.pushes);
  fnv.mix_u64(res.metrics.pull_requests);
  fnv.mix_u64(res.metrics.pull_replies);
  fnv.mix_u64(res.metrics.total_bits);
  fnv.mix_u64(res.metrics.max_message_bits);
  fnv.mix_u64(res.metrics.active_links);
  for (rfc::sim::AgentId u = 0; u < cfg.n; ++u) {
    fnv.mix_bool(
        static_cast<const rfc::gossip::RumorAgent&>(engine->agent(u))
            .informed());
  }

  const double agent_rounds =
      static_cast<double>(cfg.n) * static_cast<double>(res.rounds);
  std::printf("exp_spread_scale: one push-pull spread, end to end\n");
  std::printf("n               %u\n", cfg.n);
  std::printf("scheduler       %s\n", cfg.scheduler.to_string().c_str());
  std::printf("seed            %llu\n",
              static_cast<unsigned long long>(cfg.seed));
  std::printf("complete        %s\n", res.complete ? "yes" : "NO");
  std::printf("rounds          %llu\n",
              static_cast<unsigned long long>(res.rounds));
  std::printf("wall_ms         %.1f\n", wall_ms);
  std::printf("ns_per_agent_round %.2f\n",
              agent_rounds > 0 ? wall_ms * 1e6 / agent_rounds : 0.0);
  std::printf("peak_rss_mib    %.1f\n",
              static_cast<double>(peak_rss_kib()) / 1024.0);
  std::printf("pushes          %llu\n",
              static_cast<unsigned long long>(res.metrics.pushes));
  std::printf("pull_requests   %llu\n",
              static_cast<unsigned long long>(res.metrics.pull_requests));
  std::printf("pull_replies    %llu\n",
              static_cast<unsigned long long>(res.metrics.pull_replies));
  std::printf("total_bits      %llu\n",
              static_cast<unsigned long long>(res.metrics.total_bits));
  std::printf("end_state_digest %016llx\n",
              static_cast<unsigned long long>(fnv.value()));
  return res.complete ? 0 : 1;
}
