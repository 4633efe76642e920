// Figure 10(f): scaling to multiple racks (up to 32 racks x 128 servers =
// 4096 servers), comparing NoCache, Leaf-Cache (ToR only) and
// Leaf-Spine-Cache, using the multi-rack capacity model (§5, §7.3
// "Scalability": simulation, read-only, switches absorb cached queries).
//
// A second leg runs the same leaf-spine topology as packet-level DES
// (core/fabric.h) at a scaled-down size. These trials honour --sim-threads:
// the fabric partitions into one LP per spine (+ its client) and one per
// rack (ToR + servers), with the ToR<->spine propagation as lookahead —
// this is the wall-clock speedup demo for the parallel simulator
// (docs/PERFORMANCE.md, "Parallel DES"). Counters are schedule-independent,
// so the DES metrics are identical for any --sim-threads value.
//
// Extra flags: --des-racks=N   run ONE DES trial at N racks (0 = default
//                              sweep over {1, 4}; 16 is the speedup config)
//              --des-duration-ms=M  simulated time per DES trial (default 200)
//              --lp-checks     arm the LP-ownership sanitizer for the DES
//                              trials (common/lp_ownership.h; CI's TSan leg
//                              runs the 8-worker config with it on)

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "bench/bench_util.h"
#include "client/workload_driver.h"
#include "common/cli.h"
#include "common/lp_ownership.h"
#include "core/fabric.h"
#include "core/multirack.h"
#include "workload/generator.h"

namespace netcache {
namespace {

MultiRackConfig Base(size_t racks, MultiRackMode mode) {
  MultiRackConfig cfg;
  cfg.num_racks = racks;
  cfg.servers_per_rack = 128;
  cfg.server_rate_qps = 10e6;
  cfg.tor_capacity_qps = 2.0e9;
  // One spine switch per 2 racks, as in a modest leaf-spine fabric.
  cfg.num_spines = racks > 1 ? racks / 2 : 1;
  cfg.spine_capacity_qps = 2.0e9;
  cfg.cache_items_per_switch = 10'000;
  cfg.num_keys = 1'000'000'000;
  cfg.zipf_alpha = 0.99;
  cfg.exact_ranks = 1 << 20;
  cfg.mode = mode;
  return cfg;
}

// One packet-level trial of the leaf-spine fabric. Read-only (per §7.3),
// spine caches warmed with the globally hottest keys, one open-loop driver
// per spine client so no generator is shared across partitions.
void RunDesTrial(bench::BenchHarness& harness, size_t racks, SimDuration duration) {
  constexpr uint64_t kNumKeys = 10'000;
  constexpr size_t kWarmKeys = 64;

  FabricConfig cfg;
  cfg.num_racks = racks;
  cfg.servers_per_rack = 4;
  cfg.num_spines = racks >= 8 ? 4 : 2;
  cfg.mode = FabricCacheMode::kSpineOnly;
  for (SwitchConfig* sc : {&cfg.tor_config, &cfg.spine_config}) {
    sc->num_pipes = 1;
    sc->cache_capacity = 1024;
    sc->indexes_per_pipe = 1024;
    sc->stats.counter_slots = 1024;
  }
  cfg.controller_config.cache_capacity = kWarmKeys;
  cfg.server_template.service_rate_qps = 200e3;
  // Cross-rack fiber: 2 us of propagation on every ToR<->spine hop. Under
  // --sim-threads this is the lookahead, so each window batches ~2 us of
  // events per partition between barriers.
  cfg.fabric_propagation = 2 * kMicrosecond;
  cfg.sim_threads = harness.sim_threads();
  Fabric fabric(cfg);
  harness.RecordEffectiveSimThreads(fabric.sim().sim_threads());
  fabric.Populate(kNumKeys, 128);

  // Per-client generators: same popularity law, decorrelated streams.
  std::vector<std::unique_ptr<WorkloadGenerator>> gens;
  std::vector<std::unique_ptr<WorkloadDriver>> drivers;
  DriverConfig dc;
  dc.rate_qps = 400e3;  // per client, read-only
  for (size_t s = 0; s < fabric.num_clients(); ++s) {
    WorkloadConfig wl;
    wl.num_keys = kNumKeys;
    wl.zipf_alpha = 0.99;
    wl.seed = harness.seed() + 1000 * (s + 1);
    gens.push_back(std::make_unique<WorkloadGenerator>(wl));
    drivers.push_back(std::make_unique<WorkloadDriver>(
        &fabric.sim(), &fabric.client(s), gens.back().get(), fabric.OwnerFn(), dc));
  }
  std::vector<Key> hot;
  for (uint64_t id : gens[0]->popularity().TopKeys(kWarmKeys)) {
    hot.push_back(Key::FromUint64(id));
  }
  fabric.WarmCaches(hot);

  bench::TrialRecord rec;
  rec.label = "des_racks=" + std::to_string(racks);
  uint64_t completed = 0;
  {
    bench::TrialTimer timer(&rec);
    for (auto& d : drivers) {
      d->Start();
    }
    fabric.sim().RunUntil(duration);
    for (auto& d : drivers) {
      d->Stop();
      completed += d->completed();
    }
    fabric.sim().RunUntil(duration + 10 * kMillisecond);
    timer.SetEvents(fabric.sim().events_processed());
  }

  double secs = static_cast<double>(duration) / 1e9;
  std::printf("%-8zu %-8zu | DES %s over %.0f ms: spine hits %llu, server reads %llu "
              "(sim-threads=%zu, %zu LPs)\n",
              racks, racks * cfg.servers_per_rack, bench::Qps(completed / secs).c_str(),
              secs * 1e3, static_cast<unsigned long long>(fabric.TotalSpineHits()),
              static_cast<unsigned long long>(fabric.TotalServerReads()),
              fabric.sim().sim_threads(), fabric.sim().num_lps());
  rec.Config("racks", static_cast<double>(racks))
      .Config("spines", static_cast<double>(cfg.num_spines))
      .Config("duration_ms", secs * 1e3)
      .Metric("goodput_qps", static_cast<double>(completed) / secs)
      .Metric("completed", static_cast<double>(completed))
      .Metric("spine_hits", static_cast<double>(fabric.TotalSpineHits()))
      .Metric("tor_hits", static_cast<double>(fabric.TotalTorHits()))
      .Metric("server_reads", static_cast<double>(fabric.TotalServerReads()));
  uint64_t windows = fabric.sim().windows_run();
  uint64_t merged = 0;
  for (size_t lp = 1; lp <= fabric.sim().num_lps(); ++lp) {
    merged += fabric.sim().lp_windows_merged(lp);
  }
  rec.Metric("windows", static_cast<double>(windows))
      .Metric("windows_merged", static_cast<double>(merged))
      .Metric("avg_events_per_window",
              windows > 0 ? static_cast<double>(fabric.sim().events_processed()) /
                                static_cast<double>(windows)
                          : 0.0);
  harness.AddTrialRecord(std::move(rec));
}

void Run(bench::BenchHarness& harness, size_t des_racks, SimDuration des_duration) {
  bench::PrintHeader(
      "Figure 10(f): scalability to 32 racks (128 servers/rack, zipf-0.99, "
      "read-only)");
  std::printf("%-8s %-8s | %14s %14s %14s\n", "racks", "servers", "NoCache", "LeafCache",
              "LeafSpine");
  for (size_t racks : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul}) {
    MultiRackResult none = SolveMultiRack(Base(racks, MultiRackMode::kNoCache));
    MultiRackResult leaf = SolveMultiRack(Base(racks, MultiRackMode::kLeafCache));
    MultiRackResult spine = SolveMultiRack(Base(racks, MultiRackMode::kLeafSpineCache));
    std::printf("%-8zu %-8zu | %14s %14s %14s\n", racks, racks * 128,
                bench::Qps(none.total_qps).c_str(), bench::Qps(leaf.total_qps).c_str(),
                bench::Qps(spine.total_qps).c_str());
    harness.AddTrial("racks=" + std::to_string(racks))
        .Config("racks", static_cast<double>(racks))
        .Config("servers", static_cast<double>(racks * 128))
        .Metric("nocache_qps", none.total_qps)
        .Metric("leafcache_qps", leaf.total_qps)
        .Metric("leafspine_qps", spine.total_qps);
  }

  // Who binds each configuration at 32 racks?
  MultiRackResult leaf32 = SolveMultiRack(Base(32, MultiRackMode::kLeafCache));
  MultiRackResult spine32 = SolveMultiRack(Base(32, MultiRackMode::kLeafSpineCache));
  bench::PrintNote("");
  std::printf("  at 32 racks: LeafCache limited by '%s' (tor share %s); LeafSpine limited "
              "by '%s' (spine share %s)\n",
              leaf32.limited_by.c_str(), bench::Qps(leaf32.tor_qps).c_str(),
              spine32.limited_by.c_str(), bench::Qps(spine32.spine_qps).c_str());
  bench::PrintNote("");
  bench::PrintNote("Paper: NoCache stays flat as servers are added; Leaf-Cache balances only");
  bench::PrintNote("within racks and plateaus; Leaf-Spine-Cache grows linearly.");

  bench::PrintNote("");
  bench::PrintHeader("Packet-level leaf-spine DES (4 servers/rack, spine caches warmed)");
  if (des_racks > 0) {
    RunDesTrial(harness, des_racks, des_duration);
  } else {
    for (size_t racks : {1ul, 4ul}) {
      RunDesTrial(harness, racks, des_duration);
    }
  }
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) {
  netcache::bench::BenchHarness harness(argc, argv, "fig10f_scalability");
  netcache::ArgParser args(argc, argv);
  if (args.GetBool("lp-checks", false)) {
#if NETCACHE_LP_CHECKS
    netcache::lp::SetChecksEnabled(true);
#else
    std::fprintf(stderr, "--lp-checks ignored: built with -DNETCACHE_LP_CHECKS=OFF\n");
#endif
  }
  size_t des_racks = static_cast<size_t>(args.GetInt("des-racks", 0));
  netcache::SimDuration des_duration =
      static_cast<netcache::SimDuration>(args.GetInt("des-duration-ms", 200)) *
      netcache::kMillisecond;
  if (!args.ok()) {
    for (const std::string& err : args.errors()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
    }
    return 2;
  }
  netcache::Run(harness, des_racks, des_duration);
  return harness.Finish();
}
