// Abstract / §7.3 claim: NetCache "reduces the latency of up to 40% of
// queries by 50%". At a load both systems can carry, every cache-hit read
// skips the storage server's service time, so the fraction of queries whose
// latency halves equals the cache hit fraction (<50% for a load-balancing
// cache). This bench measures the full latency distribution at a fixed
// moderate load and reports what fraction of queries got >= 2x faster.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_harness.h"
#include "bench/bench_util.h"
#include "client/workload_driver.h"
#include "core/rack.h"
#include "core/sweep.h"

namespace netcache {
namespace {

struct LatencyRun {
  std::vector<uint64_t> latencies;
  uint64_t events = 0;
  double wall_ms = 0;
};

std::vector<uint64_t> CollectLatencies(bench::BenchHarness& harness, bool cache_enabled,
                                       double rate_qps, uint64_t* events_out) {
  RackConfig cfg;
  cfg.sim_threads = harness.sim_threads();
  cfg.num_servers = 16;
  cfg.num_clients = 1;
  cfg.cache_enabled = cache_enabled;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = 4096;
  cfg.switch_config.indexes_per_pipe = 4096;
  cfg.switch_config.stats.counter_slots = 4096;
  cfg.server_template.service_rate_qps = 50e3;
  cfg.client_template.reply_timeout = 50 * kMillisecond;
  cfg.controller_config.cache_capacity = 64;
  Rack rack(cfg);
  harness.RecordEffectiveSimThreads(rack.sim().sim_threads());
  constexpr uint64_t kNumKeys = 100'000;
  rack.Populate(kNumKeys, 128);

  WorkloadConfig wl;
  wl.num_keys = kNumKeys;
  wl.zipf_alpha = 0.99;
  wl.seed = 21;
  WorkloadGenerator gen(wl);
  if (cache_enabled) {
    std::vector<Key> hot;
    for (uint64_t id : gen.popularity().TopKeys(64)) {
      hot.push_back(Key::FromUint64(id));
    }
    rack.WarmCache(hot);
  }

  // Record per-query latencies through a callback (the histogram loses the
  // raw samples, and we want exact per-query fractions here).
  std::vector<uint64_t> latencies;
  DriverConfig dc;
  dc.rate_qps = rate_qps;
  WorkloadDriver driver(&rack.sim(), &rack.client(0), &gen, rack.OwnerFn(), dc);
  driver.Start();
  rack.sim().RunUntil(100 * kMillisecond);  // warm-up
  rack.client(0).latency().Reset();
  // Sample the steady state via the client's histogram quantiles plus a raw
  // capture of 20K individual queries.
  Simulator& sim = rack.sim();
  for (int i = 0; i < 20000; ++i) {
    sim.Schedule(static_cast<SimDuration>(i) * static_cast<SimDuration>(1e9 / rate_qps),
                 [&rack, &gen, &latencies, &sim] {
                   Query q = gen.Next();
                   SimTime start = sim.Now();
                   rack.client(0).Get(rack.OwnerOf(q.key), q.key,
                                      [&latencies, start, &sim](const Status& s, const Value&) {
                                        if (s.ok()) {
                                          latencies.push_back(sim.Now() - start);
                                        }
                                      });
                 });
  }
  rack.sim().RunUntil(rack.sim().Now() + 500 * kMillisecond);
  driver.Stop();
  rack.sim().RunUntil(rack.sim().Now() + 50 * kMillisecond);
  *events_out = rack.sim().events_processed();
  return latencies;
}

void Run(bench::BenchHarness& harness) {
  bench::PrintHeader(
      "Abstract claim: 'reduces the latency of up to 40% of queries by 50%' "
      "(16 servers x 50 KQPS, zipf-0.99 over 100K keys, 64 cached items,\n"
      "100 KQPS offered — uncongested, so only cache hits change)");
  const std::vector<bool> systems = {false, true};
  std::vector<LatencyRun> runs =
      RunSweep(systems, harness.sweep_options(),
               [&harness](bool cached, uint64_t /*seed*/, size_t /*index*/) {
        auto start = std::chrono::steady_clock::now();
        LatencyRun run;
        run.latencies = CollectLatencies(harness, cached, 100e3, &run.events);
        std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        run.wall_ms = elapsed.count();
        return run;
      });
  std::vector<uint64_t>& base = runs[0].latencies;
  std::vector<uint64_t>& nc = runs[1].latencies;
  std::sort(base.begin(), base.end());
  std::sort(nc.begin(), nc.end());

  auto quantile = [](const std::vector<uint64_t>& v, double q) {
    return v.empty() ? 0.0
                     : static_cast<double>(v[static_cast<size_t>(q * (v.size() - 1))]) / 1e3;
  };
  std::printf("%-10s | %9s %9s %9s %9s %9s\n", "system", "p10", "p25", "p50", "p90", "p99");
  std::printf("%-10s | %7.1fus %7.1fus %7.1fus %7.1fus %7.1fus\n", "NoCache",
              quantile(base, 0.10), quantile(base, 0.25), quantile(base, 0.50),
              quantile(base, 0.90), quantile(base, 0.99));
  std::printf("%-10s | %7.1fus %7.1fus %7.1fus %7.1fus %7.1fus\n", "NetCache",
              quantile(nc, 0.10), quantile(nc, 0.25), quantile(nc, 0.50), quantile(nc, 0.90),
              quantile(nc, 0.99));

  // Fraction of the distribution at least halved: compare quantile-wise.
  size_t n = std::min(base.size(), nc.size());
  size_t halved = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t bi = i * base.size() / n;
    size_t ni = i * nc.size() / n;
    if (static_cast<double>(nc[ni]) <= 0.5 * static_cast<double>(base[bi])) {
      ++halved;
    }
  }
  std::printf("\n  quantiles with latency reduced by >= 50%%: %.0f%% of queries\n",
              100.0 * static_cast<double>(halved) / static_cast<double>(n));
  for (size_t i = 0; i < runs.size(); ++i) {
    const std::vector<uint64_t>& v = i == 0 ? base : nc;
    bench::TrialRecord rec;
    rec.label = i == 0 ? "nocache" : "netcache";
    rec.Config("cache_enabled", static_cast<double>(i))
        .Metric("p50_us", quantile(v, 0.50))
        .Metric("p90_us", quantile(v, 0.90))
        .Metric("p99_us", quantile(v, 0.99));
    if (i == 1) {
      rec.Metric("halved_fraction",
                 static_cast<double>(halved) / static_cast<double>(n));
    }
    rec.wall_ms = runs[i].wall_ms;
    rec.events = runs[i].events;
    harness.AddTrialRecord(std::move(rec));
  }
  bench::PrintNote("");
  bench::PrintNote("Paper: up to 40% of queries see their latency halved — the cache-hit");
  bench::PrintNote("fraction of a load-balancing cache, which §1 bounds below 50%.");
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) {
  netcache::bench::BenchHarness harness(argc, argv, "tab_latency_cdf");
  netcache::Run(harness);
  return harness.Finish();
}
