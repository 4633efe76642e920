// Figure 11: handling dynamic workloads (hot-in / random / hot-out), via
// packet-level simulation with the full control loop active: heavy-hitter
// detection in the switch, controller insertions/evictions rate-limited at
// the control plane, per-second statistics resets, and a client that adapts
// its send rate to observed loss — the §7.4 server-emulation methodology.
//
// Scaling: the paper emulates 128 partitions (each at 1/64 of a server's
// rate) with a 10K cache and 200-key churn. We run 8 partitions x 10 KQPS
// with a 300-item cache and proportional churn (hot-in 60 keys / 10 s,
// random 30 keys / s, hot-out 60 keys / s); relative throughput dips and
// recovery are the object of the experiment, not absolute rates (§7.1).

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

enum class Churn { kHotIn, kRandom, kHotOut };

constexpr uint64_t kNumKeys = 20'000;
constexpr size_t kCacheItems = 300;
constexpr SimDuration kRunTime = 30 * kSecond;

struct WorkloadResult {
  std::vector<double> bin_sums;
  std::vector<double> per10;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t reports_received = 0;
  uint64_t reports_ignored = 0;
  uint64_t events = 0;
};

WorkloadResult RunWorkload(bench::BenchHarness& harness, Churn churn) {
  RackConfig cfg;
  cfg.sim_threads = harness.sim_threads();
  cfg.num_servers = 8;
  cfg.num_clients = 1;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = 4096;
  cfg.switch_config.indexes_per_pipe = 4096;
  cfg.switch_config.stats.counter_slots = 4096;
  cfg.switch_config.stats.hh.hot_threshold = 48;
  cfg.server_template.service_rate_qps = 10e3;
  cfg.server_template.queue_capacity = 64;
  cfg.client_template.reply_timeout = 5 * kMillisecond;
  cfg.controller_config.cache_capacity = kCacheItems;
  cfg.controller_config.control_op_latency = 100 * kMicrosecond;  // ~10K updates/s
  cfg.controller_config.stats_epoch = 1 * kSecond;                // §6
  Rack rack(cfg);
  harness.RecordEffectiveSimThreads(rack.sim().sim_threads());
  rack.Populate(kNumKeys, 128);

  WorkloadConfig wl;
  wl.num_keys = kNumKeys;
  wl.zipf_alpha = 0.99;
  wl.seed = 11;
  WorkloadGenerator gen(wl);

  // Pre-populate the cache with the top-K hottest items (§7.4).
  std::vector<Key> hot;
  for (uint64_t id : gen.popularity().TopKeys(kCacheItems)) {
    hot.push_back(Key::FromUint64(id));
  }
  rack.WarmCache(hot);
  rack.StartController();

  DriverConfig dc;
  dc.rate_qps = 60e3;
  dc.adaptive = true;
  dc.adjust_interval = 100 * kMillisecond;
  dc.rate_step = 0.1;
  dc.min_rate_qps = 5e3;
  dc.bin_width = 1 * kSecond;
  WorkloadDriver driver(&rack.sim(), &rack.client(0), &gen, rack.OwnerFn(), dc);
  driver.Start();

  // Schedule popularity churn.
  Rng churn_rng(123);
  SimDuration period = churn == Churn::kHotIn ? 10 * kSecond : 1 * kSecond;
  uint64_t amount = churn == Churn::kRandom ? 30 : 60;
  for (SimDuration t = period; t < kRunTime; t += period) {
    rack.sim().ScheduleAt(t, [&gen, &churn_rng, churn, amount] {
      switch (churn) {
        case Churn::kHotIn:
          gen.popularity().HotIn(amount);
          break;
        case Churn::kRandom:
          gen.popularity().RandomReplace(amount, kCacheItems, churn_rng);
          break;
        case Churn::kHotOut:
          gen.popularity().HotOut(amount);
          break;
      }
    });
  }

  rack.sim().RunUntil(kRunTime);
  driver.Stop();

  WorkloadResult res;
  size_t bins = driver.goodput().NumBins();
  res.bin_sums.reserve(bins);
  for (size_t i = 0; i < bins; ++i) {
    res.bin_sums.push_back(driver.goodput().BinSum(i));
  }
  res.per10 = driver.goodput().Aggregate(10);
  res.insertions = rack.controller().stats().insertions;
  res.evictions = rack.controller().stats().evictions;
  res.reports_received = rack.controller().stats().reports_received;
  res.reports_ignored = rack.controller().stats().reports_ignored;
  res.events = rack.sim().events_processed();
  return res;
}

void PrintWorkload(const char* name, const WorkloadResult& res) {
  std::printf("\n--- %s ---\n", name);
  std::printf("%-6s %14s      %-6s %14s\n", "sec", "goodput", "sec", "goodput");
  for (size_t i = 0; i + 1 < res.bin_sums.size(); i += 2) {
    std::printf("%-6zu %14s      %-6zu %14s\n", i, bench::Qps(res.bin_sums[i]).c_str(),
                i + 1, bench::Qps(res.bin_sums[i + 1]).c_str());
  }
  std::printf("  per-10s avg:");
  for (double v : res.per10) {
    std::printf(" %s", bench::Qps(v / 10.0).c_str());
  }
  std::printf("\n  controller: insertions=%llu evictions=%llu reports=%llu ignored=%llu\n",
              static_cast<unsigned long long>(res.insertions),
              static_cast<unsigned long long>(res.evictions),
              static_cast<unsigned long long>(res.reports_received),
              static_cast<unsigned long long>(res.reports_ignored));
}

void Run(bench::BenchHarness& harness) {
  bench::PrintHeader(
      "Figure 11: dynamic workloads (8 partitions x 10 KQPS, 300-item cache, "
      "zipf-0.99, adaptive client)");

  struct Panel {
    const char* label;
    const char* name;
    Churn churn;
  };
  const std::vector<Panel> panels = {
      {"hot-in", "Fig 11(a) hot-in: 60 coldest keys -> top, every 10 s", Churn::kHotIn},
      {"random", "Fig 11(b) random: 30 of top-300 replaced by cold keys, every 1 s",
       Churn::kRandom},
      {"hot-out", "Fig 11(c) hot-out: 60 hottest keys -> bottom, every 1 s",
       Churn::kHotOut}};

  // The three panels are independent simulations: fan them out, print in order.
  struct Timed {
    WorkloadResult res;
    double wall_ms;
  };
  std::vector<Timed> results =
      RunSweep(panels, harness.sweep_options(),
               [&harness](const Panel& p, uint64_t /*seed*/, size_t /*index*/) {
        auto start = std::chrono::steady_clock::now();
        Timed t;
        t.res = RunWorkload(harness, p.churn);
        std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        t.wall_ms = elapsed.count();
        return t;
      });

  for (size_t i = 0; i < panels.size(); ++i) {
    PrintWorkload(panels[i].name, results[i].res);
    double total = 0;
    double min10 = results[i].res.per10.empty() ? 0 : results[i].res.per10[0] / 10.0;
    for (double v : results[i].res.per10) {
      total += v;
      min10 = std::min(min10, v / 10.0);
    }
    bench::TrialRecord rec;
    rec.label = panels[i].label;
    rec.Metric("avg_goodput_qps", total / 30.0)
        .Metric("min_10s_goodput_qps", min10)
        .Metric("insertions", static_cast<double>(results[i].res.insertions))
        .Metric("evictions", static_cast<double>(results[i].res.evictions));
    rec.wall_ms = results[i].wall_ms;
    rec.events = results[i].res.events;
    harness.AddTrialRecord(std::move(rec));
  }
  bench::PrintNote("");
  bench::PrintNote("Paper: hot-in dips sharply each change then recovers within ~1 s;");
  bench::PrintNote("random shows shallow dips; hot-out is essentially flat.");
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) {
  netcache::bench::BenchHarness harness(argc, argv, "fig11_dynamics");
  netcache::Run(harness);
  return harness.Finish();
}
