// Figure 9: switch microbenchmark (snake test, §7.2).
//
// The paper measures the Tofino forwarding NetCache queries at 2.24 BQPS
// regardless of value size (Fig 9(a)) and cache size (Fig 9(b)) — line rate
// by construction, bottlenecked only by the generators (2 servers x 35 MQPS
// x 32-port snake amplification).
//
// We cannot measure an ASIC, so this bench establishes the two facts that
// matter for the reproduction:
//   1. The capacity-model derivation of the paper's 2.24 BQPS figure.
//   2. The software pipeline's per-packet cost is algorithmically O(1) in
//      value size and cache size (google-benchmark sweeps): one exact-match
//      lookup plus at most 8 fixed-size register accesses, independent of
//      how many items are cached. That constant-work property is what lets
//      the ASIC run the same design at line rate once the P4 program fits
//      the stage budget; on a CPU the only residual scaling is cache-
//      hierarchy pressure from the larger working set.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "bench/bench_harness.h"
#include "common/rng.h"
#include "core/snake.h"
#include "dataplane/netcache_switch.h"
#include "workload/generator.h"

namespace netcache {
namespace {

constexpr IpAddress kClient = 0x0b000001;
constexpr IpAddress kServer = 0x0a000001;

NetCacheSwitch* MakeLoadedSwitch(size_t cache_items, size_t value_size) {
  // Memoized: google-benchmark re-enters each benchmark several times while
  // calibrating, and populating 64K entries per entry is the dominant cost.
  static std::map<std::pair<size_t, size_t>, std::unique_ptr<NetCacheSwitch>> cache;
  auto key = std::make_pair(cache_items, value_size);
  auto it = cache.find(key);
  if (it != cache.end()) {
    return it->second.get();
  }
  SwitchConfig cfg;
  cfg.num_pipes = 1;
  cfg.ports_per_pipe = 64;
  cfg.cache_capacity = 64 * 1024;
  cfg.indexes_per_pipe = 64 * 1024;
  cfg.stats.counter_slots = 64 * 1024;
  auto sw = std::make_unique<NetCacheSwitch>(nullptr, "bench", cfg);
  NC_CHECK(sw->AddRoute(kServer, 0).ok());
  NC_CHECK(sw->AddRoute(kClient, 32).ok());
  for (uint64_t id = 0; id < cache_items; ++id) {
    NC_CHECK(sw->InsertCacheEntry(Key::FromUint64(id),
                                  WorkloadGenerator::ValueFor(id, value_size), kServer)
                 .ok());
  }
  NetCacheSwitch* raw = sw.get();
  cache.emplace(key, std::move(sw));
  return raw;
}

// Fig 9(a): read + update throughput vs value size, 64K cached items.
void BM_SwitchReadHit_ValueSize(benchmark::State& state) {
  size_t value_size = static_cast<size_t>(state.range(0));
  auto sw = MakeLoadedSwitch(64 * 1024, value_size);
  Rng rng(1);
  uint64_t seq = 0;
  for (auto _ : state) {
    Key key = Key::FromUint64(rng.NextBounded(64 * 1024));
    auto emits = sw->ProcessPacket(MakeGet(kClient, kServer, key, static_cast<uint32_t>(seq++)),
                                   32);
    benchmark::DoNotOptimize(emits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SwitchReadHit_ValueSize)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

void BM_SwitchUpdate_ValueSize(benchmark::State& state) {
  size_t value_size = static_cast<size_t>(state.range(0));
  auto sw = MakeLoadedSwitch(64 * 1024, value_size);
  Rng rng(2);
  Packet update;
  update.ip.src = kServer;
  update.ip.dst = sw->config().switch_ip;
  update.l4.dst_port = kNetCachePort;
  update.nc.op = OpCode::kCacheUpdate;
  update.nc.has_value = true;
  for (auto _ : state) {
    uint64_t id = rng.NextBounded(64 * 1024);
    update.nc.key = Key::FromUint64(id);
    update.nc.value = WorkloadGenerator::ValueFor(id, value_size);
    auto emits = sw->ProcessPacket(update, 0);
    benchmark::DoNotOptimize(emits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SwitchUpdate_ValueSize)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

// Fig 9(b): read throughput vs cache size, 128-byte values.
void BM_SwitchReadHit_CacheSize(benchmark::State& state) {
  size_t cache_items = static_cast<size_t>(state.range(0));
  auto sw = MakeLoadedSwitch(cache_items, 128);
  Rng rng(3);
  uint64_t seq = 0;
  for (auto _ : state) {
    Key key = Key::FromUint64(rng.NextBounded(cache_items));
    auto emits = sw->ProcessPacket(MakeGet(kClient, kServer, key, static_cast<uint32_t>(seq++)),
                                   32);
    benchmark::DoNotOptimize(emits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SwitchReadHit_CacheSize)
    ->Arg(1024)
    ->Arg(8 * 1024)
    ->Arg(16 * 1024)
    ->Arg(32 * 1024)
    ->Arg(64 * 1024);

// --- Burst pipeline (VPP-style stage-at-a-time processing) ---
//
// Same workload as the per-packet benches above, delivered as 32-packet
// bursts through ProcessBurst: the digest is computed once per packet and
// every downstream structure is prefetched one stage ahead. The ratio to
// BM_SwitchReadHit_ValueSize is the batching + one-hash speedup.

constexpr size_t kBurst = 32;
constexpr size_t kBurstSets = 64;

// Counts emits; burst-owned packets live in the bench arena, so nothing is
// freed here (from_burst only transfers ownership out of the arrival slot).
class CountingSink : public NetCacheSwitch::EmitSink {
 public:
  void OnEmit(uint32_t, Packet*, bool) override { ++emits_; }
  uint64_t emits_ = 0;
};

// Pre-built burst prototypes + a reusable arena: ProcessBurst rewrites the
// arrival packets in place, so each pass copies prototypes into the arena
// first (a plain Packet copy, cheaper than the MakeGet the per-packet bench
// pays per iteration — the comparison stays conservative).
struct BurstSets {
  std::vector<std::vector<Packet>> protos;
  std::vector<Packet> arena;
  std::vector<BurstArrival> arrivals;

  BurstSets(uint64_t key_base, uint64_t key_span, uint64_t seed) {
    Rng rng(seed);
    protos.resize(kBurstSets);
    uint32_t seq = 0;
    for (auto& set : protos) {
      set.reserve(kBurst);
      for (size_t i = 0; i < kBurst; ++i) {
        Key key = Key::FromUint64(key_base + rng.NextBounded(key_span));
        set.push_back(MakeGet(kClient, kServer, key, seq++));
      }
    }
    arena.resize(kBurst);
    arrivals.resize(kBurst);
  }

  // Loads prototype set `n` into the arena and returns the arrival span.
  std::span<BurstArrival> Load(size_t n) {
    const std::vector<Packet>& set = protos[n % kBurstSets];
    for (size_t i = 0; i < kBurst; ++i) {
      arena[i] = set[i];  // digest left empty: the switch hashes at ingress
      arrivals[i] = BurstArrival{&arena[i], 32};
    }
    return {arrivals.data(), kBurst};
  }
};

void BM_SwitchBurstReadHit_ValueSize(benchmark::State& state) {
  size_t value_size = static_cast<size_t>(state.range(0));
  auto sw = MakeLoadedSwitch(64 * 1024, value_size);
  BurstSets bursts(0, 64 * 1024, 21);
  CountingSink sink;
  size_t n = 0;
  for (auto _ : state) {
    sw->ProcessBurst(bursts.Load(n++), sink);
  }
  benchmark::DoNotOptimize(sink.emits_);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBurst));
}
BENCHMARK(BM_SwitchBurstReadHit_ValueSize)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

// Cache-resident twin of the 32 B burst hit: 1K cached items keep every
// register row in L2, so this is the instruction-cost floor of the burst
// pipeline; the gap to /32 above is pure memory-hierarchy pressure.
void BM_SwitchBurstReadHit_CacheResident(benchmark::State& state) {
  auto sw = MakeLoadedSwitch(1024, 32);
  BurstSets bursts(0, 1024, 23);
  CountingSink sink;
  size_t n = 0;
  for (auto _ : state) {
    sw->ProcessBurst(bursts.Load(n++), sink);
  }
  benchmark::DoNotOptimize(sink.emits_);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBurst));
}
BENCHMARK(BM_SwitchBurstReadHit_CacheResident);

void BM_SwitchBurstReadMiss(benchmark::State& state) {
  auto sw = MakeLoadedSwitch(1024, 128);
  BurstSets bursts(1'000'000, 1'000'000, 22);
  CountingSink sink;
  size_t n = 0;
  for (auto _ : state) {
    sw->ProcessBurst(bursts.Load(n++), sink);
  }
  benchmark::DoNotOptimize(sink.emits_);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBurst));
}
BENCHMARK(BM_SwitchBurstReadMiss);

// Miss path for contrast: HH detector + forward.
void BM_SwitchReadMiss(benchmark::State& state) {
  auto sw = MakeLoadedSwitch(1024, 128);
  Rng rng(4);
  for (auto _ : state) {
    Key key = Key::FromUint64(1'000'000 + rng.NextBounded(1'000'000));
    auto emits = sw->ProcessPacket(MakeGet(kClient, kServer, key, 1), 32);
    benchmark::DoNotOptimize(emits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SwitchReadMiss);

// --- Harness trials: burst read-hit throughput, gated by bench_regress.py ---
//
// One timed trial per value size drives the full burst fast path (batched
// ingress digests, grouped table probes, batched sketch updates on the ~0
// misses, the one-call value gather). events_per_sec feeds the --perf
// one-sided gate against the committed BENCH_fig09_baseline.json, so a
// change that wrecks the batched pipeline fails CI. cache_hits is the
// deterministic cross-check (identical streams must hit identically).

constexpr size_t kTrialBurstPasses = 2000;

void RunBurstHitTrial(bench::BenchHarness& harness, const std::string& label,
                      size_t value_size) {
  auto sw = MakeLoadedSwitch(64 * 1024, value_size);
  uint64_t hits_before = sw->counters().cache_hits;
  BurstSets bursts(0, 64 * 1024, 21);
  CountingSink sink;
  auto& trial = harness.AddTrial(label);
  trial.Config("value_size", static_cast<double>(value_size))
      .Config("burst", static_cast<double>(kBurst))
      .Config("passes", static_cast<double>(kTrialBurstPasses));
  {
    bench::TrialTimer timer(&trial);
    for (size_t n = 0; n < kTrialBurstPasses; ++n) {
      sw->ProcessBurst(bursts.Load(n), sink);
    }
    timer.SetEvents(kTrialBurstPasses * kBurst);
  }
  trial.Metric("cache_hits",
               static_cast<double>(sw->counters().cache_hits - hits_before));
}

void RunBurstHitTrials(bench::BenchHarness& harness) {
  for (size_t value_size : {32ul, 64ul, 96ul, 128ul}) {
    RunBurstHitTrial(harness, "BurstReadHit/value=" + std::to_string(value_size),
                     value_size);
  }
}

void PrintLineRateDerivation() {
  std::printf("\n================================================================\n");
  std::printf("Figure 9 context: paper line-rate derivation (snake test, Tofino)\n");
  std::printf("================================================================\n");
  double per_server = 35e6;
  int servers = 2;
  int snake_amplification = 32;  // query replicated 31x by the 64-port snake
  double total = per_server * servers * snake_amplification;
  std::printf("  2 servers x 35 MQPS x 32 snake passes = %.2f BQPS (paper: 2.24 BQPS)\n",
              total / 1e9);
  std::printf("  Tofino chip maximum: > 4 BQPS; throughput is flat in value size\n");
  std::printf("  and cache size because the ASIC pipeline does constant work per\n");
  std::printf("  packet. The sweeps below show the software pipeline's per-packet\n");
  std::printf("  cost: algorithmically O(1) in both value size and cache size (one\n");
  std::printf("  exact-match lookup + <= 8 fixed-size register reads). Residual\n");
  std::printf("  slowdown at larger values/caches is CPU cache-hierarchy pressure,\n");
  std::printf("  which has no ASIC analogue (every stage access there is a\n");
  std::printf("  single-cycle dedicated SRAM read).\n\n");
}

void RunSnakeDemo(bench::BenchHarness& harness) {
  std::printf("Snake-test harness (64 ports, as in §7.1):\n");
  SwitchConfig cfg;
  cfg.num_pipes = 1;
  cfg.cache_capacity = 64 * 1024;
  cfg.indexes_per_pipe = 64 * 1024;
  SnakeHarness snake(cfg, 64);
  NC_CHECK(snake.CacheItems(1024, 128).ok());
  SnakeResult r = snake.Run(/*queries=*/2000, /*pacing=*/1 * kMicrosecond);
  harness.AddTrial("snake/64ports")
      .Config("queries", 2000)
      .Config("ports", 64)
      .Metric("pipeline_reads", static_cast<double>(r.pipeline_reads))
      .Metric("amplification", r.amplification)
      .Metric("received", static_cast<double>(r.received))
      .Metric("value_ok", static_cast<double>(r.value_ok));
  std::printf("  injected %llu queries -> %llu pipeline passes (x%.0f amplification),\n",
              static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.pipeline_reads), r.amplification);
  std::printf("  %llu replies delivered, %llu with byte-exact values.\n",
              static_cast<unsigned long long>(r.received),
              static_cast<unsigned long long>(r.value_ok));
  std::printf("  At the testbed's 70 MQPS offered load this amplification is what\n");
  std::printf("  yields the 2.24 BQPS processing rate of Fig 9.\n\n");
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) {
  netcache::bench::BenchHarness harness(argc, argv, "fig09_switch_microbench");
  netcache::PrintLineRateDerivation();
  netcache::RunSnakeDemo(harness);
  netcache::RunBurstHitTrials(harness);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return harness.Finish();
}
