// Microbenchmarks of the core data structures (google-benchmark): the
// components whose per-packet cost determines the software pipeline rate.
//
// The *EventQueue* and *PacketAlloc* groups bound the simulator hot path:
// BM_EventQueue_StdFunction replays the heap discipline the simulator used
// before the zero-allocation rework (std::function events, swap-based sift)
// while BM_EventQueue_InlineFunction drives the real Simulator; their ratio
// is the events/sec speedup the rework bought. Run with
// --benchmark_min_time=0.2 on older google-benchmark builds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bench/bench_harness.h"
#include "client/workload_driver.h"
#include "common/hash.h"
#include "core/rack.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/zipf.h"
#include "dataplane/netcache_switch.h"
#include "dataplane/value_store.h"
#include "kvstore/flat_table.h"
#include "kvstore/hash_table.h"
#include "kvstore/kv_store.h"
#include "net/packet_pool.h"
#include "net/simulator.h"
#include "proto/key_digest.h"
#include "proto/packet.h"
#include "sketch/bloom.h"
#include "sketch/count_min.h"
#include "workload/generator.h"

namespace netcache {
namespace {

void BM_CountMinUpdate(benchmark::State& state) {
  CountMinSketch cms(4, 64 * 1024, 1);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cms.Update(Key::FromUint64(rng.NextBounded(1 << 20))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CountMinUpdate);

void BM_BloomTestAndSet(benchmark::State& state) {
  BloomFilter bf(3, 256 * 1024, 2);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.TestAndSet(Key::FromUint64(rng.NextBounded(1 << 20))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BloomTestAndSet);

// --- Batch kernels ---
//
// The burst pipeline feeds whole Get-runs through UpdateBatch /
// TestAndSetBatch and digests them with simd::DigestGather16; these benches
// measure the batch forms in isolation over the per-arg batch size. The
// harness trials below gate the same kernels in CI with checksums.

void BM_CountMinUpdateBatch(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  CountMinSketch cms(4, 64 * 1024, 1);
  Rng rng(1);
  std::vector<KeyDigest> digests(batch);
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      digests[i] = KeyDigest::Of(Key::FromUint64(rng.NextBounded(1 << 20)));
    }
    cms.UpdateBatch(digests.data(), batch, nullptr);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_CountMinUpdateBatch)->Arg(8)->Arg(32)->Arg(64);

void BM_BloomTestAndSetBatch(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  BloomFilter bf(3, 256 * 1024, 2);
  Rng rng(2);
  std::vector<KeyDigest> digests(batch);
  bool already[64];  // max Arg below
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      digests[i] = KeyDigest::Of(Key::FromUint64(rng.NextBounded(1 << 20)));
    }
    bf.TestAndSetBatch(digests.data(), batch, already);
    benchmark::DoNotOptimize(already);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_BloomTestAndSetBatch)->Arg(8)->Arg(32)->Arg(64);

void BM_DigestGather16(benchmark::State& state) {
  Rng rng(3);
  constexpr size_t kBatch = 64;
  std::vector<Key> keys(kBatch);
  std::vector<const uint8_t*> key_ptrs(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    for (uint8_t& b : keys[i].bytes) {
      b = static_cast<uint8_t>(rng.Next());
    }
    key_ptrs[i] = keys[i].bytes.data();
  }
  std::vector<uint64_t> h1(kBatch);
  std::vector<uint64_t> h2(kBatch);
  for (auto _ : state) {
    simd::DigestGather16(key_ptrs.data(), kBatch, h1.data(), h2.data());
    benchmark::DoNotOptimize(h1);
    benchmark::DoNotOptimize(h2);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_DigestGather16);

// --- Sketch hashing: per-probe seeded hashes vs one digest + KM probes ---
//
// The pre-digest pipeline hashed the 16-byte key once per sketch row and
// Bloom partition (4 + 3 = 7 seeded hashes per miss-path packet). The digest
// hashes once at ingress and derives every index with one multiply-add
// (Kirsch-Mitzenmacher). These two benches measure exactly that trade on the
// same 7-index workload; the harness trials below gate the ratio in CI.

constexpr size_t kSketchProbes = 7;
constexpr uint64_t kSketchMask = 64 * 1024 - 1;

void BM_SketchHash_PerProbe(benchmark::State& state) {
  Rng rng(21);
  Key key = Key::FromUint64(rng.Next());
  uint64_t acc = 0;
  for (auto _ : state) {
    for (uint64_t seed = 0; seed < kSketchProbes; ++seed) {
      acc += SeededHashBytes(key.bytes.data(), key.bytes.size(), seed) & kSketchMask;
    }
    key = Key::FromUint64(acc);  // serialize iterations
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchHash_PerProbe);

void BM_SketchHash_Digest(benchmark::State& state) {
  Rng rng(21);
  Key key = Key::FromUint64(rng.Next());
  uint64_t acc = 0;
  for (auto _ : state) {
    KeyDigest d = KeyDigest::Of(key);
    for (uint64_t seed = 0; seed < kSketchProbes; ++seed) {
      acc += d.Probe(seed) & kSketchMask;
    }
    key = Key::FromUint64(acc);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchHash_Digest);

void BM_HashDynFind(benchmark::State& state) {
  HashDyn<Key, uint64_t, KeyHasher> table;
  for (uint64_t i = 0; i < 64 * 1024; ++i) {
    table.Upsert(Key::FromUint64(i), i);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(Key::FromUint64(rng.NextBounded(64 * 1024))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HashDynFind);

void BM_FlatTableFind(benchmark::State& state) {
  FlatTable<Key, uint64_t, KeyHasher> table;
  for (uint64_t i = 0; i < 64 * 1024; ++i) {
    table.Upsert(Key::FromUint64(i), i);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(Key::FromUint64(rng.NextBounded(64 * 1024))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatTableFind);

// Same probe workload near the 7/8 growth ceiling (~87% load), where the
// robin-hood chains are long enough that the load-aware choice in
// FlatTable::Locate switches to the 16-way grouped control-byte scan.
// BM_FlatTableFind above sits at 50% load and takes the slot-by-slot walk;
// this is the regime the grouped probe exists for.
void BM_FlatTableFindHighLoad(benchmark::State& state) {
  FlatTable<Key, uint64_t, KeyHasher> table;
  constexpr uint64_t kKeys = 57000;  // 65536-slot table, no growth past it
  for (uint64_t i = 0; i < kKeys; ++i) {
    table.Upsert(Key::FromUint64(i), i);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(Key::FromUint64(rng.NextBounded(kKeys))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatTableFindHighLoad);

void BM_StdUnorderedMapFind(benchmark::State& state) {
  std::unordered_map<Key, uint64_t, KeyHasher> table;
  for (uint64_t i = 0; i < 64 * 1024; ++i) {
    table[Key::FromUint64(i)] = i;
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(Key::FromUint64(rng.NextBounded(64 * 1024))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StdUnorderedMapFind);

void BM_ValueStoreRead(benchmark::State& state) {
  ValueStore vs(8, 64 * 1024);
  Value v = Value::Filler(1, 128);
  for (size_t i = 0; i < 64 * 1024; ++i) {
    vs.WriteValue(0xff, i, v);
  }
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vs.ReadValue(0xff, rng.NextBounded(64 * 1024), 128));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ValueStoreRead);

void BM_ZipfSample(benchmark::State& state) {
  ZipfRejectionInversion zipf(100'000'000, 0.99);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample);

void BM_PacketSerializeParse(benchmark::State& state) {
  Packet pkt = MakePut(1, 2, Key::FromUint64(3), Value::Filler(3, 128), 4);
  for (auto _ : state) {
    auto bytes = SerializePacket(pkt);
    auto back = ParsePacket(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketSerializeParse);

// --- Simulator event-queue hot path ---
//
// Both variants run the same workload: a rolling backlog of 64 events, each
// executing a 32-byte-capture closure and rescheduling itself at a random
// future time. items/s is therefore Mevents/s of the event loop.

// Pre-rework representation: std::function events (32-byte captures exceed
// libstdc++'s 16-byte SBO, so every schedule heap-allocates) in a (time, seq)
// min-heap maintained with the standard swap-based push/pop_heap.
void BM_EventQueue_StdFunction(benchmark::State& state) {
  struct Ev {
    uint64_t at;
    uint64_t seq;
    std::function<void()> fn;
  };
  auto later = [](const Ev& x, const Ev& y) {
    return x.at != y.at ? x.at > y.at : x.seq > y.seq;
  };
  std::vector<Ev> heap;
  heap.reserve(128);
  uint64_t now = 0;
  uint64_t seq = 0;
  uint64_t sink = 0;
  Rng rng(11);
  uint64_t* sink_ptr = &sink;
  Rng* rng_ptr = &rng;
  auto push = [&](uint64_t delay) {
    uint64_t b = rng.Next();
    heap.push_back(Ev{now + delay, seq++, [sink_ptr, rng_ptr, b] {
                        *sink_ptr += b + rng_ptr->Next();
                      }});
    std::push_heap(heap.begin(), heap.end(), later);
  };
  for (int i = 0; i < 64; ++i) {
    push(1 + rng.NextBounded(1000));
  }
  for (auto _ : state) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Ev ev = std::move(heap.back());
    heap.pop_back();
    now = ev.at;
    ev.fn();
    push(1 + rng.NextBounded(1000));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueue_StdFunction);

// Keeps a self-rescheduling event chain alive inside the real Simulator; the
// 32-byte capture stays inline in the InlineFunction small buffer.
void ScheduleChainEvent(Simulator* sim, uint64_t* sink, Rng* rng) {
  uint64_t b = rng->Next();
  sim->Schedule(1 + rng->NextBounded(1000), [sim, sink, rng, b] {
    *sink += b + rng->Next();
    ScheduleChainEvent(sim, sink, rng);
  });
}

void BM_EventQueue_InlineFunction(benchmark::State& state) {
  Simulator sim;
  uint64_t sink = 0;
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    ScheduleChainEvent(&sim, &sink, &rng);
  }
  for (auto _ : state) {
    sim.RunUntil(sim.Now() + 32 * 1000);  // ~a few thousand events per tick
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(sim.events_processed()));
}
BENCHMARK(BM_EventQueue_InlineFunction);

// --- Packet allocation: per-simulator freelist vs operator new ---

void BM_PacketAlloc_Heap(benchmark::State& state) {
  Packet proto = MakePut(1, 2, Key::FromUint64(3), Value::Filler(3, 128), 4);
  for (auto _ : state) {
    Packet* p = new Packet(proto);
    benchmark::DoNotOptimize(p);
    delete p;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketAlloc_Heap);

void BM_PacketAlloc_Pool(benchmark::State& state) {
  PacketPool pool;
  Packet proto = MakePut(1, 2, Key::FromUint64(3), Value::Filler(3, 128), 4);
  for (auto _ : state) {
    Packet* p = pool.Acquire();
    *p = proto;
    benchmark::DoNotOptimize(p);
    pool.Release(p);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketAlloc_Pool);

// --- Switch route table: FlatTable vs std::unordered_map on IpAddress ---
//
// Note: sequential uint32 keys under libstdc++'s identity std::hash are
// unordered_map's best case (one node per bucket, allocation-order locality).
// FlatTable pays a Mix64 per probe but is immune to degenerate key patterns
// and wins on the 16-byte Key tables above; the switch uses it for both.

void BM_RouteStdUnorderedMapFind(benchmark::State& state) {
  std::unordered_map<IpAddress, uint32_t> routes;
  for (uint32_t i = 0; i < 4096; ++i) {
    routes[0x0a000000u + i] = i % 64;
  }
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routes.find(0x0a000000u + static_cast<uint32_t>(rng.NextBounded(4096))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RouteStdUnorderedMapFind);

void BM_RouteFlatTableFind(benchmark::State& state) {
  FlatTable<IpAddress, uint32_t, UintHasher> routes;
  for (uint32_t i = 0; i < 4096; ++i) {
    routes.Upsert(0x0a000000u + i, i % 64);
  }
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routes.Find(0x0a000000u + static_cast<uint32_t>(rng.NextBounded(4096))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RouteFlatTableFind);

// --- Harness trials (machine-readable, gated by scripts/bench_regress.py) ---
//
// Two trial pairs feed the CI perf gate: SketchHash (one-hash digest vs
// per-probe seeded hashing) and Burst (32-packet ProcessBurst vs one-packet
// bursts through the ProcessPacket adapter, on an identical switch + packet
// stream; "Burst/single" keeps its label). Each records a
// deterministic checksum/counter metric — byte-stable across machines — plus
// wall_ms/events for the --perf one-sided comparison.

constexpr size_t kHashTrialKeys = 2'000'000;

void RunSketchHashTrials(bench::BenchHarness& harness) {
  {
    auto& trial = harness.AddTrial("SketchHash/per_probe");
    trial.Config("keys", static_cast<double>(kHashTrialKeys))
        .Config("probes", static_cast<double>(kSketchProbes));
    Rng rng(31);
    uint64_t acc = 0;
    bench::TrialTimer timer(&trial);
    for (size_t i = 0; i < kHashTrialKeys; ++i) {
      Key key = Key::FromUint64(rng.Next());
      for (uint64_t seed = 0; seed < kSketchProbes; ++seed) {
        acc += SeededHashBytes(key.bytes.data(), key.bytes.size(), seed) & kSketchMask;
      }
    }
    timer.SetEvents(kHashTrialKeys);
    trial.Metric("checksum", static_cast<double>(acc & 0xffffffff));
  }
  {
    auto& trial = harness.AddTrial("SketchHash/digest");
    trial.Config("keys", static_cast<double>(kHashTrialKeys))
        .Config("probes", static_cast<double>(kSketchProbes));
    Rng rng(31);
    uint64_t acc = 0;
    bench::TrialTimer timer(&trial);
    for (size_t i = 0; i < kHashTrialKeys; ++i) {
      Key key = Key::FromUint64(rng.Next());
      KeyDigest d = KeyDigest::Of(key);
      for (uint64_t seed = 0; seed < kSketchProbes; ++seed) {
        acc += d.Probe(seed) & kSketchMask;
      }
    }
    timer.SetEvents(kHashTrialKeys);
    trial.Metric("checksum", static_cast<double>(acc & 0xffffffff));
  }
}

constexpr IpAddress kTrialClient = 0x0b000001;
constexpr IpAddress kTrialServer = 0x0a000001;
constexpr size_t kTrialCached = 4096;
constexpr size_t kTrialPackets = 2048;
constexpr size_t kTrialPasses = 100;
constexpr size_t kTrialBurst = 32;

std::unique_ptr<NetCacheSwitch> MakeTrialSwitch() {
  SwitchConfig cfg;
  cfg.num_pipes = 1;
  cfg.ports_per_pipe = 64;
  cfg.cache_capacity = 8 * 1024;
  cfg.indexes_per_pipe = 8 * 1024;
  cfg.stats.counter_slots = 8 * 1024;
  auto sw = std::make_unique<NetCacheSwitch>(nullptr, "trial", cfg);
  NC_CHECK(sw->AddRoute(kTrialServer, 0).ok());
  NC_CHECK(sw->AddRoute(kTrialClient, 32).ok());
  for (uint64_t id = 0; id < kTrialCached; ++id) {
    NC_CHECK(sw->InsertCacheEntry(Key::FromUint64(id),
                                  WorkloadGenerator::ValueFor(id, 128), kTrialServer)
                 .ok());
  }
  return sw;
}

// 70% hits / 30% misses, same stream for both variants so the recorded
// counters must agree exactly (the burst-equivalence property, cross-checked
// here on every CI run via the tight default metric tolerance).
std::vector<Packet> TrialPackets() {
  Rng rng(32);
  std::vector<Packet> pkts;
  pkts.reserve(kTrialPackets);
  for (uint32_t i = 0; i < kTrialPackets; ++i) {
    uint64_t id = rng.NextBounded(10) < 7 ? rng.NextBounded(kTrialCached)
                                          : 1'000'000 + rng.NextBounded(1 << 20);
    pkts.push_back(MakeGet(kTrialClient, kTrialServer, Key::FromUint64(id), i));
  }
  return pkts;
}

class NullSink : public NetCacheSwitch::EmitSink {
 public:
  void OnEmit(uint32_t, Packet*, bool) override { ++emits_; }
  uint64_t emits_ = 0;
};

void RunBurstTrials(bench::BenchHarness& harness) {
  const std::vector<Packet> pkts = TrialPackets();
  {
    auto& trial = harness.AddTrial("Burst/single");
    trial.Config("packets", static_cast<double>(kTrialPackets))
        .Config("passes", static_cast<double>(kTrialPasses));
    auto sw = MakeTrialSwitch();
    std::vector<NetCacheSwitch::Emit> emits;
    bench::TrialTimer timer(&trial);
    for (size_t pass = 0; pass < kTrialPasses; ++pass) {
      for (const Packet& p : pkts) {
        emits.clear();
        sw->ProcessPacket(p, 32, emits);
        benchmark::DoNotOptimize(emits);
      }
    }
    timer.SetEvents(kTrialPasses * kTrialPackets);
    trial.Metric("packets", static_cast<double>(sw->counters().packets))
        .Metric("cache_hits", static_cast<double>(sw->counters().cache_hits));
  }
  {
    auto& trial = harness.AddTrial("Burst/burst32");
    trial.Config("packets", static_cast<double>(kTrialPackets))
        .Config("passes", static_cast<double>(kTrialPasses));
    auto sw = MakeTrialSwitch();
    std::vector<Packet> arena(kTrialBurst);
    std::vector<BurstArrival> arrivals(kTrialBurst);
    NullSink sink;
    bench::TrialTimer timer(&trial);
    for (size_t pass = 0; pass < kTrialPasses; ++pass) {
      for (size_t base = 0; base < kTrialPackets; base += kTrialBurst) {
        for (size_t i = 0; i < kTrialBurst; ++i) {
          arena[i] = pkts[base + i];
          arrivals[i] = BurstArrival{&arena[i], 32};
        }
        sw->ProcessBurst({arrivals.data(), kTrialBurst}, sink);
      }
    }
    timer.SetEvents(kTrialPasses * kTrialPackets);
    trial.Metric("packets", static_cast<double>(sw->counters().packets))
        .Metric("cache_hits", static_cast<double>(sw->counters().cache_hits));
  }
}

// --- SketchBatch / TableGroupProbe trials: the burst path's batched sketch
// updates and the high-load grouped table probe. The checksum pins the
// results (deterministic for the fixed streams below); the wall_ms/events
// pair feeds the --perf gate.

constexpr size_t kBatchTrialKeys = 1'000'000;
constexpr size_t kBatchTrialBurst = 32;

uint64_t RunSketchBatchPass(bench::TrialRecord& trial) {
  CountMinSketch cms(4, 64 * 1024, 1);
  BloomFilter bf(3, 256 * 1024, 2);
  Rng rng(41);
  std::vector<KeyDigest> digests(kBatchTrialBurst);
  std::vector<uint32_t> est(kBatchTrialBurst);
  bool already[kBatchTrialBurst];
  uint64_t acc = 0;
  bench::TrialTimer timer(&trial);
  for (size_t base = 0; base < kBatchTrialKeys; base += kBatchTrialBurst) {
    for (size_t i = 0; i < kBatchTrialBurst; ++i) {
      digests[i] = KeyDigest::Of(Key::FromUint64(rng.NextBounded(1 << 16)));
    }
    cms.UpdateBatch(digests.data(), kBatchTrialBurst, est.data());
    bf.TestAndSetBatch(digests.data(), kBatchTrialBurst, already);
    for (size_t i = 0; i < kBatchTrialBurst; ++i) {
      acc += est[i] + (already[i] ? 1 : 0);
    }
  }
  timer.SetEvents(kBatchTrialKeys);
  return acc;
}

void RunSketchBatchTrial(bench::BenchHarness& harness) {
  auto& trial = harness.AddTrial("SketchBatch");
  trial.Config("keys", static_cast<double>(kBatchTrialKeys))
      .Config("burst", static_cast<double>(kBatchTrialBurst));
  uint64_t acc = RunSketchBatchPass(trial);
  trial.Metric("checksum", static_cast<double>(acc & 0xffffffff));
}

// --- ServeStage / ServerBurst trials: the fig09 burst-serving kernels.
//
// ServeStage drives ValueStore::StageGather + GatherValueSlots exactly
// the way the switch's ProcessGetRun does — pointer pairs accumulated across
// a 32-packet Get-run, one kernel call over the whole run — across the fig09
// value-size sweep (32/64/96/128 B). ServerBurst drives the storage server's
// ingress stages: simd::DigestGather16 over the burst's keys, digest-derived
// core steering, the one-sweep bucket prefetch, then in-order KvStore::GetInto.
// wall_ms/events feed the --perf gate.

constexpr size_t kServeTrialIndexes = 8 * 1024;
constexpr size_t kServeTrialReads = 1'000'000;
constexpr size_t kServeTrialBurst = 32;

uint64_t RunServeStagePass(bench::TrialRecord& trial) {
  ValueStore vs(8, kServeTrialIndexes);
  // fig09 size sweep: 2/4/6/8 units (32..128 B), contiguous bitmaps.
  std::vector<uint32_t> bitmaps(kServeTrialIndexes);
  std::vector<size_t> sizes(kServeTrialIndexes);
  for (size_t i = 0; i < kServeTrialIndexes; ++i) {
    size_t units = 2 * (1 + (i % 4));
    sizes[i] = units * kValueUnitSize;
    bitmaps[i] = (1u << units) - 1;
    vs.WriteValue(bitmaps[i], i, Value::Filler(0xabc + i, sizes[i]));
  }
  Rng rng(51);
  const uint8_t* srcs[kServeTrialBurst * 8];
  uint8_t* dsts[kServeTrialBurst * 8];
  Value out[kServeTrialBurst];
  uint64_t acc = 0;
  bench::TrialTimer timer(&trial);
  for (size_t base = 0; base < kServeTrialReads; base += kServeTrialBurst) {
    size_t cursor = 0;
    for (size_t i = 0; i < kServeTrialBurst; ++i) {
      size_t idx = rng.NextBounded(kServeTrialIndexes);
      out[i].set_size(sizes[idx]);
      cursor = vs.StageGather(bitmaps[idx], idx, sizes[idx], out[i].data(), srcs, dsts, cursor);
    }
    GatherValueSlots(srcs, dsts, cursor);
    for (size_t i = 0; i < kServeTrialBurst; ++i) {
      const uint8_t* bytes = out[i].data();
      for (size_t b = 0; b < out[i].size(); b += kValueUnitSize) {
        acc += bytes[b];
      }
      acc += out[i].size();
    }
  }
  timer.SetEvents(kServeTrialReads);
  return acc;
}

void RunServeStageTrial(bench::BenchHarness& harness) {
  auto& trial = harness.AddTrial("ServeStage");
  trial.Config("reads", static_cast<double>(kServeTrialReads))
      .Config("burst", static_cast<double>(kServeTrialBurst));
  uint64_t acc = RunServeStagePass(trial);
  trial.Metric("checksum", static_cast<double>(acc & 0xffffffff));
}

constexpr size_t kServerTrialKeys = 64 * 1024;
constexpr size_t kServerTrialReads = 1'000'000;
constexpr size_t kServerTrialCores = 8;
constexpr uint64_t kServerTrialCoreSeed = 7;

uint64_t RunServerBurstPass(bench::TrialRecord& trial) {
  KvStore store;
  for (uint64_t i = 0; i < kServerTrialKeys; ++i) {
    store.Put(Key::FromUint64(i), WorkloadGenerator::ValueFor(i, 128));
  }
  Rng rng(52);
  Key keys[kServeTrialBurst];
  const uint8_t* key_ptrs[kServeTrialBurst];
  uint64_t h1[kServeTrialBurst];
  uint64_t h2[kServeTrialBurst];
  Value value;
  uint64_t acc = 0;
  bench::TrialTimer timer(&trial);
  for (size_t base = 0; base < kServerTrialReads; base += kServeTrialBurst) {
    for (size_t i = 0; i < kServeTrialBurst; ++i) {
      keys[i] = Key::FromUint64(rng.NextBounded(kServerTrialKeys));
      key_ptrs[i] = keys[i].bytes.data();
    }
    simd::DigestGather16(key_ptrs, kServeTrialBurst, h1, h2);
    // The one-sweep bucket warm, then in-order steering + lookups — the shape
    // of StorageServer::HandleBurst stages 1.5 and 2.
    for (size_t i = 0; i < kServeTrialBurst; ++i) {
      store.Prefetch(h1[i]);
    }
    for (size_t i = 0; i < kServeTrialBurst; ++i) {
      KeyDigest d{h1[i], h2[i]};
      acc += d.Probe(kServerTrialCoreSeed) % kServerTrialCores;
      bool hit = store.GetInto(keys[i], h1[i], &value);
      NC_CHECK(hit);
      acc += value.data()[0] + value.size();
    }
  }
  timer.SetEvents(kServerTrialReads);
  return acc;
}

void RunServerBurstTrial(bench::BenchHarness& harness) {
  auto& trial = harness.AddTrial("ServerBurst");
  trial.Config("reads", static_cast<double>(kServerTrialReads))
      .Config("burst", static_cast<double>(kServeTrialBurst));
  uint64_t acc = RunServerBurstPass(trial);
  trial.Metric("checksum", static_cast<double>(acc & 0xffffffff));
}

constexpr size_t kProbeTrialEntries = 50'000;
constexpr size_t kProbeTrialLookups = 2'000'000;

uint64_t RunTableProbePass(bench::TrialRecord& trial) {
  FlatTable<Key, uint32_t, KeyHasher> t;
  for (uint64_t i = 0; i < kProbeTrialEntries; ++i) {
    t.Upsert(Key::FromUint64(i), static_cast<uint32_t>(i));
  }
  Rng rng(43);
  uint64_t acc = 0;
  bench::TrialTimer timer(&trial);
  for (size_t i = 0; i < kProbeTrialLookups; ++i) {
    // ~20% misses so the group scan's empty-termination path is exercised.
    uint64_t id = rng.NextBounded(kProbeTrialEntries * 5 / 4);
    const uint32_t* v = t.Find(Key::FromUint64(id));
    acc += v != nullptr ? *v + 1 : 0;
  }
  timer.SetEvents(kProbeTrialLookups);
  return acc;
}

void RunTableGroupProbeTrial(bench::BenchHarness& harness) {
  auto& trial = harness.AddTrial("TableGroupProbe");
  trial.Config("entries", static_cast<double>(kProbeTrialEntries))
      .Config("lookups", static_cast<double>(kProbeTrialLookups));
  uint64_t acc = RunTableProbePass(trial);
  trial.Metric("checksum", static_cast<double>(acc & 0xffffffff));
}

// --- ParallelDes trials: one rack workload under the windowed partitioned
// schedule with 1, 4 and 8 workers. The runs execute the exact same event
// schedule by construction (staging and merge are used uniformly for every
// --sim-threads >= 1), so every counter below must agree bit-for-bit —
// checked here on each CI run. wall_ms/events feed the --perf gate like the
// other trial groups, and the 1-vs-8 pair feeds bench_regress.py --scaling.

struct ParallelDesOutcome {
  uint64_t completed = 0;
  uint64_t cache_hits = 0;
  uint64_t server_reads = 0;
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t windows_merged = 0;  // summed over LPs
};

ParallelDesOutcome RunParallelDesRack(size_t sim_threads, double* wall_sink,
                                      bench::TrialRecord& trial) {
  RackConfig cfg;
  cfg.sim_threads = sim_threads;
  cfg.num_servers = 8;
  cfg.num_clients = 1;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = 1024;
  cfg.switch_config.indexes_per_pipe = 1024;
  cfg.switch_config.stats.counter_slots = 1024;
  cfg.server_template.service_rate_qps = 100e3;
  cfg.controller_config.cache_capacity = 64;
  Rack rack(cfg);
  constexpr uint64_t kKeys = 10'000;
  rack.Populate(kKeys, 128);

  WorkloadConfig wl;
  wl.num_keys = kKeys;
  wl.zipf_alpha = 0.99;
  wl.write_ratio = 0.1;
  wl.seed = 1234;
  WorkloadGenerator gen(wl);
  std::vector<Key> hot;
  for (uint64_t id : gen.popularity().TopKeys(64)) {
    hot.push_back(Key::FromUint64(id));
  }
  rack.WarmCache(hot);

  DriverConfig dc;
  dc.rate_qps = 300e3;
  WorkloadDriver driver(&rack.sim(), &rack.client(0), &gen, rack.OwnerFn(), dc);
  ParallelDesOutcome out;
  {
    bench::TrialTimer timer(&trial);
    driver.Start();
    rack.sim().RunUntil(100 * kMillisecond);
    driver.Stop();
    rack.sim().RunUntil(110 * kMillisecond);
    timer.SetEvents(rack.sim().events_processed());
  }
  *wall_sink = trial.wall_ms;
  out.completed = driver.completed();
  out.cache_hits = rack.tor().counters().cache_hits;
  for (size_t i = 0; i < rack.num_servers(); ++i) {
    out.server_reads += rack.server(i).stats().reads;
  }
  out.events = rack.sim().events_processed();
  out.windows = rack.sim().windows_run();
  for (size_t lp = 1; lp <= rack.sim().num_lps(); ++lp) {
    out.windows_merged += rack.sim().lp_windows_merged(lp);
  }
  return out;
}

void RunParallelDesTrials(bench::BenchHarness& harness) {
  ParallelDesOutcome outcomes[3];
  size_t idx = 0;
  for (size_t st : {1ul, 4ul, 8ul}) {
    auto& trial = harness.AddTrial("ParallelDes/sim_threads=" + std::to_string(st));
    trial.Config("sim_threads", static_cast<double>(st));
    double wall = 0;
    outcomes[idx] = RunParallelDesRack(st, &wall, trial);
    const ParallelDesOutcome& o = outcomes[idx];
    trial.Metric("completed", static_cast<double>(o.completed))
        .Metric("cache_hits", static_cast<double>(o.cache_hits))
        .Metric("server_reads", static_cast<double>(o.server_reads))
        .Metric("windows", static_cast<double>(o.windows))
        .Metric("windows_merged", static_cast<double>(o.windows_merged))
        .Metric("avg_events_per_window",
                o.windows > 0 ? static_cast<double>(o.events) /
                                    static_cast<double>(o.windows)
                              : 0.0);
    ++idx;
  }
  // The parallel-equivalence property, enforced on every run: worker count
  // must never change results, round decomposition or merge decisions.
  for (size_t i = 1; i < 3; ++i) {
    NC_CHECK(outcomes[0].completed == outcomes[i].completed);
    NC_CHECK(outcomes[0].cache_hits == outcomes[i].cache_hits);
    NC_CHECK(outcomes[0].server_reads == outcomes[i].server_reads);
    NC_CHECK(outcomes[0].events == outcomes[i].events);
    NC_CHECK(outcomes[0].windows == outcomes[i].windows);
    NC_CHECK(outcomes[0].windows_merged == outcomes[i].windows_merged);
  }
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) {
  netcache::bench::BenchHarness harness(argc, argv, "micro_datastructures");
  netcache::RunSketchHashTrials(harness);
  netcache::RunBurstTrials(harness);
  netcache::RunSketchBatchTrial(harness);
  netcache::RunServeStageTrial(harness);
  netcache::RunServerBurstTrial(harness);
  netcache::RunTableGroupProbeTrial(harness);
  netcache::RunParallelDesTrials(harness);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return harness.Finish();
}
