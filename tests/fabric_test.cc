// Tests for the leaf-spine fabric (§5 multi-rack architecture): routing
// across tiers, spine-cache hits that never enter the destination rack,
// leaf-cache rack locality, and heavy-hitter adoption at the spine.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "client/workload_driver.h"
#include "common/json_writer.h"
#include "common/metrics.h"
#include "core/fabric.h"
#include "populate_reference.h"
#include "workload/generator.h"

namespace netcache {
namespace {

Key K(uint64_t id) { return Key::FromUint64(id); }

FabricConfig SmallFabric(FabricCacheMode mode) {
  FabricConfig cfg;
  cfg.num_racks = 3;
  cfg.servers_per_rack = 2;
  cfg.num_spines = 2;
  cfg.mode = mode;
  for (SwitchConfig* sc : {&cfg.tor_config, &cfg.spine_config}) {
    sc->num_pipes = 1;
    sc->cache_capacity = 256;
    sc->indexes_per_pipe = 256;
    sc->stats.counter_slots = 256;
    sc->stats.hh.hot_threshold = 16;
  }
  cfg.controller_config.cache_capacity = 32;
  cfg.controller_config.control_op_latency = 10 * kMicrosecond;
  return cfg;
}

TEST(FabricTest, CrossRackGetEndToEnd) {
  Fabric fabric(SmallFabric(FabricCacheMode::kNone));
  fabric.Populate(100, 64);
  Status got = Status::Internal("pending");
  Value value;
  fabric.client(0).Get(fabric.OwnerOf(K(7)), K(7), [&](const Status& s, const Value& v) {
    got = s;
    value = v;
  });
  fabric.sim().RunUntil(2 * kMillisecond);
  ASSERT_TRUE(got.ok()) << got.ToString();
  EXPECT_EQ(value, WorkloadGenerator::ValueFor(7, 64));
  EXPECT_EQ(fabric.TotalServerReads(), 1u);  // reached the owning server
}

TEST(FabricTest, PopulateMatchesPerKeyLoad) {
  Fabric bulk(SmallFabric(FabricCacheMode::kNone));
  Fabric ref(SmallFabric(FabricCacheMode::kNone));
  bulk.Populate(1000, 32);
  ReferencePopulate(ref, 1000, 32);
  ExpectSameStores(bulk, ref, 1000, 32);

  // A second, larger load upserts over the first.
  bulk.Populate(2500, 32);
  ReferencePopulate(ref, 2500, 32);
  ExpectSameStores(bulk, ref, 2500, 32);
}

TEST(FabricTest, BothClientsReachEveryServer) {
  Fabric fabric(SmallFabric(FabricCacheMode::kNone));
  fabric.Populate(200, 64);
  int completed = 0;
  for (uint64_t id = 0; id < 200; ++id) {
    fabric.client(id % 2).Get(fabric.OwnerOf(K(id)), K(id),
                              [&](const Status& s, const Value&) {
                                completed += s.ok() ? 1 : 0;
                              });
  }
  fabric.sim().RunUntil(50 * kMillisecond);
  EXPECT_EQ(completed, 200);
  // Every server saw some traffic (hash partitioning over 200 keys).
  for (size_t g = 0; g < fabric.num_servers(); ++g) {
    EXPECT_GT(fabric.server(g).stats().reads, 0u) << "server " << g;
  }
}

TEST(FabricTest, SpineCacheAnswersWithoutEnteringRack) {
  Fabric fabric(SmallFabric(FabricCacheMode::kSpineOnly));
  fabric.Populate(100, 64);
  fabric.WarmCaches({K(7)});

  Value value;
  fabric.client(1).Get(fabric.OwnerOf(K(7)), K(7),
                       [&](const Status&, const Value& v) { value = v; });
  fabric.sim().RunUntil(2 * kMillisecond);
  EXPECT_EQ(value, WorkloadGenerator::ValueFor(7, 64));
  EXPECT_EQ(fabric.TotalSpineHits(), 1u);
  EXPECT_EQ(fabric.TotalServerReads(), 0u);  // never entered the rack
}

TEST(FabricTest, HotItemReplicatedOnEverySpine) {
  Fabric fabric(SmallFabric(FabricCacheMode::kSpineOnly));
  fabric.Populate(100, 64);
  fabric.WarmCaches({K(7)});
  EXPECT_TRUE(fabric.spine(0).IsCached(K(7)));
  EXPECT_TRUE(fabric.spine(1).IsCached(K(7)));
  // Each client is served by its own spine: load spreads across replicas.
  fabric.client(0).Get(fabric.OwnerOf(K(7)), K(7), [](const Status&, const Value&) {});
  fabric.client(1).Get(fabric.OwnerOf(K(7)), K(7), [](const Status&, const Value&) {});
  fabric.sim().RunUntil(2 * kMillisecond);
  EXPECT_EQ(fabric.spine(0).counters().cache_hits, 1u);
  EXPECT_EQ(fabric.spine(1).counters().cache_hits, 1u);
}

TEST(FabricTest, LeafCacheKeepsItemsInOwningRack) {
  Fabric fabric(SmallFabric(FabricCacheMode::kLeafOnly));
  fabric.Populate(100, 64);
  std::vector<Key> hot = {K(1), K(2), K(3), K(4), K(5)};
  fabric.WarmCaches(hot);
  // Each hot key is cached exactly once, at its owner's ToR.
  for (const Key& key : hot) {
    size_t owner_rack = fabric.RackOfServer(
        static_cast<size_t>(fabric.OwnerOf(key) & 0xffff));
    size_t cached_at = 0;
    for (size_t r = 0; r < fabric.config().num_racks; ++r) {
      if (fabric.tor(r).IsCached(key)) {
        ++cached_at;
        EXPECT_EQ(r, owner_rack);
      }
    }
    EXPECT_EQ(cached_at, 1u);
  }
  // A read from a remote client is served by that ToR, not the server.
  Value value;
  fabric.client(0).Get(fabric.OwnerOf(K(1)), K(1),
                       [&](const Status&, const Value& v) { value = v; });
  fabric.sim().RunUntil(2 * kMillisecond);
  EXPECT_EQ(value, WorkloadGenerator::ValueFor(1, 64));
  EXPECT_EQ(fabric.TotalTorHits(), 1u);
  EXPECT_EQ(fabric.TotalServerReads(), 0u);
}

TEST(FabricTest, SpineControllerAdoptsHotKey) {
  Fabric fabric(SmallFabric(FabricCacheMode::kSpineOnly));
  fabric.Populate(1000, 64);
  fabric.StartControllers();

  // Client 0 hammers one key through spine 0.
  for (int i = 0; i < 100; ++i) {
    fabric.sim().Schedule(static_cast<SimDuration>(i) * 20 * kMicrosecond, [&fabric] {
      fabric.client(0).Get(fabric.OwnerOf(K(9)), K(9), [](const Status&, const Value&) {});
    });
  }
  fabric.sim().RunUntil(20 * kMillisecond);
  EXPECT_TRUE(fabric.spine(0).IsCached(K(9)));
  EXPECT_GT(fabric.spine(0).counters().cache_hits, 0u);
  // Spine 1 never saw this traffic, so it did not cache the key.
  EXPECT_FALSE(fabric.spine(1).IsCached(K(9)));
}

// Everything a partitioned fabric run leaves observable: the client, server
// and switch metrics (latency histograms included) as JSON, plus the
// simulator's event count and queue peak.
struct FabricOutcome {
  std::string metrics;
  uint64_t events = 0;
  uint64_t queue_peak = 0;
  uint64_t completed = 0;
};

FabricOutcome RunPartitionedFabric(size_t sim_threads) {
  FabricConfig cfg = SmallFabric(FabricCacheMode::kSpineOnly);
  cfg.sim_threads = sim_threads;
  Fabric fabric(cfg);
  EXPECT_TRUE(fabric.sim().partitioned());
  fabric.Populate(1000, 64);
  std::vector<std::unique_ptr<WorkloadGenerator>> gens;
  std::vector<std::unique_ptr<WorkloadDriver>> drivers;
  DriverConfig dc;
  dc.rate_qps = 200e3;
  for (size_t s = 0; s < fabric.num_clients(); ++s) {
    WorkloadConfig wl;
    wl.num_keys = 1000;
    wl.zipf_alpha = 0.99;
    wl.seed = 11 + s;
    gens.push_back(std::make_unique<WorkloadGenerator>(wl));
    drivers.push_back(std::make_unique<WorkloadDriver>(
        &fabric.sim(), &fabric.client(s), gens.back().get(), fabric.OwnerFn(), dc));
  }
  std::vector<Key> hot;
  for (uint64_t id : gens[0]->popularity().TopKeys(32)) {
    hot.push_back(K(id));
  }
  fabric.WarmCaches(hot);
  for (auto& d : drivers) {
    d->Start();
  }
  fabric.sim().RunUntil(20 * kMillisecond);
  FabricOutcome out;
  for (auto& d : drivers) {
    d->Stop();
    out.completed += d->completed();
  }
  fabric.sim().RunUntil(30 * kMillisecond);

  MetricsRegistry registry;
  for (size_t s = 0; s < fabric.num_clients(); ++s) {
    fabric.client(s).RegisterMetrics(registry, "client." + std::to_string(s));
    fabric.spine(s).RegisterMetrics(registry, "spine." + std::to_string(s));
  }
  for (size_t r = 0; r < cfg.num_racks; ++r) {
    fabric.tor(r).RegisterMetrics(registry, "tor." + std::to_string(r));
  }
  for (size_t g = 0; g < fabric.num_servers(); ++g) {
    fabric.server(g).RegisterMetrics(registry, "server." + std::to_string(g));
  }
  std::ostringstream json;
  JsonWriter w(json);
  w.BeginObject();
  registry.WriteJson(w);
  w.EndObject();
  out.metrics = json.str();
  out.events = fabric.sim().events_processed();
  out.queue_peak = fabric.sim().event_queue_peak();
  return out;
}

TEST(FabricTest, PartitionedRunIdenticalAcrossThreadCounts) {
  // Each spine client keeps its reply timeouts in a lane in its spine's LP.
  // The round schedule depends on event content alone, so 1 and 4 workers
  // must agree on every counter, histogram, event count and queue peak.
  FabricOutcome one = RunPartitionedFabric(1);
  FabricOutcome four = RunPartitionedFabric(4);
  EXPECT_GT(one.completed, 4000u);
  EXPECT_EQ(one.completed, four.completed);
  EXPECT_EQ(one.metrics, four.metrics);
  EXPECT_EQ(one.events, four.events);
  EXPECT_EQ(one.queue_peak, four.queue_peak);
}

}  // namespace
}  // namespace netcache
