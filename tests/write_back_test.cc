// Tests for the experimental in-switch write handling (§5 "Write-intensive
// workloads"): write absorption, dirty tracking, controller flushes,
// flush-before-evict, fallback paths — and the fault-tolerance caveat the
// paper warns about (dirty data lost on switch failure).

#include <gtest/gtest.h>

#include "core/rack.h"
#include "reply_contract.h"
#include "workload/generator.h"

namespace netcache {
namespace {

constexpr IpAddress kClient = 0x0b000001;
constexpr IpAddress kServerA = 0x0a000001;

Key K(uint64_t id) { return Key::FromUint64(id); }

SwitchConfig WbSwitch() {
  SwitchConfig cfg;
  cfg.num_pipes = 1;
  cfg.ports_per_pipe = 8;
  cfg.indexes_per_pipe = 64;
  cfg.cache_capacity = 64;
  cfg.stats.counter_slots = 64;
  cfg.write_back = true;
  return cfg;
}

TEST(WriteBackSwitchTest, PutAbsorbedAndAnsweredBySwitch) {
  NetCacheSwitch sw(nullptr, "wb", WbSwitch());
  ASSERT_TRUE(sw.AddRoute(kServerA, 0).ok());
  ASSERT_TRUE(sw.AddRoute(kClient, 4).ok());
  ASSERT_TRUE(sw.InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());

  Value fresh = Value::Filler(2, 64);
  Packet put = MakePut(kClient, kServerA, K(1), fresh, 9);
  auto emits = sw.ProcessPacket(put, 4);
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].port, 4u);  // straight back to the client
  ExpectInPlaceReply(put, emits[0], OpCode::kPutReply);
  EXPECT_EQ(emits[0].pkt.nc.seq, 9u);
  EXPECT_TRUE(sw.IsValid(K(1)));  // stays valid, new value served
  EXPECT_TRUE(sw.IsDirty(K(1)));
  EXPECT_EQ(*sw.ReadCachedValue(K(1)), fresh);
  EXPECT_EQ(sw.counters().write_back_hits, 1u);
  EXPECT_EQ(sw.counters().invalidations, 0u);
}

TEST(WriteBackSwitchTest, DrainDirtyReturnsAndClears) {
  NetCacheSwitch sw(nullptr, "wb", WbSwitch());
  ASSERT_TRUE(sw.AddRoute(kServerA, 0).ok());
  ASSERT_TRUE(sw.AddRoute(kClient, 4).ok());
  ASSERT_TRUE(sw.InsertCacheEntry(K(1), Value::Filler(1, 32), kServerA).ok());
  ASSERT_TRUE(sw.InsertCacheEntry(K(2), Value::Filler(2, 32), kServerA).ok());
  sw.ProcessPacket(MakePut(kClient, kServerA, K(1), Value::Filler(10, 32), 1), 4);

  auto dirty = sw.DrainDirty();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].first, K(1));
  EXPECT_EQ(dirty[0].second, Value::Filler(10, 32));
  EXPECT_FALSE(sw.IsDirty(K(1)));
  EXPECT_TRUE(sw.DrainDirty().empty());
}

TEST(WriteBackSwitchTest, OversizedPutFallsBackToWriteThrough) {
  NetCacheSwitch sw(nullptr, "wb", WbSwitch());
  ASSERT_TRUE(sw.AddRoute(kServerA, 0).ok());
  ASSERT_TRUE(sw.AddRoute(kClient, 4).ok());
  ASSERT_TRUE(sw.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());

  auto emits = sw.ProcessPacket(MakePut(kClient, kServerA, K(1), Value::Filler(2, 128), 1), 4);
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].port, 0u);  // forwarded to the server as usual
  EXPECT_EQ(emits[0].pkt.nc.op, OpCode::kCachedPut);
  EXPECT_FALSE(sw.IsValid(K(1)));  // invalidated, classic path
}

TEST(WriteBackSwitchTest, DeleteStillGoesToServer) {
  NetCacheSwitch sw(nullptr, "wb", WbSwitch());
  ASSERT_TRUE(sw.AddRoute(kServerA, 0).ok());
  ASSERT_TRUE(sw.AddRoute(kClient, 4).ok());
  ASSERT_TRUE(sw.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  auto emits = sw.ProcessPacket(MakeDelete(kClient, kServerA, K(1), 1), 4);
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].pkt.nc.op, OpCode::kCachedDelete);
  EXPECT_FALSE(sw.IsValid(K(1)));
}

TEST(WriteBackSwitchTest, UncachedPutUntouched) {
  NetCacheSwitch sw(nullptr, "wb", WbSwitch());
  ASSERT_TRUE(sw.AddRoute(kServerA, 0).ok());
  ASSERT_TRUE(sw.AddRoute(kClient, 4).ok());
  auto emits = sw.ProcessPacket(MakePut(kClient, kServerA, K(5), Value::Filler(5, 16), 1), 4);
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].pkt.nc.op, OpCode::kPut);
  EXPECT_EQ(emits[0].port, 0u);
}

// -------------------------------------------------------- end to end

RackConfig WbRack() {
  RackConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 1;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = 1024;
  cfg.switch_config.indexes_per_pipe = 1024;
  cfg.switch_config.stats.counter_slots = 1024;
  cfg.switch_config.write_back = true;
  cfg.controller_config.cache_capacity = 64;
  cfg.controller_config.write_back_flush_interval = 10 * kMillisecond;
  return cfg;
}

TEST(WriteBackRackTest, FlushLoopSyncsServer) {
  Rack rack(WbRack());
  rack.Populate(100, 64);
  rack.WarmCache({K(1)});
  rack.StartController();

  Value fresh = Value::Filler(42, 64);
  bool acked = false;
  rack.client(0).Put(rack.OwnerOf(K(1)), K(1), fresh,
                     [&](const Status& s, const Value&) { acked = s.ok(); });
  rack.sim().RunUntil(1 * kMillisecond);
  ASSERT_TRUE(acked);

  // Before the flush interval the server still has the stale value...
  StorageServer& owner = rack.server(rack.OwnerOf(K(1)) & 0xff);
  EXPECT_EQ(*owner.store().Get(K(1)), WorkloadGenerator::ValueFor(1, 64));
  // ...after it, the controller has drained the dirty entry.
  rack.sim().RunUntil(25 * kMillisecond);
  EXPECT_EQ(*owner.store().Get(K(1)), fresh);
  EXPECT_FALSE(rack.tor().IsDirty(K(1)));
  EXPECT_GE(rack.controller().stats().dirty_flushes, 1u);
}

TEST(WriteBackRackTest, ReadAfterWriteServedBySwitch) {
  Rack rack(WbRack());
  rack.Populate(100, 64);
  rack.WarmCache({K(1)});
  rack.StartController();

  Value fresh = Value::Filler(43, 64);
  rack.client(0).Put(rack.OwnerOf(K(1)), K(1), fresh, [](const Status&, const Value&) {});
  Value got;
  rack.client(0).Get(rack.OwnerOf(K(1)), K(1),
                     [&](const Status&, const Value& v) { got = v; });
  rack.sim().RunUntil(2 * kMillisecond);
  EXPECT_EQ(got, fresh);  // no invalidation window in write-back mode
  uint64_t server_writes = 0;
  for (size_t i = 0; i < rack.num_servers(); ++i) {
    server_writes += rack.server(i).stats().writes;
  }
  EXPECT_EQ(server_writes, 0u);  // the write never reached a server
}

TEST(WriteBackRackTest, EvictionFlushesDirtyValue) {
  Rack rack(WbRack());
  rack.Populate(100, 64);
  rack.WarmCache({K(1)});
  rack.StartController();

  Value fresh = Value::Filler(44, 64);
  rack.client(0).Put(rack.OwnerOf(K(1)), K(1), fresh, [](const Status&, const Value&) {});
  rack.sim().RunUntil(1 * kMillisecond);
  ASSERT_TRUE(rack.tor().IsDirty(K(1)));

  // Force an eviction through the controller path before the flush tick.
  rack.controller().OnUpdateReject(K(1), fresh);  // evicts + requeues
  StorageServer& owner = rack.server(rack.OwnerOf(K(1)) & 0xff);
  EXPECT_EQ(*owner.store().Get(K(1)), fresh);  // flushed before eviction
}

TEST(WriteBackRackTest, RebootLosesDirtyData) {
  // The §5 caveat, demonstrated: un-flushed write-back data does not
  // survive a switch failure.
  Rack rack(WbRack());
  rack.Populate(100, 64);
  rack.WarmCache({K(1)});

  Value fresh = Value::Filler(45, 64);
  rack.client(0).Put(rack.OwnerOf(K(1)), K(1), fresh, [](const Status&, const Value&) {});
  rack.sim().RunUntil(1 * kMillisecond);
  ASSERT_TRUE(rack.tor().IsDirty(K(1)));

  rack.tor().ClearCache();  // switch dies before any flush
  rack.controller().OnSwitchReboot();

  Value got;
  rack.client(0).Get(rack.OwnerOf(K(1)), K(1),
                     [&](const Status&, const Value& v) { got = v; });
  rack.sim().RunUntil(3 * kMillisecond);
  EXPECT_EQ(got, WorkloadGenerator::ValueFor(1, 64));  // the OLD value: write lost
  EXPECT_NE(got, fresh);
}

}  // namespace
}  // namespace netcache
