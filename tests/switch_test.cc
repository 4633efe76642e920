// Tests for the NetCache switch data plane (Algorithm 1) and its control
// API: cache hits/misses, write invalidation, data-plane cache updates,
// heavy-hitter reporting, routing, defragmentation and resource accounting.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "dataplane/netcache_switch.h"
#include "reply_contract.h"
#include "workload/generator.h"

namespace netcache {
namespace {

constexpr IpAddress kClient = 0x0b000001;
constexpr IpAddress kServerA = 0x0a000001;
constexpr IpAddress kServerB = 0x0a000002;

Key K(uint64_t id) { return Key::FromUint64(id); }

SwitchConfig SmallSwitch() {
  SwitchConfig cfg;
  cfg.num_pipes = 2;
  cfg.ports_per_pipe = 4;
  cfg.num_stages = 8;
  cfg.indexes_per_pipe = 64;
  cfg.cache_capacity = 64;
  cfg.stats.counter_slots = 64;
  cfg.stats.hh.sketch_width = 1024;
  cfg.stats.hh.bloom_bits = 4096;
  cfg.stats.hh.hot_threshold = 8;
  return cfg;
}

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest() : sw_(nullptr, "tor", SmallSwitch()) {
    // Servers on pipe 0 (ports 0,1); client on pipe 1 (port 4).
    EXPECT_TRUE(sw_.AddRoute(kServerA, 0).ok());
    EXPECT_TRUE(sw_.AddRoute(kServerB, 1).ok());
    EXPECT_TRUE(sw_.AddRoute(kClient, 4).ok());
  }

  // Runs one packet and returns the emits.
  std::vector<NetCacheSwitch::Emit> Run(const Packet& pkt) { return sw_.ProcessPacket(pkt, 4); }

  NetCacheSwitch sw_;
};

TEST_F(SwitchTest, ReadMissForwardsToServer) {
  auto emits = Run(MakeGet(kClient, kServerA, K(1), 1));
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].port, 0u);
  EXPECT_EQ(emits[0].pkt.nc.op, OpCode::kGet);
  EXPECT_EQ(sw_.counters().cache_misses, 1u);
}

TEST_F(SwitchTest, ReadHitServedBySwitch) {
  Value v = Value::Filler(1, 64);
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), v, kServerA).ok());

  auto emits = Run(MakeGet(kClient, kServerA, K(1), 7));
  ASSERT_EQ(emits.size(), 1u);
  // Reply bounced straight back out the client port with swapped addresses.
  EXPECT_EQ(emits[0].port, 4u);
  const Packet& reply = emits[0].pkt;
  EXPECT_EQ(reply.nc.op, OpCode::kGetReply);
  EXPECT_EQ(reply.ip.dst, kClient);
  EXPECT_EQ(reply.ip.src, kServerA);
  EXPECT_EQ(reply.nc.seq, 7u);
  ASSERT_TRUE(reply.nc.has_value);
  EXPECT_EQ(reply.nc.value, v);
  EXPECT_EQ(sw_.counters().cache_hits, 1u);
}

TEST_F(SwitchTest, HitIncrementsPerKeyCounter) {
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  for (int i = 0; i < 5; ++i) {
    Run(MakeGet(kClient, kServerA, K(1), i));
  }
  EXPECT_EQ(sw_.ReadCounterFor(K(1)), 5u);
}

TEST_F(SwitchTest, WriteInvalidatesAndRewritesOp) {
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 32), kServerA).ok());
  ASSERT_TRUE(sw_.IsValid(K(1)));

  auto emits = Run(MakePut(kClient, kServerA, K(1), Value::Filler(2, 32), 3));
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].port, 0u);  // forwarded to the server
  EXPECT_EQ(emits[0].pkt.nc.op, OpCode::kCachedPut);  // §4.3 op rewrite
  EXPECT_FALSE(sw_.IsValid(K(1)));
  EXPECT_TRUE(sw_.IsCached(K(1)));  // entry stays, only the valid bit clears
  EXPECT_EQ(sw_.counters().invalidations, 1u);
}

TEST_F(SwitchTest, WriteToUncachedKeyPassesThrough) {
  auto emits = Run(MakePut(kClient, kServerA, K(9), Value::Filler(9, 32), 3));
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].pkt.nc.op, OpCode::kPut);  // untouched
}

TEST_F(SwitchTest, DeleteRewritesToCachedDelete) {
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 32), kServerA).ok());
  auto emits = Run(MakeDelete(kClient, kServerA, K(1), 3));
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].pkt.nc.op, OpCode::kCachedDelete);
}

TEST_F(SwitchTest, InvalidEntryReadGoesToServer) {
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 32), kServerA).ok());
  Run(MakePut(kClient, kServerA, K(1), Value::Filler(2, 32), 1));  // invalidate
  auto emits = Run(MakeGet(kClient, kServerA, K(1), 2));
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].port, 0u);  // to the server, not back to the client
  EXPECT_EQ(emits[0].pkt.nc.op, OpCode::kGet);
  EXPECT_EQ(sw_.counters().cache_invalid, 1u);
}

TEST_F(SwitchTest, CacheUpdateRevalidates) {
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());
  Run(MakePut(kClient, kServerA, K(1), Value::Filler(2, 64), 1));
  ASSERT_FALSE(sw_.IsValid(K(1)));

  // Server agent pushes the new value.
  Value fresh = Value::Filler(2, 64);
  Packet update;
  update.ip.src = kServerA;
  update.ip.dst = sw_.config().switch_ip;
  update.l4.dst_port = kNetCachePort;
  update.nc.op = OpCode::kCacheUpdate;
  update.nc.key = K(1);
  update.nc.has_value = true;
  update.nc.value = fresh;
  auto emits = sw_.ProcessPacket(update, 0);

  ASSERT_EQ(emits.size(), 1u);
  ExpectInPlaceReply(update, emits[0], OpCode::kCacheUpdateAck);
  EXPECT_EQ(emits[0].pkt.ip.dst, kServerA);
  EXPECT_TRUE(sw_.IsValid(K(1)));
  EXPECT_EQ(*sw_.ReadCachedValue(K(1)), fresh);

  // Next read is a hit with the fresh value.
  auto read = Run(MakeGet(kClient, kServerA, K(1), 5));
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].pkt.nc.value, fresh);
}

TEST_F(SwitchTest, SmallerUpdateShrinksServedValue) {
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 128), kServerA).ok());
  Value small = Value::Filler(3, 40);
  Packet update;
  update.ip.src = kServerA;
  update.ip.dst = sw_.config().switch_ip;
  update.l4.dst_port = kNetCachePort;
  update.nc.op = OpCode::kCacheUpdate;
  update.nc.key = K(1);
  update.nc.has_value = true;
  update.nc.value = small;
  sw_.ProcessPacket(update, 0);
  auto read = Run(MakeGet(kClient, kServerA, K(1), 5));
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].pkt.nc.value.size(), 40u);
  EXPECT_EQ(read[0].pkt.nc.value, small);
}

TEST_F(SwitchTest, OversizedUpdateRejected) {
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  Packet update;
  update.ip.src = kServerA;
  update.ip.dst = sw_.config().switch_ip;
  update.l4.dst_port = kNetCachePort;
  update.nc.op = OpCode::kCacheUpdate;
  update.nc.key = K(1);
  update.nc.has_value = true;
  update.nc.value = Value::Filler(2, 128);  // 8 units > 1 allocated
  auto emits = sw_.ProcessPacket(update, 0);
  ASSERT_EQ(emits.size(), 1u);
  ExpectInPlaceReply(update, emits[0], OpCode::kCacheUpdateReject);  // §4.3
  EXPECT_FALSE(sw_.IsValid(K(1)));
  EXPECT_EQ(sw_.counters().update_rejects, 1u);
}

TEST_F(SwitchTest, UpdateForEvictedKeyStillAcked) {
  Packet update;
  update.ip.src = kServerA;
  update.ip.dst = sw_.config().switch_ip;
  update.l4.dst_port = kNetCachePort;
  update.nc.op = OpCode::kCacheUpdate;
  update.nc.key = K(77);
  update.nc.has_value = true;
  update.nc.value = Value::Filler(1, 16);
  auto emits = sw_.ProcessPacket(update, 0);
  ASSERT_EQ(emits.size(), 1u);
  ExpectInPlaceReply(update, emits[0], OpCode::kCacheUpdateAck);
}

TEST_F(SwitchTest, DeleteUpdateLeavesEntryInvalid) {
  // A CachedDelete's refresh carries no value: the switch acks but must not
  // revalidate (there is nothing to serve).
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  Run(MakeDelete(kClient, kServerA, K(1), 1));
  Packet update;
  update.ip.src = kServerA;
  update.ip.dst = sw_.config().switch_ip;
  update.l4.dst_port = kNetCachePort;
  update.nc.op = OpCode::kCacheUpdate;
  update.nc.key = K(1);
  update.nc.has_value = false;
  auto emits = sw_.ProcessPacket(update, 0);
  ASSERT_EQ(emits.size(), 1u);
  ExpectInPlaceReply(update, emits[0], OpCode::kCacheUpdateAck);
  EXPECT_FALSE(sw_.IsValid(K(1)));
}

TEST_F(SwitchTest, HotKeyReportedOnce) {
  std::vector<Key> reports;
  sw_.SetHotReportHandler([&](const Key& k, uint32_t) { reports.push_back(k); });
  for (int i = 0; i < 50; ++i) {
    Run(MakeGet(kClient, kServerA, K(42), i));
  }
  ASSERT_EQ(reports.size(), 1u);  // threshold 8, Bloom dedups the rest
  EXPECT_EQ(reports[0], K(42));
  EXPECT_EQ(sw_.counters().hot_reports, 1u);
}

TEST_F(SwitchTest, StatisticsResetReenablesReports) {
  int reports = 0;
  sw_.SetHotReportHandler([&](const Key&, uint32_t) { ++reports; });
  for (int i = 0; i < 50; ++i) {
    Run(MakeGet(kClient, kServerA, K(42), i));
  }
  sw_.ResetStatistics();
  for (int i = 0; i < 50; ++i) {
    Run(MakeGet(kClient, kServerA, K(42), i));
  }
  EXPECT_EQ(reports, 2);
}

TEST_F(SwitchTest, CachedReadsDoNotFeedHeavyHitter) {
  int reports = 0;
  sw_.SetHotReportHandler([&](const Key&, uint32_t) { ++reports; });
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  for (int i = 0; i < 100; ++i) {
    Run(MakeGet(kClient, kServerA, K(1), i));
  }
  EXPECT_EQ(reports, 0);  // hits use the per-key counter, not the sketch
}

TEST_F(SwitchTest, NonNetCacheTrafficRoutedUntouched) {
  Packet plain;
  plain.is_netcache = false;
  plain.ip.src = kClient;
  plain.ip.dst = kServerB;
  auto emits = sw_.ProcessPacket(plain, 4);
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].port, 1u);
  EXPECT_EQ(sw_.counters().netcache_queries, 0u);
}

TEST_F(SwitchTest, SnakeHopForwardsEveryPacketKind) {
  // Writes, replies and plain L3 leave through the same forward step as
  // Gets, so the snake hop applies to them too, after NetCache processing.
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 32), kServerA).ok());
  ASSERT_TRUE(sw_.SetSnakeForward(5, 6, /*strip_value=*/true).ok());

  auto put = sw_.ProcessPacket(MakePut(kClient, kServerA, K(1), Value::Filler(2, 32), 1), 5);
  ASSERT_EQ(put.size(), 1u);
  EXPECT_EQ(put[0].port, 6u);
  EXPECT_EQ(put[0].pkt.nc.op, OpCode::kCachedPut);  // invalidated on the way

  Packet plain;
  plain.is_netcache = false;
  plain.ip.src = kClient;
  plain.ip.dst = kServerB;
  auto fwd = sw_.ProcessPacket(plain, 5);
  ASSERT_EQ(fwd.size(), 1u);
  EXPECT_EQ(fwd[0].port, 6u);
  EXPECT_FALSE(fwd[0].pkt.is_netcache);

  // A server's read reply on a stripping hop is rewound into a fresh Get.
  Packet reply = MakeReplyShell(MakeGet(kClient, kServerA, K(3), 2));
  reply.nc.op = OpCode::kGetReply;
  reply.nc.has_value = true;
  reply.nc.value = Value::Filler(3, 32);
  auto rewound = sw_.ProcessPacket(reply, 5);
  ASSERT_EQ(rewound.size(), 1u);
  EXPECT_EQ(rewound[0].port, 6u);
  EXPECT_EQ(rewound[0].pkt.nc.op, OpCode::kGet);
  EXPECT_FALSE(rewound[0].pkt.nc.has_value);
  EXPECT_EQ(rewound[0].pkt.ip.dst, kServerA);
  EXPECT_EQ(sw_.counters().forwarded, 3u);
}

TEST_F(SwitchTest, SnakeForwardRejectsPortsBeyondRadix) {
  // SmallSwitch has 2 pipes x 4 ports: ports 0-7. An in_port of UINT32_MAX
  // once wrapped the hop table's resize to zero; an out_port past the radix
  // indexed the per-pipe rate state out of range.
  EXPECT_EQ(sw_.SetSnakeForward(UINT32_MAX, 6, /*strip_value=*/true).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sw_.SetSnakeForward(8, 6, /*strip_value=*/true).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sw_.SetSnakeForward(5, 8, /*strip_value=*/true).code(),
            StatusCode::kInvalidArgument);
  // A rejected hop installs nothing: port 5 still routes by destination.
  auto emits = sw_.ProcessPacket(MakeGet(kClient, kServerA, K(1), 1), 5);
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].port, 0u);
  EXPECT_TRUE(sw_.SetSnakeForward(7, 0, /*strip_value=*/false).ok());
}

TEST_F(SwitchTest, WrongL4PortSkipsNetCacheModules) {
  Packet pkt = MakeGet(kClient, kServerA, K(1), 1);
  pkt.l4.src_port = 1234;
  pkt.l4.dst_port = 5678;
  sw_.ProcessPacket(pkt, 4);
  EXPECT_EQ(sw_.counters().netcache_queries, 0u);
  EXPECT_EQ(sw_.counters().forwarded, 1u);
}

TEST_F(SwitchTest, TtlDecrementedAndLoopingPacketDropped) {
  Packet pkt = MakeGet(kClient, kServerA, K(1), 1);
  pkt.ip.ttl = 3;
  auto emits = Run(pkt);
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].pkt.ip.ttl, 2);
  pkt.ip.ttl = 0;
  EXPECT_TRUE(Run(pkt).empty());  // expired: dropped, not forwarded
  EXPECT_EQ(sw_.counters().ttl_drops, 1u);
}

TEST_F(SwitchTest, UnroutableDropped) {
  auto emits = Run(MakeGet(kClient, 0x0adead01, K(1), 1));
  EXPECT_TRUE(emits.empty());
  EXPECT_EQ(sw_.counters().unroutable, 1u);
}

TEST_F(SwitchTest, InsertPlacesValueInOwningPipe) {
  // kServerA is on port 0 -> pipe 0; kClient on port 4 -> pipe 1.
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  Run(MakeGet(kClient, kServerA, K(1), 1));
  EXPECT_EQ(sw_.pipe_value_reads(0), 1u);
  EXPECT_EQ(sw_.pipe_value_reads(1), 0u);
}

TEST_F(SwitchTest, InsertRejectsDuplicatesAndUnrouted) {
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  EXPECT_EQ(sw_.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(sw_.InsertCacheEntry(K(2), Value::Filler(2, 16), 0x0adead01).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sw_.InsertCacheEntry(K(3), Value{}, kServerA).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SwitchTest, EvictFreesEverything) {
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  Run(MakeGet(kClient, kServerA, K(1), 1));
  ASSERT_TRUE(sw_.EvictCacheEntry(K(1)).ok());
  EXPECT_FALSE(sw_.IsCached(K(1)));
  EXPECT_EQ(sw_.CacheSize(), 0u);
  EXPECT_EQ(sw_.EvictCacheEntry(K(1)).code(), StatusCode::kNotFound);
  // Re-insertion reuses the slot with a clean counter.
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  EXPECT_EQ(sw_.ReadCounterFor(K(1)), 0u);
}

TEST_F(SwitchTest, CacheCapacityEnforced) {
  SwitchConfig cfg = SmallSwitch();
  cfg.cache_capacity = 2;
  cfg.stats.counter_slots = 2;
  NetCacheSwitch sw(nullptr, "tiny", cfg);
  ASSERT_TRUE(sw.AddRoute(kServerA, 0).ok());
  EXPECT_TRUE(sw.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  EXPECT_TRUE(sw.InsertCacheEntry(K(2), Value::Filler(2, 16), kServerA).ok());
  EXPECT_EQ(sw.InsertCacheEntry(K(3), Value::Filler(3, 16), kServerA).code(),
            StatusCode::kResourceExhausted);
}

TEST_F(SwitchTest, DefragmentEnablesLargeInsert) {
  SwitchConfig cfg = SmallSwitch();
  cfg.indexes_per_pipe = 2;  // tiny value memory: 2 rows x 8 units per pipe
  cfg.cache_capacity = 8;
  cfg.stats.counter_slots = 8;
  NetCacheSwitch sw(nullptr, "frag", cfg);
  ASSERT_TRUE(sw.AddRoute(kServerA, 0).ok());
  ASSERT_TRUE(sw.AddRoute(kClient, 4).ok());
  // Fill rows so free space is split: row0 = 4 free, row1 = 4 free.
  ASSERT_TRUE(sw.InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());
  ASSERT_TRUE(sw.InsertCacheEntry(K(2), Value::Filler(2, 64), kServerA).ok());
  ASSERT_TRUE(sw.InsertCacheEntry(K(3), Value::Filler(3, 64), kServerA).ok());
  ASSERT_TRUE(sw.EvictCacheEntry(K(2)).ok());
  // 128-byte value needs a full row; fragmented -> fails, defrag -> fits.
  EXPECT_EQ(sw.InsertCacheEntry(K(4), Value::Filler(4, 128), kServerA).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(sw.Defragment(0, 8), 1u);
  EXPECT_TRUE(sw.InsertCacheEntry(K(4), Value::Filler(4, 128), kServerA).ok());
  // Moved key still serves the right value.
  auto emits = sw.ProcessPacket(MakeGet(kClient, kServerA, K(3), 1), 4);
  ASSERT_EQ(emits.size(), 1u);
  EXPECT_EQ(emits[0].pkt.nc.value, Value::Filler(3, 64));
}

TEST_F(SwitchTest, ReadCacheCountersSnapshot) {
  ASSERT_TRUE(sw_.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  ASSERT_TRUE(sw_.InsertCacheEntry(K(2), Value::Filler(2, 16), kServerB).ok());
  Run(MakeGet(kClient, kServerA, K(1), 1));
  Run(MakeGet(kClient, kServerA, K(1), 2));
  Run(MakeGet(kClient, kServerB, K(2), 3));
  auto counters = sw_.ReadCacheCounters();
  ASSERT_EQ(counters.size(), 2u);
  uint32_t c1 = 0;
  uint32_t c2 = 0;
  for (const auto& [key, count] : counters) {
    if (key == K(1)) {
      c1 = count;
    } else if (key == K(2)) {
      c2 = count;
    }
  }
  EXPECT_EQ(c1, 2u);
  EXPECT_EQ(c2, 1u);
}

TEST_F(SwitchTest, ResourceReportMatchesPrototype) {
  // With the paper's dimensions the report must reproduce §6: 8 MB values,
  // 512 KB sketch, 96 KB Bloom — under 50% of a Tofino-like SRAM budget.
  SwitchConfig cfg;
  cfg.num_pipes = 1;
  cfg.ports_per_pipe = 64;
  cfg.cache_capacity = 64 * 1024;
  cfg.indexes_per_pipe = 64 * 1024;
  cfg.stats.counter_slots = 64 * 1024;
  NetCacheSwitch sw(nullptr, "proto", cfg);
  ResourceReport r = sw.Resources();
  EXPECT_EQ(r.value_bits, 8ull * 1024 * 1024 * 8);         // 8 MB
  EXPECT_EQ(r.sketch_bits, 4ull * 64 * 1024 * 16);         // 512 KB
  EXPECT_EQ(r.bloom_bits, 3ull * 256 * 1024);              // 96 KB
  // "less than 50% of the on-chip memory" (§6); Tofino ~22 MB SRAM.
  EXPECT_LT(r.FractionOf(22ull * 1024 * 1024 * 8), 0.5);
}

}  // namespace
}  // namespace netcache
