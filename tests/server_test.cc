// Tests for the storage server + agent shim: query service, drop-tail
// overload behaviour, and the §4.3 write-through coherence protocol
// (cache-update push, retry, write blocking, reject handling).

#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "net/link.h"
#include "net/simulator.h"
#include "server/storage_server.h"

namespace netcache {
namespace {

constexpr IpAddress kClient = 0x0b000001;
constexpr IpAddress kServer = 0x0a000001;
constexpr IpAddress kSwitch = 0xffff0001;

Key K(uint64_t id) { return Key::FromUint64(id); }

// Helper used by the free-standing per-core tests below.
class TorStub;
void Inject2(TorStub& tor, const Packet& pkt);

// Stands in for the ToR: records everything the server sends and lets tests
// inject replies (acks, queries) back.
class TorStub : public Node {
 public:
  TorStub() : Node("tor-stub") {}
  void HandlePacket(const Packet& pkt, uint32_t) override { received.push_back(pkt); }

  std::optional<Packet> LastOfType(OpCode op) const {
    for (auto it = received.rbegin(); it != received.rend(); ++it) {
      if (it->nc.op == op) {
        return *it;
      }
    }
    return std::nullopt;
  }
  size_t CountOfType(OpCode op) const {
    size_t n = 0;
    for (const Packet& p : received) {
      n += p.nc.op == op ? 1 : 0;
    }
    return n;
  }

  std::vector<Packet> received;
};

void Inject2(TorStub& tor, const Packet& pkt) { tor.Send(0, pkt); }

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() {
    ServerConfig cfg;
    cfg.ip = kServer;
    cfg.switch_ip = kSwitch;
    cfg.service_rate_qps = 1e6;  // 1 us per query
    cfg.queue_capacity = 8;
    cfg.update_retry_timeout = 50 * kMicrosecond;
    server_ = std::make_unique<StorageServer>(&sim_, "server", cfg);
    link_ = std::make_unique<Link>(&sim_, LinkConfig{});
    link_->Connect(server_.get(), 0, &tor_, 0);
  }

  void Inject(const Packet& pkt) { tor_.Send(0, pkt); }

  Simulator sim_;
  TorStub tor_;
  std::unique_ptr<StorageServer> server_;
  std::unique_ptr<Link> link_;
};

TEST_F(ServerTest, GetReturnsStoredValue) {
  Value v = Value::Filler(1, 64);
  server_->store().Put(K(1), v);
  Inject(MakeGet(kClient, kServer, K(1), 5));
  sim_.RunAll();
  auto reply = tor_.LastOfType(OpCode::kGetReply);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->ip.dst, kClient);
  EXPECT_EQ(reply->nc.seq, 5u);
  ASSERT_TRUE(reply->nc.has_value);
  EXPECT_EQ(reply->nc.value, v);
}

TEST_F(ServerTest, GetMissRepliesWithoutValue) {
  Inject(MakeGet(kClient, kServer, K(404), 1));
  sim_.RunAll();
  auto reply = tor_.LastOfType(OpCode::kGetReply);
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->nc.has_value);
  EXPECT_EQ(server_->stats().read_misses, 1u);
}

TEST_F(ServerTest, PutStoresAndReplies) {
  Value v = Value::Filler(2, 32);
  Inject(MakePut(kClient, kServer, K(2), v, 9));
  sim_.RunAll();
  EXPECT_TRUE(tor_.LastOfType(OpCode::kPutReply).has_value());
  EXPECT_EQ(*server_->store().Get(K(2)), v);
  // Plain Put (uncached key): no cache update traffic.
  EXPECT_EQ(tor_.CountOfType(OpCode::kCacheUpdate), 0u);
}

TEST_F(ServerTest, DeleteRemovesAndReplies) {
  server_->store().Put(K(3), Value::Filler(3, 16));
  Inject(MakeDelete(kClient, kServer, K(3), 1));
  sim_.RunAll();
  EXPECT_TRUE(tor_.LastOfType(OpCode::kDeleteReply).has_value());
  EXPECT_FALSE(server_->store().Get(K(3)).ok());
}

TEST_F(ServerTest, ServiceTimeIsCharged) {
  server_->store().Put(K(1), Value::Filler(1, 16));
  Inject(MakeGet(kClient, kServer, K(1), 1));
  sim_.RunAll();
  // >= 1 us service + link delays.
  EXPECT_GE(sim_.Now(), static_cast<SimTime>(1 * kMicrosecond));
}

TEST_F(ServerTest, OverloadDropsTail) {
  server_->store().Put(K(1), Value::Filler(1, 16));
  // Burst of 50 queries into a queue of 8 at 1 us service each.
  for (int i = 0; i < 50; ++i) {
    Inject(MakeGet(kClient, kServer, K(1), i));
  }
  sim_.RunAll();
  EXPECT_GT(server_->stats().dropped, 0u);
  EXPECT_EQ(server_->stats().dropped + server_->stats().reads, 50u);
}

TEST_F(ServerTest, CachedPutPushesUpdateAndBlocks) {
  Value v0 = Value::Filler(1, 64);
  server_->store().Put(K(1), v0);
  Value v1 = Value::Filler(2, 64);
  Packet put = MakePut(kClient, kServer, K(1), v1, 1);
  put.nc.op = OpCode::kCachedPut;  // switch marked the key as cached
  Inject(put);
  sim_.RunUntil(10 * kMicrosecond);

  // Client got its reply immediately (before any switch ack!).
  EXPECT_TRUE(tor_.LastOfType(OpCode::kPutReply).has_value());
  // And the agent pushed the fresh value toward the switch.
  auto update = tor_.LastOfType(OpCode::kCacheUpdate);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(update->ip.dst, kSwitch);
  EXPECT_TRUE(update->nc.has_value);
  EXPECT_EQ(update->nc.value, v1);

  // A second write to the same key is deferred until the ack arrives.
  Packet put2 = MakePut(kClient, kServer, K(1), Value::Filler(3, 64), 2);
  put2.nc.op = OpCode::kCachedPut;
  Inject(put2);
  sim_.RunUntil(20 * kMicrosecond);
  EXPECT_EQ(server_->stats().deferred_writes, 1u);
  EXPECT_EQ(tor_.CountOfType(OpCode::kPutReply), 1u);  // second not answered yet

  // Ack the first update: the deferred write now executes and pushes its own
  // update.
  Packet ack = *update;
  ack.SwapSrcDst();
  ack.nc.op = OpCode::kCacheUpdateAck;
  ack.nc.has_value = false;
  Inject(ack);
  sim_.RunUntil(100 * kMicrosecond);
  EXPECT_EQ(tor_.CountOfType(OpCode::kPutReply), 2u);
  EXPECT_EQ(*server_->store().Get(K(1)), Value::Filler(3, 64));
}

TEST_F(ServerTest, UpdateRetriedUntilAcked) {
  server_->store().Put(K(1), Value::Filler(1, 64));
  Packet put = MakePut(kClient, kServer, K(1), Value::Filler(2, 64), 1);
  put.nc.op = OpCode::kCachedPut;
  Inject(put);
  // No ack for 300 us with a 50 us retry timer: expect several retries.
  sim_.RunUntil(300 * kMicrosecond);
  EXPECT_GE(server_->stats().cache_update_retries, 4u);
  EXPECT_GE(tor_.CountOfType(OpCode::kCacheUpdate), 5u);

  auto update = tor_.LastOfType(OpCode::kCacheUpdate);
  Packet ack = *update;
  ack.SwapSrcDst();
  ack.nc.op = OpCode::kCacheUpdateAck;
  ack.nc.has_value = false;
  Inject(ack);
  sim_.RunUntil(400 * kMicrosecond);
  uint64_t retries_at_ack = server_->stats().cache_update_retries;
  sim_.RunUntil(1000 * kMicrosecond);
  EXPECT_EQ(server_->stats().cache_update_retries, retries_at_ack);  // stopped
}

TEST_F(ServerTest, CachedDeleteSendsValuelessUpdate) {
  server_->store().Put(K(1), Value::Filler(1, 64));
  Packet del = MakeDelete(kClient, kServer, K(1), 1);
  del.nc.op = OpCode::kCachedDelete;
  Inject(del);
  sim_.RunUntil(10 * kMicrosecond);
  auto update = tor_.LastOfType(OpCode::kCacheUpdate);
  ASSERT_TRUE(update.has_value());
  EXPECT_FALSE(update->nc.has_value);
  EXPECT_FALSE(server_->store().Get(K(1)).ok());
}

TEST_F(ServerTest, RejectUnblocksAndNotifies) {
  server_->store().Put(K(1), Value::Filler(1, 16));
  std::vector<Key> rejected;
  server_->SetUpdateRejectHandler(
      [&](const Key& key, const Value&) { rejected.push_back(key); });

  Packet put = MakePut(kClient, kServer, K(1), Value::Filler(2, 128), 1);
  put.nc.op = OpCode::kCachedPut;
  Inject(put);
  sim_.RunUntil(10 * kMicrosecond);
  auto update = tor_.LastOfType(OpCode::kCacheUpdate);
  ASSERT_TRUE(update.has_value());

  Packet reject = *update;
  reject.SwapSrcDst();
  reject.nc.op = OpCode::kCacheUpdateReject;
  Inject(reject);
  sim_.RunUntil(20 * kMicrosecond);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0], K(1));
  EXPECT_EQ(server_->stats().cache_update_rejects, 1u);

  // Writes to the key flow again.
  Packet put2 = MakePut(kClient, kServer, K(1), Value::Filler(3, 16), 2);
  Inject(put2);
  sim_.RunUntil(100 * kMicrosecond);
  EXPECT_EQ(*server_->store().Get(K(1)), Value::Filler(3, 16));
}

TEST_F(ServerTest, ControlBlockDefersWrites) {
  server_->store().Put(K(1), Value::Filler(1, 16));
  server_->BlockWrites(K(1));  // controller starting an insertion
  Inject(MakePut(kClient, kServer, K(1), Value::Filler(2, 16), 1));
  sim_.RunUntil(50 * kMicrosecond);
  EXPECT_EQ(server_->stats().deferred_writes, 1u);
  EXPECT_EQ(*server_->store().Get(K(1)), Value::Filler(1, 16));  // unchanged

  server_->UnblockWrites(K(1));
  sim_.RunUntil(100 * kMicrosecond);
  EXPECT_EQ(*server_->store().Get(K(1)), Value::Filler(2, 16));
  EXPECT_TRUE(tor_.LastOfType(OpCode::kPutReply).has_value());
}

TEST_F(ServerTest, ReadsNotBlockedDuringUpdate) {
  server_->store().Put(K(1), Value::Filler(1, 64));
  Packet put = MakePut(kClient, kServer, K(1), Value::Filler(2, 64), 1);
  put.nc.op = OpCode::kCachedPut;
  Inject(put);
  sim_.RunUntil(10 * kMicrosecond);
  // While the update is pending (no ack yet), reads are served normally and
  // see the new value — the server is the serialization point (§4.3).
  Inject(MakeGet(kClient, kServer, K(1), 2));
  sim_.RunUntil(50 * kMicrosecond);
  auto reply = tor_.LastOfType(OpCode::kGetReply);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->nc.value, Value::Filler(2, 64));
}

TEST_F(ServerTest, ControlFetchReadsStore) {
  server_->store().Put(K(5), Value::Filler(5, 48));
  Result<Value> v = server_->ControlFetch(K(5));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 48u);
  EXPECT_FALSE(server_->ControlFetch(K(6)).ok());
}

// ------------------------------------------------- coherence modes (§4.3)

TEST(CoherenceModeTest, SyncHoldsReplyUntilAck) {
  Simulator sim;
  TorStub tor;
  ServerConfig cfg;
  cfg.ip = kServer;
  cfg.switch_ip = kSwitch;
  cfg.service_rate_qps = 1e6;
  cfg.coherence = CoherenceMode::kWriteThroughSync;
  StorageServer server(&sim, "sync", cfg);
  Link link(&sim, LinkConfig{});
  link.Connect(&server, 0, &tor, 0);
  server.store().Put(K(1), Value::Filler(1, 64));

  Packet put = MakePut(kClient, kServer, K(1), Value::Filler(2, 64), 1);
  put.nc.op = OpCode::kCachedPut;
  Inject2(tor, put);
  sim.RunUntil(50 * kMicrosecond);
  // Update went out, but no client reply yet.
  auto update = tor.LastOfType(OpCode::kCacheUpdate);
  ASSERT_TRUE(update.has_value());
  EXPECT_FALSE(tor.LastOfType(OpCode::kPutReply).has_value());

  Packet ack = *update;
  ack.SwapSrcDst();
  ack.nc.op = OpCode::kCacheUpdateAck;
  ack.nc.has_value = false;
  Inject2(tor, ack);
  sim.RunUntil(100 * kMicrosecond);
  EXPECT_TRUE(tor.LastOfType(OpCode::kPutReply).has_value());  // only after ack
}

TEST(CoherenceModeTest, WriteAroundSendsNoUpdate) {
  Simulator sim;
  TorStub tor;
  ServerConfig cfg;
  cfg.ip = kServer;
  cfg.switch_ip = kSwitch;
  cfg.service_rate_qps = 1e6;
  cfg.coherence = CoherenceMode::kWriteAround;
  StorageServer server(&sim, "around", cfg);
  Link link(&sim, LinkConfig{});
  link.Connect(&server, 0, &tor, 0);
  server.store().Put(K(1), Value::Filler(1, 64));

  Packet put = MakePut(kClient, kServer, K(1), Value::Filler(2, 64), 1);
  put.nc.op = OpCode::kCachedPut;
  Inject2(tor, put);
  sim.RunUntil(1 * kMillisecond);
  EXPECT_TRUE(tor.LastOfType(OpCode::kPutReply).has_value());
  EXPECT_EQ(tor.CountOfType(OpCode::kCacheUpdate), 0u);
  EXPECT_EQ(*server.store().Get(K(1)), Value::Filler(2, 64));
}

// ------------------------------------------------- per-core sharding (§6)

TEST(PerCoreServerTest, CoreSteeringIsDeterministic) {
  Simulator sim;
  ServerConfig cfg;
  cfg.ip = kServer;
  cfg.num_cores = 8;
  StorageServer server(&sim, "cores", cfg);
  Key k = K(5);
  size_t core = server.CoreOf(k);
  EXPECT_LT(core, 8u);
  EXPECT_EQ(server.CoreOf(k), core);
}

TEST(PerCoreServerTest, HotKeyBottlenecksOneCore) {
  // §1: per-core sharding amplifies skew — a single hot key saturates one
  // core while the others idle, so the server drops despite aggregate
  // headroom.
  Simulator sim;
  TorStub tor;
  ServerConfig cfg;
  cfg.ip = kServer;
  cfg.switch_ip = kSwitch;
  cfg.service_rate_qps = 8e5;  // 8 cores x 100 KQPS
  cfg.num_cores = 8;
  cfg.queue_capacity = 64;
  StorageServer server(&sim, "cores", cfg);
  Link link(&sim, LinkConfig{});
  link.Connect(&server, 0, &tor, 0);
  server.store().Put(K(1), Value::Filler(1, 16));

  // Offer 400 KQPS of a single key: half the server's aggregate rate, but
  // 4x one core's rate.
  for (int i = 0; i < 4000; ++i) {
    Packet get = MakeGet(kClient, kServer, K(1), i);
    sim.ScheduleAt(static_cast<SimTime>(i) * 2500, [&tor, get] { tor.Send(0, get); });
  }
  sim.RunAll();
  EXPECT_GT(server.stats().dropped, 1000u);  // one core can absorb only ~1/4
  size_t hot_core = server.CoreOf(K(1));
  for (size_t c = 0; c < 8; ++c) {
    if (c != hot_core) {
      EXPECT_EQ(server.core_processed(c), 0u) << "core " << c;
    }
  }
}

TEST(PerCoreServerTest, UniformKeysUseAllCores) {
  Simulator sim;
  TorStub tor;
  ServerConfig cfg;
  cfg.ip = kServer;
  cfg.num_cores = 4;
  cfg.service_rate_qps = 4e6;
  StorageServer server(&sim, "cores", cfg);
  Link link(&sim, LinkConfig{});
  link.Connect(&server, 0, &tor, 0);
  for (uint64_t id = 0; id < 64; ++id) {
    server.store().Put(K(id), Value::Filler(id, 16));
  }
  for (uint64_t id = 0; id < 64; ++id) {
    Packet get = MakeGet(kClient, kServer, K(id), static_cast<uint32_t>(id));
    Inject2(tor, get);
  }
  sim.RunAll();
  EXPECT_EQ(server.stats().dropped, 0u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_GT(server.core_processed(c), 0u) << "core " << c;
  }
}

// ------------------------------------------------- pooled queues, warmed store ops

// A one-core server with a 1 ms service time: everything injected at t=0
// arrives while the first op is still in service, so the rest queue.
struct SlowServerRig {
  SlowServerRig() {
    ServerConfig cfg;
    cfg.ip = kServer;
    cfg.switch_ip = kSwitch;
    cfg.service_rate_qps = 1e3;
    cfg.queue_capacity = 8;
    server = std::make_unique<StorageServer>(&sim, "server", cfg);
    link = std::make_unique<Link>(&sim, LinkConfig{});
    link->Connect(server.get(), 0, &tor, 0);
  }

  Simulator sim;
  TorStub tor;
  std::unique_ptr<StorageServer> server;
  std::unique_ptr<Link> link;
};

TEST(WarmedStoreOpTest, QueuedGetsSurviveRehashes) {
  SlowServerRig rig;
  for (uint64_t id = 1; id <= 4; ++id) {
    rig.server->store().Put(K(id), Value::Filler(id, 64));
  }
  // The first Get takes the core; the other four queue with their bucket
  // slots warmed. Key 1000 is not stored yet.
  for (uint64_t id : {1, 2, 3, 4, 1000}) {
    Inject2(rig.tor, MakeGet(kClient, kServer, K(id), static_cast<uint32_t>(id)));
  }
  rig.sim.RunUntil(500 * kMicrosecond);
  ASSERT_EQ(rig.server->QueueDepth(), 4u);
  // Rehash between arrival and service start (16 -> 128 buckets).
  for (uint64_t id = 1000; id < 1100; ++id) {
    rig.server->ControlApply(K(id), Value::Filler(id, 32));
  }
  // The second Get is now in service with its chain warmed; rehash again
  // before its lookup (-> 2048 buckets).
  rig.sim.RunUntil(1500 * kMicrosecond);
  ASSERT_EQ(rig.server->QueueDepth(), 3u);
  ASSERT_EQ(rig.server->BusyCores(), 1u);
  for (uint64_t id = 1100; id < 3000; ++id) {
    rig.server->ControlApply(K(id), Value::Filler(id, 32));
  }
  rig.sim.RunAll();
  ASSERT_EQ(rig.tor.CountOfType(OpCode::kGetReply), 5u);
  for (const Packet& reply : rig.tor.received) {
    const uint64_t id = reply.nc.seq;
    ASSERT_TRUE(reply.nc.has_value) << id;
    EXPECT_EQ(reply.nc.value, id == 1000 ? Value::Filler(id, 32) : Value::Filler(id, 64)) << id;
  }
}

TEST(WarmedStoreOpTest, GetQueuedBehindPutReadsItsValue) {
  SlowServerRig rig;
  rig.server->store().Put(K(7), Value::Filler(7, 64));
  rig.server->store().Put(K(8), Value::Filler(8, 64));
  Inject2(rig.tor, MakeGet(kClient, kServer, K(8), 1));  // takes the core
  Inject2(rig.tor, MakePut(kClient, kServer, K(7), Value::Filler(70, 48), 2));
  Inject2(rig.tor, MakeGet(kClient, kServer, K(7), 3));
  rig.sim.RunAll();
  auto reply = rig.tor.LastOfType(OpCode::kGetReply);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->nc.seq, 3u);
  ASSERT_TRUE(reply->nc.has_value);
  EXPECT_EQ(reply->nc.value, Value::Filler(70, 48));
}

TEST(WarmedStoreOpTest, EveryPooledPacketReturnsToThePool) {
  SlowServerRig rig;
  for (uint64_t id = 0; id < 8; ++id) {
    rig.server->store().Put(K(id), Value::Filler(id, 64));
  }
  // 24 ops at once: one in service, nine queued, the rest dropped. They are
  // sent from the stub's own event, so every packet is taken from and given
  // back to the pool of LP 1, which both nodes run in.
  rig.sim.ScheduleFor(&rig.tor, 0, [&rig] {
    for (uint32_t seq = 0; seq < 24; ++seq) {
      const Key key = K(seq % 10);
      switch (seq % 3) {
        case 0:
          Inject2(rig.tor, MakeGet(kClient, kServer, key, seq));
          break;
        case 1:
          Inject2(rig.tor, MakePut(kClient, kServer, key, Value::Filler(seq, 32), seq));
          break;
        default:
          Inject2(rig.tor, MakeDelete(kClient, kServer, key, seq));
          break;
      }
    }
  });
  rig.sim.RunAll();
  EXPECT_EQ(rig.server->stats().enqueued, 10u);
  EXPECT_EQ(rig.server->stats().dropped, 14u);
  EXPECT_EQ(rig.tor.received.size(), 10u);
  bool checked = false;
  rig.sim.ScheduleFor(&rig.tor, 0, [&rig, &checked] {
    PacketPool& pool = rig.sim.packet_pool();
    EXPECT_GT(pool.allocated(), 0u);
    EXPECT_EQ(pool.free_count(), pool.allocated());
    checked = true;
  });
  rig.sim.RunAll();
  EXPECT_TRUE(checked);
}

// ------------------------------------------------- burst delivery

// The simulator hands a server every delivery as a HandleBurst call, which
// the server leaves to Node's default. A multi-packet delivery must admit,
// queue and answer exactly like the same packets delivered one at a time.
struct BurstRig {
  BurstRig() {
    ServerConfig cfg;
    cfg.ip = kServer;
    cfg.switch_ip = kSwitch;
    cfg.service_rate_qps = 4e6;
    cfg.num_cores = 4;
    cfg.queue_capacity = 8;  // 3 per core: the burst overflows some cores
    cfg.update_retry_timeout = 50 * kMicrosecond;
    server = std::make_unique<StorageServer>(&sim, "server", cfg);
    link = std::make_unique<Link>(&sim, LinkConfig{});
    link->Connect(server.get(), 0, &tor, 0);
    server->SetUpdateRejectHandler(
        [this](const Key& key, const Value&) { rejected.push_back(key); });
    for (uint64_t id = 0; id < 16; ++id) {
      server->store().Put(K(id), Value::Filler(id, 16));
    }
    // Pending cache updates for the burst's ack (20), reject (21) and
    // blocked write (22).
    for (uint64_t id = 20; id < 23; ++id) {
      Packet put = MakePut(kClient, kServer, K(id), Value::Filler(id, 64), 0);
      put.nc.op = OpCode::kCachedPut;
      Inject2(tor, put);
    }
    sim.RunUntil(10 * kMicrosecond);
  }

  Simulator sim;
  TorStub tor;
  std::unique_ptr<StorageServer> server;
  std::unique_ptr<Link> link;
  std::vector<Key> rejected;
};

std::vector<Packet> MixedServerBurst() {
  std::vector<Packet> pkts;
  uint32_t seq = 100;
  for (uint64_t id : {1, 2, 3, 99, 5, 6, 1, 7}) {
    pkts.push_back(MakeGet(kClient, kServer, K(id), seq++));  // 99 misses
  }
  pkts.push_back(MakePut(kClient, kServer, K(8), Value::Filler(8, 32), seq++));
  pkts.push_back(MakeDelete(kClient, kServer, K(9), seq++));
  Packet cached_put = MakePut(kClient, kServer, K(10), Value::Filler(10, 48), seq++);
  cached_put.nc.op = OpCode::kCachedPut;
  pkts.push_back(cached_put);
  Packet cached_delete = MakeDelete(kClient, kServer, K(11), seq++);
  cached_delete.nc.op = OpCode::kCachedDelete;
  pkts.push_back(cached_delete);
  pkts.push_back(MakePut(kClient, kServer, K(22), Value::Filler(22, 16), seq++));  // deferred
  for (uint64_t id : {20, 21}) {
    Packet control = MakeGet(kSwitch, kServer, K(id), seq++);
    control.nc.op = id == 20 ? OpCode::kCacheUpdateAck : OpCode::kCacheUpdateReject;
    pkts.push_back(control);
  }
  Packet plain = MakeGet(kClient, kServer, K(12), seq++);
  plain.is_netcache = false;
  pkts.push_back(plain);
  for (uint64_t id = 12; id < 16; ++id) {
    pkts.push_back(MakeGet(kClient, kServer, K(id), seq++));
  }
  // Half the keys arrive with the digest a switch would have stamped.
  for (size_t i = 0; i < pkts.size(); i += 2) {
    pkts[i].digest = KeyDigest::Of(pkts[i].nc.key);
  }
  return pkts;
}

TEST(ServerBurstTest, BurstMatchesOnePacketDeliveries) {
  BurstRig burst;
  BurstRig single;
  std::vector<Packet> pkts = MixedServerBurst();
  std::vector<BurstArrival> arrivals;
  for (Packet& p : pkts) {
    arrivals.push_back(BurstArrival{&p, 0});
  }
  burst.server->HandleBurst(arrivals.data(), arrivals.size());
  for (BurstArrival& a : arrivals) {
    single.server->HandleBurst(&a, 1);
  }
  burst.sim.RunUntil(500 * kMicrosecond);
  single.sim.RunUntil(500 * kMicrosecond);

  const ServerStats& b = burst.server->stats();
  const ServerStats& s = single.server->stats();
  EXPECT_EQ(b.received, s.received);
  EXPECT_EQ(b.enqueued, s.enqueued);
  EXPECT_EQ(b.dropped, s.dropped);
  EXPECT_EQ(b.reads, s.reads);
  EXPECT_EQ(b.read_misses, s.read_misses);
  EXPECT_EQ(b.writes, s.writes);
  EXPECT_EQ(b.deferred_writes, s.deferred_writes);
  EXPECT_EQ(b.cache_updates_sent, s.cache_updates_sent);
  EXPECT_EQ(b.cache_update_acks, s.cache_update_acks);
  EXPECT_EQ(b.cache_update_rejects, s.cache_update_rejects);
  EXPECT_EQ(b.cache_update_retries, s.cache_update_retries);
  EXPECT_EQ(burst.rejected, single.rejected);

  const std::vector<Packet>& br = burst.tor.received;
  const std::vector<Packet>& sr = single.tor.received;
  ASSERT_EQ(br.size(), sr.size());
  for (size_t i = 0; i < br.size(); ++i) {
    EXPECT_EQ(br[i].nc.op, sr[i].nc.op) << "reply " << i;
    EXPECT_EQ(br[i].nc.seq, sr[i].nc.seq) << "reply " << i;
    EXPECT_EQ(br[i].nc.key, sr[i].nc.key) << "reply " << i;
    EXPECT_EQ(br[i].nc.has_value, sr[i].nc.has_value) << "reply " << i;
    EXPECT_EQ(br[i].nc.value, sr[i].nc.value) << "reply " << i;
    EXPECT_EQ(br[i].ip.src, sr[i].ip.src) << "reply " << i;
    EXPECT_EQ(br[i].ip.dst, sr[i].ip.dst) << "reply " << i;
  }

  // The burst exercised every branch it claims to.
  EXPECT_GT(b.dropped, 0u);
  EXPECT_GT(b.read_misses, 0u);
  EXPECT_EQ(b.deferred_writes, 1u);
  EXPECT_EQ(b.cache_update_acks, 1u);
  EXPECT_EQ(b.cache_update_rejects, 1u);
  EXPECT_EQ(burst.rejected, std::vector<Key>{K(21)});
}

}  // namespace
}  // namespace netcache
