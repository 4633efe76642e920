// Tests for VPP-style burst processing: the simulator's delivery dispatch
// (every delivery is a HandleBurst call; same-instant deliveries coalesce)
// and the switch's stage-at-a-time ProcessBurst pipeline.
//
// The contract under test is behavioural transparency — one N-packet burst
// must produce exactly the emits and counters that N one-packet bursts
// produce in arrival order. Bursts are a throughput optimisation, never a
// semantic one; a run of one packet takes the same pipeline and digests its
// key inline.

#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dataplane/netcache_switch.h"
#include "net/link.h"
#include "net/simulator.h"

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

// Collects burst emits by value, honouring the ownership protocol: every
// emit is an arrival stolen from its slot, owned by the sink and freed here.
class CollectSink : public NetCacheSwitch::EmitSink {
 public:
  void OnEmit(uint32_t port, Packet* pkt, bool /*from_burst*/) override {
    emits_.push_back({port, *pkt});
    delete pkt;
  }
  const std::vector<NetCacheSwitch::Emit>& emits() const { return emits_; }

 private:
  std::vector<NetCacheSwitch::Emit> emits_;
};

// Feeds `pkts` (arriving on `ports`) to `sw` as one burst, honouring the
// pooled-arrival ownership protocol: the sink frees stolen packets, the
// rest stay ours.
void RunBurst(NetCacheSwitch* sw, const std::vector<Packet>& pkts,
              const std::vector<uint32_t>& ports, NetCacheSwitch::EmitSink& sink) {
  std::vector<std::unique_ptr<Packet>> storage;
  std::vector<BurstArrival> arrivals;
  for (size_t i = 0; i < pkts.size(); ++i) {
    storage.push_back(std::make_unique<Packet>(pkts[i]));
    arrivals.push_back(BurstArrival{storage.back().get(), ports[i]});
  }
  sw->ProcessBurst({arrivals.data(), arrivals.size()}, sink);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i].pkt == nullptr) {
      storage[i].release();  // stolen: the sink already freed it
    }
  }
}

// The reference schedule: the same packets as N one-packet bursts.
void RunOneByOne(NetCacheSwitch* sw, const std::vector<Packet>& pkts,
                 const std::vector<uint32_t>& ports, NetCacheSwitch::EmitSink& sink) {
  for (size_t i = 0; i < pkts.size(); ++i) {
    RunBurst(sw, {pkts[i]}, {ports[i]}, sink);
  }
}

void ExpectSameEmits(const std::vector<NetCacheSwitch::Emit>& burst,
                     const std::vector<NetCacheSwitch::Emit>& single) {
  ASSERT_EQ(burst.size(), single.size());
  for (size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(burst[i].port, single[i].port) << "emit " << i;
    const Packet& a = burst[i].pkt;
    const Packet& b = single[i].pkt;
    EXPECT_EQ(a.nc.op, b.nc.op) << "emit " << i;
    EXPECT_EQ(a.nc.seq, b.nc.seq) << "emit " << i;
    EXPECT_EQ(a.nc.key, b.nc.key) << "emit " << i;
    EXPECT_EQ(a.nc.has_value, b.nc.has_value) << "emit " << i;
    EXPECT_EQ(a.nc.value, b.nc.value) << "emit " << i;
    EXPECT_EQ(a.ip.src, b.ip.src) << "emit " << i;
    EXPECT_EQ(a.ip.dst, b.ip.dst) << "emit " << i;
    EXPECT_EQ(a.ip.ttl, b.ip.ttl) << "emit " << i;
  }
}

void ExpectSameCounters(const SwitchCounters& a, const SwitchCounters& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.netcache_queries, b.netcache_queries);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_invalid, b.cache_invalid);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.cache_updates, b.cache_updates);
  EXPECT_EQ(a.hot_reports, b.hot_reports);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.unroutable, b.unroutable);
  EXPECT_EQ(a.ttl_drops, b.ttl_drops);
}

// Emits, counters and per-key cache counters (the hot-key statistics the
// controller reads) of two switches must agree.
void ExpectSameSwitch(const NetCacheSwitch& a, const CollectSink& a_sink, const NetCacheSwitch& b,
                      const CollectSink& b_sink) {
  ExpectSameEmits(a_sink.emits(), b_sink.emits());
  ExpectSameCounters(a.counters(), b.counters());
  auto a_counts = a.ReadCacheCounters();
  auto b_counts = b.ReadCacheCounters();
  ASSERT_EQ(a_counts.size(), b_counts.size());
  for (size_t i = 0; i < a_counts.size(); ++i) {
    EXPECT_EQ(a_counts[i].first, b_counts[i].first);
    EXPECT_EQ(a_counts[i].second, b_counts[i].second);
  }
}

// Installs a hot-report handler that only records the reported keys, as the
// contract requires: a handler must not change the cache inline.
void RecordHotReports(NetCacheSwitch* sw, std::vector<Key>* reported) {
  sw->SetHotReportHandler([reported](const Key& key, uint32_t) { reported->push_back(key); });
}

// Inserts every recorded key, as the controller does from a later event.
void InsertReported(NetCacheSwitch* sw, const std::vector<Key>& reported) {
  for (const Key& key : reported) {
    ASSERT_TRUE(sw->InsertCacheEntry(key, Value::Filler(77, 48), kServerA).ok());
  }
}

// Two identically configured switches: one processes `pkts` as a single
// burst, the other as one-packet bursts; both must agree on everything
// observable.
class BurstEquivalenceTest : public ::testing::Test {
 protected:
  BurstEquivalenceTest()
      : burst_sw_(nullptr, "tor-burst", SmallSwitch()),
        single_sw_(nullptr, "tor-single", SmallSwitch()) {
    for (NetCacheSwitch* sw : {&burst_sw_, &single_sw_}) {
      EXPECT_TRUE(sw->AddRoute(kServerA, 0).ok());
      EXPECT_TRUE(sw->AddRoute(kServerB, 1).ok());
      EXPECT_TRUE(sw->AddRoute(kClient, 4).ok());
    }
  }

  void RunBoth(const std::vector<Packet>& pkts, std::vector<uint32_t> ports = {}) {
    ports.resize(pkts.size(), 4);
    RunBurst(&burst_sw_, pkts, ports, burst_sink_);
    RunOneByOne(&single_sw_, pkts, ports, single_sink_);
  }

  void ExpectEquivalent() { ExpectSameSwitch(burst_sw_, burst_sink_, single_sw_, single_sink_); }

  NetCacheSwitch burst_sw_;
  NetCacheSwitch single_sw_;
  CollectSink burst_sink_;
  CollectSink single_sink_;
};

TEST_F(BurstEquivalenceTest, GetRunHitsAndMisses) {
  for (NetCacheSwitch* sw : {&burst_sw_, &single_sw_}) {
    ASSERT_TRUE(sw->InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());
    ASSERT_TRUE(sw->InsertCacheEntry(K(2), Value::Filler(2, 32), kServerB).ok());
  }
  std::vector<Packet> pkts;
  for (uint32_t i = 0; i < 32; ++i) {
    pkts.push_back(MakeGet(kClient, kServerA, K(i % 5), i));  // keys 1,2 hit
  }
  RunBoth(pkts);
  ExpectEquivalent();
  EXPECT_GT(burst_sw_.counters().cache_hits, 0u);
  EXPECT_GT(burst_sw_.counters().cache_misses, 0u);
}

TEST_F(BurstEquivalenceTest, WriteBarrierSplitsRun) {
  for (NetCacheSwitch* sw : {&burst_sw_, &single_sw_}) {
    ASSERT_TRUE(sw->InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());
  }
  // Gets around a Put to the cached key: the Put is a barrier and must
  // invalidate the entry for the Gets after it, exactly as per-packet.
  std::vector<Packet> pkts;
  for (uint32_t i = 0; i < 8; ++i) {
    pkts.push_back(MakeGet(kClient, kServerA, K(1), i));
  }
  pkts.push_back(MakePut(kClient, kServerA, K(1), Value::Filler(9, 64), 100));
  for (uint32_t i = 0; i < 8; ++i) {
    pkts.push_back(MakeGet(kClient, kServerA, K(1), 200 + i));
  }
  RunBoth(pkts);
  ExpectEquivalent();
  EXPECT_EQ(burst_sw_.counters().invalidations, 1u);
  EXPECT_EQ(burst_sw_.counters().cache_invalid, 8u);  // the post-Put Gets
}

TEST_F(BurstEquivalenceTest, HotReportedKeyHitsInLaterSegment) {
  // The handler only records the hot key. The test inserts it between two
  // segments, at the same point in both legs, as the controller would from
  // a later event: the first segment's Gets after the report still miss,
  // and the second segment hits.
  std::vector<Key> burst_reports;
  std::vector<Key> single_reports;
  RecordHotReports(&burst_sw_, &burst_reports);
  RecordHotReports(&single_sw_, &single_reports);
  std::vector<Packet> first;
  for (uint32_t i = 0; i < 32; ++i) {
    first.push_back(MakeGet(kClient, kServerA, K(77), i));
  }
  RunBoth(first);
  ASSERT_EQ(burst_reports, std::vector<Key>{K(77)});
  ASSERT_EQ(single_reports, burst_reports);
  EXPECT_EQ(burst_sw_.counters().cache_hits, 0u);
  InsertReported(&burst_sw_, burst_reports);
  InsertReported(&single_sw_, single_reports);

  std::vector<Packet> second;
  for (uint32_t i = 0; i < 32; ++i) {
    second.push_back(MakeGet(kClient, kServerA, K(77), 100 + i));
  }
  RunBoth(second);
  ExpectEquivalent();
  EXPECT_EQ(burst_sw_.counters().hot_reports, 1u);
  EXPECT_EQ(burst_sw_.counters().cache_hits, 32u);
  EXPECT_EQ(single_sw_.counters().cache_hits, 32u);
}

TEST_F(BurstEquivalenceTest, MixedPortsSegmentRuns) {
  for (NetCacheSwitch* sw : {&burst_sw_, &single_sw_}) {
    ASSERT_TRUE(sw->AddRoute(0x0b000002, 5).ok());
    ASSERT_TRUE(sw->InsertCacheEntry(K(3), Value::Filler(3, 16), kServerA).ok());
  }
  // Alternating in_ports within one burst.
  std::vector<Packet> pkts;
  std::vector<uint32_t> ports;
  for (uint32_t i = 0; i < 16; ++i) {
    IpAddress src = (i % 2 == 0) ? kClient : 0x0b000002;
    ports.push_back((i % 2 == 0) ? 4 : 5);
    pkts.push_back(MakeGet(src, kServerA, K(3 + i % 3), i));
  }
  RunBoth(pkts, ports);
  ExpectEquivalent();
}

TEST_F(BurstEquivalenceTest, ProcessPacketIsAOnePacketBurst) {
  for (NetCacheSwitch* sw : {&burst_sw_, &single_sw_}) {
    ASSERT_TRUE(sw->InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());
  }
  std::vector<Packet> pkts = {MakeGet(kClient, kServerA, K(1), 0),
                              MakeGet(kClient, kServerA, K(2), 1),
                              MakePut(kClient, kServerA, K(1), Value::Filler(9, 64), 2),
                              MakeGet(kClient, kServerA, K(1), 3)};
  RunOneByOne(&burst_sw_, pkts, std::vector<uint32_t>(pkts.size(), 4), burst_sink_);
  std::vector<NetCacheSwitch::Emit> adapter_emits;
  for (const Packet& p : pkts) {
    single_sw_.ProcessPacket(p, 4, adapter_emits);
  }
  ExpectSameEmits(burst_sink_.emits(), adapter_emits);
  ExpectSameCounters(burst_sw_.counters(), single_sw_.counters());
}

// Records each emit's packet pointer without taking ownership: the test's
// own storage outlives the burst.
class PointerSink : public NetCacheSwitch::EmitSink {
 public:
  void OnEmit(uint32_t port, Packet* pkt, bool /*from_burst*/) override {
    ports_.push_back(port);
    pkts_.push_back(pkt);
  }

  std::vector<uint32_t> ports_;
  std::vector<Packet*> pkts_;
};

TEST(BurstInPlaceTest, EveryForwardedArrivalIsEmittedAsItself) {
  // A mixed burst: Gets around every barrier kind. Each forwarded packet —
  // barrier or Get — must leave as its own arrival packet, rewritten in
  // place and stolen from its slot; only a dropped one stays in the slot.
  NetCacheSwitch sw(nullptr, "tor", SmallSwitch());
  ASSERT_TRUE(sw.AddRoute(kServerA, 0).ok());
  ASSERT_TRUE(sw.AddRoute(kServerB, 1).ok());
  ASSERT_TRUE(sw.AddRoute(kClient, 4).ok());
  ASSERT_TRUE(sw.InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());

  Packet update;
  update.ip.src = kServerA;
  update.ip.dst = sw.config().switch_ip;
  update.l4.dst_port = kNetCachePort;
  update.nc.op = OpCode::kCacheUpdate;
  update.nc.key = K(1);
  update.nc.has_value = true;
  update.nc.value = Value::Filler(2, 64);
  Packet reply = MakeReplyShell(MakeGet(kClient, kServerB, K(2), 7));
  reply.nc.op = OpCode::kGetReply;
  Packet plain;
  plain.is_netcache = false;
  plain.ip.src = kClient;
  plain.ip.dst = kServerB;
  constexpr size_t kDropped = 7;
  std::vector<Packet> pkts = {
      MakeGet(kClient, kServerA, K(1), 0),
      MakePut(kClient, kServerA, K(1), Value::Filler(2, 64), 1),
      MakeGet(kClient, kServerA, K(1), 2),
      update,
      MakeGet(kClient, kServerA, K(1), 3),
      reply,
      plain,
      MakePut(kClient, 0x0adead01, K(4), Value::Filler(4, 16), 4),  // unroutable
      MakeGet(kClient, kServerB, K(5), 5),
  };
  std::vector<BurstArrival> arrivals;
  for (size_t i = 0; i < pkts.size(); ++i) {
    arrivals.push_back(BurstArrival{&pkts[i], i == 3 ? 0u : 4u});
  }
  PointerSink sink;
  sw.ProcessBurst({arrivals.data(), arrivals.size()}, sink);

  ASSERT_EQ(sink.pkts_.size(), pkts.size() - 1);
  size_t emit = 0;
  for (size_t i = 0; i < pkts.size(); ++i) {
    if (i == kDropped) {
      EXPECT_EQ(arrivals[i].pkt, &pkts[i]);
      continue;
    }
    EXPECT_EQ(arrivals[i].pkt, nullptr) << "arrival " << i;
    EXPECT_EQ(sink.pkts_[emit++], &pkts[i]) << "arrival " << i;
  }
  EXPECT_EQ(pkts[1].nc.op, OpCode::kCachedPut);
  EXPECT_EQ(pkts[3].nc.op, OpCode::kCacheUpdateAck);
  EXPECT_EQ(pkts[4].nc.op, OpCode::kGetReply);  // served the updated value
  EXPECT_EQ(pkts[4].nc.value, Value::Filler(2, 64));
  EXPECT_EQ(sink.ports_[3], 0u);  // the ack goes back to the server
  EXPECT_EQ(sw.counters().unroutable, 1u);
}

// ------------------------------------------------- sampled bursts
//
// With SetSampleRate(1.0) every query is sampled: each hit bumps its
// per-key counter and each miss feeds the sketch in the in-order pass, on
// runs that also take the batched digest, the table probes and the value
// gather. Two identically configured switches process the same packets,
// one as N-packet bursts and one as N one-packet bursts; both must agree
// on every emit, counter, and per-key cache count.
class SampledBurstEquivalenceTest : public ::testing::Test {
 protected:
  SampledBurstEquivalenceTest()
      : burst_sw_(nullptr, "tor-burst", SmallSwitch()),
        single_sw_(nullptr, "tor-single", SmallSwitch()) {
    for (NetCacheSwitch* sw : switches()) {
      EXPECT_TRUE(sw->AddRoute(kServerA, 0).ok());
      EXPECT_TRUE(sw->AddRoute(kServerB, 1).ok());
      EXPECT_TRUE(sw->AddRoute(kClient, 4).ok());
      sw->SetSampleRate(1.0);  // every query feeds the statistics
    }
  }

  std::vector<NetCacheSwitch*> switches() { return {&burst_sw_, &single_sw_}; }

  void RunAllLegs(const std::vector<Packet>& pkts) {
    std::vector<uint32_t> ports(pkts.size(), 4);
    RunBurst(&burst_sw_, pkts, ports, burst_sink_);
    RunOneByOne(&single_sw_, pkts, ports, single_sink_);
  }

  void ExpectEquivalent() { ExpectSameSwitch(burst_sw_, burst_sink_, single_sw_, single_sink_); }

  NetCacheSwitch burst_sw_;
  NetCacheSwitch single_sw_;
  CollectSink burst_sink_;
  CollectSink single_sink_;
};

TEST_F(SampledBurstEquivalenceTest, MixedHitMissBurstsMatchOnePacketBursts) {
  for (NetCacheSwitch* sw : switches()) {
    ASSERT_TRUE(sw->InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());
    ASSERT_TRUE(sw->InsertCacheEntry(K(2), Value::Filler(2, 32), kServerB).ok());
  }
  // Several bursts so sketch/bloom state carries across burst boundaries;
  // keys 1 and 2 hit, the rest miss and feed the sketch.
  for (uint32_t burst = 0; burst < 4; ++burst) {
    std::vector<Packet> pkts;
    for (uint32_t i = 0; i < 48; ++i) {
      pkts.push_back(MakeGet(kClient, kServerA, K(i % 7), burst * 48 + i));
    }
    RunAllLegs(pkts);
  }
  ExpectEquivalent();
  EXPECT_GT(burst_sw_.counters().cache_hits, 0u);
  EXPECT_GT(burst_sw_.counters().cache_misses, 0u);
}

TEST_F(SampledBurstEquivalenceTest, HotReportAndBarriersMatchOnePacketBursts) {
  std::vector<Key> burst_reports;
  std::vector<Key> single_reports;
  RecordHotReports(&burst_sw_, &burst_reports);
  RecordHotReports(&single_sw_, &single_reports);
  // One key crosses the hot threshold mid-burst; the handler only records
  // it, so the Gets after the report still miss.
  std::vector<Packet> first;
  for (uint32_t i = 0; i < 24; ++i) {
    first.push_back(MakeGet(kClient, kServerA, K(9), i));
  }
  RunAllLegs(first);
  ASSERT_EQ(burst_reports, std::vector<Key>{K(9)});
  ASSERT_EQ(single_reports, burst_reports);
  InsertReported(&burst_sw_, burst_reports);
  InsertReported(&single_sw_, single_reports);

  // The inserted key hits; a Put barrier then invalidates it, and the tail
  // re-misses through the statistics path without a second report.
  std::vector<Packet> second;
  for (uint32_t i = 0; i < 8; ++i) {
    second.push_back(MakeGet(kClient, kServerA, K(9), 100 + i));
  }
  second.push_back(MakePut(kClient, kServerA, K(9), Value::Filler(5, 64), 150));
  for (uint32_t i = 0; i < 16; ++i) {
    second.push_back(MakeGet(kClient, kServerA, K(9), 200 + i));
  }
  RunAllLegs(second);
  ExpectEquivalent();
  for (NetCacheSwitch* sw : switches()) {
    EXPECT_EQ(sw->counters().hot_reports, 1u);
    EXPECT_EQ(sw->counters().cache_hits, 8u);
    EXPECT_EQ(sw->counters().invalidations, 1u);
    EXPECT_EQ(sw->counters().cache_invalid, 16u);
  }
}

TEST_F(SampledBurstEquivalenceTest, ReportEarlyInRunThenHitsMatchOnePacketBursts) {
  // A Get crosses the hot threshold early in a run and cached hits follow in
  // the same run: the run's one value gather must serve the hits after the
  // report exactly as one-packet bursts do.
  constexpr IpAddress kServerC = 0x0a000003;
  std::vector<Key> burst_reports;
  std::vector<Key> single_reports;
  RecordHotReports(&burst_sw_, &burst_reports);
  RecordHotReports(&single_sw_, &single_reports);
  for (NetCacheSwitch* sw : switches()) {
    ASSERT_TRUE(sw->AddRoute(kServerC, 5).ok());  // pipe 1
    ASSERT_TRUE(sw->InsertCacheEntry(K(1), Value::Filler(1, 64), kServerA).ok());
    ASSERT_TRUE(sw->InsertCacheEntry(K(2), Value::Filler(2, 128), kServerB).ok());
    ASSERT_TRUE(sw->InsertCacheEntry(K(3), Value::Filler(3, 40), kServerC).ok());
  }
  std::vector<Packet> pkts;
  uint32_t seq = 0;
  pkts.push_back(MakeGet(kClient, kServerA, K(1), seq++));
  for (int i = 0; i < 8; ++i) {  // the 8th crosses threshold 8
    pkts.push_back(MakeGet(kClient, kServerA, K(50), seq++));
  }
  for (uint64_t i = 0; i < 24; ++i) {
    pkts.push_back(MakeGet(kClient, kServerA, K(1 + i % 3), seq++));
  }
  pkts.push_back(MakeGet(kClient, kServerA, K(50), seq++));
  RunAllLegs(pkts);
  ExpectEquivalent();
  ASSERT_EQ(burst_reports, std::vector<Key>{K(50)});
  ASSERT_EQ(single_reports, burst_reports);
  EXPECT_EQ(burst_sw_.counters().hot_reports, 1u);
  EXPECT_EQ(burst_sw_.counters().cache_hits, 25u);
  // The first hit after the report carries its whole value.
  ASSERT_EQ(burst_sink_.emits().size(), pkts.size());
  EXPECT_EQ(burst_sink_.emits()[9].pkt.nc.value, Value::Filler(1, 64));
  for (size_t pipe = 0; pipe < 2; ++pipe) {
    EXPECT_EQ(burst_sw_.pipe_value_reads(pipe), single_sw_.pipe_value_reads(pipe));
    for (size_t stage = 0; stage < 8; ++stage) {
      EXPECT_EQ(burst_sw_.TestOnlyPipeValues(pipe).stage_reads(stage),
                single_sw_.TestOnlyPipeValues(pipe).stage_reads(stage))
          << "pipe " << pipe << " stage " << stage;
    }
  }
}

// Drives K(77) across the hot threshold in one burst on a switch whose
// handler calls `mutate`.
void ReportWith(const std::function<void(NetCacheSwitch&)>& mutate) {
  NetCacheSwitch sw(nullptr, "tor", SmallSwitch());
  ASSERT_TRUE(sw.AddRoute(kServerA, 0).ok());
  ASSERT_TRUE(sw.AddRoute(kClient, 4).ok());
  ASSERT_TRUE(sw.InsertCacheEntry(K(1), Value::Filler(1, 16), kServerA).ok());
  sw.SetHotReportHandler([&sw, &mutate](const Key&, uint32_t) { mutate(sw); });
  std::vector<Packet> pkts;
  for (uint32_t i = 0; i < 8; ++i) {
    pkts.push_back(MakeGet(kClient, kServerA, K(77), i));
  }
  CollectSink sink;
  RunBurst(&sw, pkts, std::vector<uint32_t>(pkts.size(), 4), sink);
}

TEST(HotReportContractDeathTest, HandlerThatChangesTheCacheInlineDies) {
  // Every cache-table mutator refuses to run inside the handler: a run's
  // staged matches must stay final for the whole run.
  const std::function<void(NetCacheSwitch&)> mutators[] = {
      [](NetCacheSwitch& sw) { sw.InsertCacheEntry(K(77), Value::Filler(7, 16), kServerA); },
      [](NetCacheSwitch& sw) { sw.EvictCacheEntry(K(1)); },
      [](NetCacheSwitch& sw) { sw.Defragment(0, 1); },
      [](NetCacheSwitch& sw) { sw.ClearCache(); },
  };
  for (const auto& mutate : mutators) {
    EXPECT_DEATH(ReportWith(mutate), "hot-report handler must not change the cache inline");
  }
  // A handler that only records the key is fine.
  ReportWith([](NetCacheSwitch&) {});
}

// ------------------------------------------------- simulator dispatch

// Records every arrival and the size of each HandleBurst call. HandlePacket
// is only reachable through the default HandleBurst, which this overrides.
class RecordingNode : public Node {
 public:
  explicit RecordingNode(Simulator* sim) : Node("recorder"), sim_(sim) {}

  void HandlePacket(const Packet&, uint32_t) override { ++single_calls_; }
  void HandleBurst(BurstArrival* arrivals, size_t count) override {
    burst_sizes_.push_back(count);
    for (size_t i = 0; i < count; ++i) {
      seqs_.push_back(arrivals[i].pkt->nc.seq);
      ports_.push_back(arrivals[i].port);
      times_.push_back(sim_->Now());
    }
  }

  Simulator* sim_;
  std::vector<uint32_t> seqs_;
  std::vector<uint32_t> ports_;
  std::vector<SimTime> times_;
  std::vector<size_t> burst_sizes_;
  size_t single_calls_ = 0;
};

Simulator::DeliveryRec Rec(Simulator& sim, Node* node, uint32_t port, uint32_t seq) {
  Packet* p = sim.packet_pool().Acquire(MakeGet(kClient, kServerA, K(seq), seq));
  return Simulator::DeliveryRec{node, port, p, nullptr, 0, 64};
}

TEST(SimulatorBurstTest, CoalescesSameInstantDeliveries) {
  Simulator sim;
  RecordingNode node(&sim);
  sim.ScheduleDeliveryAt(100, Rec(sim, &node, 1, 0));
  sim.ScheduleDeliveryAt(100, Rec(sim, &node, 2, 1));
  sim.ScheduleDeliveryAt(100, Rec(sim, &node, 1, 2));
  sim.RunAll();
  EXPECT_EQ(node.burst_sizes_, (std::vector<size_t>{3}));
  EXPECT_EQ(node.seqs_, (std::vector<uint32_t>{0, 1, 2}));  // arrival order
  EXPECT_EQ(node.ports_, (std::vector<uint32_t>{1, 2, 1}));
  EXPECT_EQ(sim.bursts_dispatched(), 1u);
  EXPECT_EQ(sim.burst_packets(), 3u);
  EXPECT_EQ(sim.events_processed(), 3u);  // each delivery still counts
}

TEST(SimulatorBurstTest, LoneDeliveriesAreOnePacketBursts) {
  Simulator sim;
  RecordingNode a(&sim);
  RecordingNode b(&sim);
  sim.ScheduleDeliveryAt(100, Rec(sim, &a, 0, 0));
  sim.ScheduleDeliveryAt(100, Rec(sim, &b, 0, 1));  // different node
  sim.ScheduleDeliveryAt(101, Rec(sim, &a, 0, 2));  // different time
  sim.RunAll();
  EXPECT_EQ(a.burst_sizes_, (std::vector<size_t>{1, 1}));
  EXPECT_EQ(b.burst_sizes_, (std::vector<size_t>{1}));
  EXPECT_EQ(a.single_calls_ + b.single_calls_, 0u);
  // The burst counters book multi-packet deliveries only.
  EXPECT_EQ(sim.bursts_dispatched(), 0u);
  EXPECT_EQ(sim.burst_packets(), 0u);
}

TEST(SimulatorBurstTest, PlainEventBreaksBatch) {
  // A closure event scheduled between two same-instant deliveries must act
  // as a barrier: its side effects may observe the first delivery's state.
  // The closure waits in the heap (ScheduleAt) or in a lane, whose front the
  // coalescing test must see as well.
  for (bool in_lane : {false, true}) {
    SCOPED_TRACE(in_lane ? "lane" : "heap");
    Simulator sim;
    RecordingNode node(&sim);
    int fired_after = -1;
    auto barrier = [&] { fired_after = static_cast<int>(node.seqs_.size()); };
    Simulator::Lane* lane = sim.OpenLane(&node, 100);
    sim.ScheduleDeliveryAt(100, Rec(sim, &node, 0, 0));
    if (in_lane) {
      sim.ScheduleInLane(lane, barrier);  // Now() is 0: lands at t=100
    } else {
      sim.ScheduleAt(100, barrier);
    }
    sim.ScheduleDeliveryAt(100, Rec(sim, &node, 0, 1));
    sim.RunAll();
    EXPECT_EQ(node.burst_sizes_, (std::vector<size_t>{1, 1}));
    EXPECT_EQ(fired_after, 1);  // ran between the two deliveries
    EXPECT_EQ(sim.bursts_dispatched(), 0u);
  }
}

// ------------------------------------------------- link egress coalescing
//
// Same-instant transmissions on one link direction form a transmit group
// delivered as one burst record at the LAST member's serialization end plus
// propagation (the far NIC raises one interrupt for the back-to-back train).

class NullTx : public Node {
 public:
  NullTx() : Node("tx") {}
  void HandlePacket(const Packet&, uint32_t) override {}
};

struct EgressLeg {
  std::vector<uint32_t> seqs;
  std::vector<SimTime> times;
  std::vector<size_t> burst_sizes;
  uint64_t delivered = 0;
  uint64_t events = 0;
  uint64_t bursts_dispatched = 0;
};

// Transmits `packets` back-to-back at t=10. A nonzero `fence` schedules a
// global event at that instant, which turns it into a serial instant.
EgressLeg RunEgressLeg(uint32_t packets, SimTime fence = 0) {
  Simulator sim;
  NullTx tx;
  RecordingNode rx(&sim);
  Link link(&sim, LinkConfig{});
  link.Connect(&tx, 0, &rx, 0);
  if (fence != 0) {
    sim.ScheduleGlobalAt(fence, [] {});
  }
  sim.ScheduleAtFor(&tx, 10, [&] {
    for (uint32_t i = 0; i < packets; ++i) {
      link.Transmit(0, MakeGet(kClient, kServerA, K(i), i));
    }
  });
  sim.RunAll();
  return EgressLeg{rx.seqs_,
                   rx.times_,
                   rx.burst_sizes_,
                   link.stats(0).delivered,
                   sim.events_processed(),
                   sim.bursts_dispatched()};
}

TEST(EgressCoalescingTest, SameInstantTrainDeliversAsOneBurst) {
  EgressLeg leg = RunEgressLeg(5);
  EXPECT_EQ(leg.burst_sizes, (std::vector<size_t>{5}));
  EXPECT_EQ(leg.seqs, (std::vector<uint32_t>{0, 1, 2, 3, 4}));  // transmit order
  ASSERT_EQ(leg.times.size(), 5u);
  for (SimTime t : leg.times) {
    EXPECT_EQ(t, leg.times.front());  // one shared delivery instant
  }
  EXPECT_EQ(leg.delivered, 5u);
  EXPECT_EQ(leg.bursts_dispatched, 1u);
}

TEST(EgressCoalescingTest, SerialInstantDeliveryIsNotCountedAsBurst) {
  EgressLeg plain = RunEgressLeg(3);
  ASSERT_EQ(plain.times.size(), 3u);
  EgressLeg fenced = RunEgressLeg(3, plain.times.front());
  // The group still arrives whole at the same instant, but serial instants
  // do not coalesce, so the burst counters leave it out.
  EXPECT_EQ(fenced.burst_sizes, (std::vector<size_t>{3}));
  EXPECT_EQ(fenced.seqs, plain.seqs);
  EXPECT_EQ(fenced.times, plain.times);
  EXPECT_EQ(fenced.delivered, 3u);
  EXPECT_EQ(fenced.bursts_dispatched, 0u);
  // A burst record weighs its member count (the fence adds one event).
  EXPECT_EQ(fenced.events, plain.events + 1);
}

// One packet from a global event at t=10 (a serial instant) and one from
// tx's own event at t=1000 (LP 1's window), on the same link direction: each
// instant's group closes at its end, so the two deliver separately, at their
// own serialization ends. `threads` 0 leaves the simulator unpartitioned; 1
// configures the same single LP explicitly.
std::vector<SimTime> RunSerialInstantTransmit(size_t threads) {
  Simulator sim;
  NullTx tx;
  RecordingNode rx(&sim);
  Link link(&sim, LinkConfig{});
  link.Connect(&tx, 0, &rx, 0);
  if (threads > 0) {
    sim.ConfigurePartitions(1, threads);
  }
  sim.ScheduleGlobalAt(10, [&] { link.Transmit(0, MakeGet(kClient, kServerA, K(0), 0)); });
  sim.ScheduleAtFor(&tx, 1000, [&] { link.Transmit(0, MakeGet(kClient, kServerA, K(1), 1)); });
  sim.RunAll();
  EXPECT_EQ(rx.burst_sizes_, (std::vector<size_t>{1, 1}));
  EXPECT_EQ(rx.seqs_, (std::vector<uint32_t>{0, 1}));
  return rx.times_;
}

TEST(EgressCoalescingTest, SerialInstantTransmitClosesItsGroup) {
  std::vector<SimTime> inline_lp = RunSerialInstantTransmit(0);
  ASSERT_EQ(inline_lp.size(), 2u);
  EXPECT_EQ(inline_lp[1] - inline_lp[0], 990u);
  EXPECT_EQ(RunSerialInstantTransmit(1), inline_lp);
}

TEST(EgressCoalescingTest, DistinctInstantsFormDistinctGroups) {
  Simulator sim;
  NullTx tx;
  RecordingNode rx(&sim);
  Link link(&sim, LinkConfig{});
  link.Connect(&tx, 0, &rx, 0);
  // Two transmissions accepted at different instants: the second queues
  // behind the first but opens its own group, so they deliver separately at
  // their own serialization ends.
  sim.ScheduleAt(10, [&] { link.Transmit(0, MakeGet(kClient, kServerA, K(0), 0)); });
  sim.ScheduleAt(11, [&] { link.Transmit(0, MakeGet(kClient, kServerA, K(1), 1)); });
  sim.RunAll();
  EXPECT_EQ(rx.burst_sizes_, (std::vector<size_t>{1, 1}));
  EXPECT_EQ(rx.seqs_, (std::vector<uint32_t>{0, 1}));
  ASSERT_EQ(rx.times_.size(), 2u);
  EXPECT_LT(rx.times_[0], rx.times_[1]);
}

}  // namespace
}  // namespace netcache
