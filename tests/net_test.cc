// Tests for the discrete-event simulator, links and nodes.

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/lp_ownership.h"
#include "common/rng.h"
#include "net/link.h"
#include "net/node.h"
#include "net/simulator.h"
#include "proto/packet.h"

namespace netcache {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(10, [&] { order.push_back(2); });
  sim.Schedule(10, [&] { order.push_back(3); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, HandlerCanScheduleMore) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) {
      sim.Schedule(10, chain);
    }
  };
  sim.Schedule(10, chain);
  sim.RunAll();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.Now(), 50u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50u);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(100);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilBeforeNowRunsNothing) {
  Simulator sim;
  int fired = 0;
  sim.RunUntil(100);
  sim.ScheduleAt(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Now(), 100u);
  sim.RunUntil(100);
  EXPECT_EQ(fired, 1);
}

class SinkNode : public Node {
 public:
  explicit SinkNode(std::string name) : Node(std::move(name)) {}
  void HandlePacket(const Packet& pkt, uint32_t in_port) override {
    received.push_back({pkt, in_port});
  }
  std::vector<std::pair<Packet, uint32_t>> received;
};

// A node that logs every arrival with its instant and port.
class ArrivalLogNode : public Node {
 public:
  ArrivalLogNode(std::string name, Simulator* sim) : Node(std::move(name)), sim_(sim) {}
  void HandlePacket(const Packet& /*pkt*/, uint32_t in_port) override {
    log.emplace_back(sim_->Now(), in_port);
  }
  std::vector<std::pair<SimTime, uint32_t>> log;

 private:
  Simulator* sim_;
};

// What a seeded event mix leaves observable: the firing order, the pending
// count at each checkpoint, the queue peak and the final clock.
struct MixRun {
  std::vector<int> order;
  std::vector<size_t> pending;
  uint64_t peak = 0;
  SimTime now = 0;
};

// A seeded tree of events: every event records its id and may spawn children
// into one of two lanes (delays 70 and 250), a plain Schedule at a lane's
// delay (a same-instant tie with that lane), a ScheduleAt(Now()) tie, or a
// random delay. With `use_lanes` false the lane children go through
// ScheduleFor with the lane's delay instead, which is the heap-only twin.
// Unpartitioned, both lanes' nodes run in LP 1; `partitioned` puts them in
// LPs 1 and 2 (one worker, so the shared log and RNG stay single-threaded)
// behind a 70 ns link, which every cross-LP child's delay covers. The
// top-level roots stay in the global stream either way, so serial instants
// and rounds interleave.
MixRun RunLaneMix(bool use_lanes, uint64_t seed, bool partitioned) {
  constexpr SimDuration kDelayX = 70;
  constexpr SimDuration kDelayY = 250;
  Simulator sim;
  SinkNode x("x");
  SinkNode y("y");
  LinkConfig cfg;
  cfg.propagation = kDelayX;
  Link link(&sim, cfg);
  link.Connect(&x, 0, &y, 0);
  Simulator::Lane* lane_x = sim.OpenLane(&x, kDelayX);
  Simulator::Lane* lane_y = sim.OpenLane(&y, kDelayY);
  if (partitioned) {
    x.set_lp(1);
    y.set_lp(2);
    sim.ConfigurePartitions(2, 1);
  }
  Rng rng(seed);
  MixRun run;
  int next_id = 0;
  std::function<void(int)> spawn = [&](int depth) {
    int id = next_id++;
    Simulator::EventFn fn = [&, id, depth] {
      run.order.push_back(id);
      if (depth < 6) {
        for (uint64_t n = rng.NextBounded(3); n > 0; --n) {
          spawn(depth + 1);
        }
      }
    };
    switch (rng.NextBounded(5)) {
      case 0:
        use_lanes ? sim.ScheduleInLane(lane_x, std::move(fn))
                  : sim.ScheduleFor(&x, kDelayX, std::move(fn));
        break;
      case 1:
        use_lanes ? sim.ScheduleInLane(lane_y, std::move(fn))
                  : sim.ScheduleFor(&y, kDelayY, std::move(fn));
        break;
      case 2:
        sim.Schedule(kDelayX, std::move(fn));
        break;
      case 3:
        sim.ScheduleAt(sim.Now(), std::move(fn));
        break;
      default:
        sim.Schedule(rng.NextBounded(300), std::move(fn));
        break;
    }
  };
  for (int root = 0; root < 40; ++root) {
    spawn(0);
  }
  for (SimTime checkpoint : {0, 70, 100, 250, 400, 700, 1000}) {
    sim.RunUntil(checkpoint);
    run.pending.push_back(sim.PendingEvents());
  }
  sim.RunAll();
  run.pending.push_back(sim.PendingEvents());
  run.peak = sim.event_queue_peak();
  run.now = sim.Now();
  return run;
}

TEST(SimulatorTest, LaneEventsFireInScheduleForOrder) {
  // Lanes only change where events wait, never when they fire: a seeded mix
  // of lane, heap and same-instant events must run in exactly the order of
  // its all-ScheduleFor twin, with the same pending counts and queue peak,
  // with one LP and with two.
  for (bool partitioned : {false, true}) {
    for (uint64_t seed : {1, 2, 3, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << (partitioned ? "two LPs" : "one LP") << " seed " << seed);
      MixRun lanes = RunLaneMix(true, seed, partitioned);
      MixRun twin = RunLaneMix(false, seed, partitioned);
      ASSERT_GT(twin.order.size(), 100u);
      EXPECT_EQ(lanes.order, twin.order);
      EXPECT_EQ(lanes.pending, twin.pending);
      EXPECT_EQ(lanes.peak, twin.peak);
      EXPECT_EQ(lanes.now, twin.now);
    }
  }
}

// One fired event of a seeded random schedule: its instant and its global
// schedule index, which is its key order within an instant.
struct Firing {
  SimTime time;
  uint64_t index;
  bool operator==(const Firing&) const = default;
};

// A seeded random schedule: every event records itself and may spawn up to
// two more, at random delays from 0 (a same-instant tie) to 39 ns. Even
// events capture 24 bytes and live inline; odd ones carry 64 more bytes and
// are boxed.
struct RandomSchedule {
  explicit RandomSchedule(uint64_t seed) : rng(seed) {}

  void Spawn() {
    const SimTime at = sim.Now() + rng.NextBounded(40);
    const uint64_t index = scheduled.size();
    scheduled.push_back(Firing{at, index});
    if (index % 2 == 0) {
      sim.ScheduleAt(at, [this, at, index] { Fire(at, index); });
      return;
    }
    std::array<uint64_t, 8> ballast{};
    ballast[0] = index;
    sim.ScheduleAt(at, [this, at, ballast] { Fire(at, ballast[0]); });
  }

  void Fire(SimTime at, uint64_t index) {
    fired.push_back(Firing{at, index});
    EXPECT_EQ(sim.Now(), at);
    for (uint64_t n = rng.NextBounded(3); n > 0 && scheduled.size() < 4000; --n) {
      Spawn();
    }
  }

  Simulator sim;
  Rng rng;
  std::vector<Firing> scheduled;
  std::vector<Firing> fired;
};

TEST(SimulatorTest, RandomScheduleFiresInTimeKeyOrder) {
  // Random pushes interleaved with pops at checkpoints, so slots are freed
  // and reused throughout. The firing order must be the sorted (time,
  // schedule index) order of everything scheduled.
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    RandomSchedule mix(seed);
    for (SimTime checkpoint = 0; checkpoint < 2000; checkpoint += 50) {
      for (int i = 0; i < 8; ++i) {
        mix.Spawn();
      }
      mix.sim.RunUntil(checkpoint);
    }
    mix.sim.RunAll();
    std::vector<Firing> want = mix.scheduled;
    std::sort(want.begin(), want.end(), [](const Firing& a, const Firing& b) {
      return a.time != b.time ? a.time < b.time : a.index < b.index;
    });
    ASSERT_GT(mix.fired.size(), 1000u);
    EXPECT_EQ(mix.fired, want);
    EXPECT_EQ(mix.sim.PendingEvents(), 0u);
  }
}

TEST(SimulatorTest, DestroyedWithPendingEventsFreesThem) {
  // Closures still pending when the simulator goes away are destroyed with
  // it, a boxed (oversized) capture included; the ASan leg reports a leak
  // otherwise. Some slots ran and were reused before the end.
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    SinkNode node("n");
    Simulator::Lane* lane = sim.OpenLane(&node, 500);
    for (int i = 0; i < 20; ++i) {
      sim.Schedule(static_cast<SimDuration>(i) * 10, [token] {});
      std::array<uint64_t, 8> ballast{};
      sim.Schedule(static_cast<SimDuration>(i) * 10 + 5, [token, ballast] { (void)ballast; });
      sim.ScheduleInLane(lane, [token] {});
    }
    sim.RunUntil(95);
    EXPECT_GT(sim.PendingEvents(), 0u);
    EXPECT_GT(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(LinkTest, DeliversWithSerializationAndPropagation) {
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;  // 1 ns per byte
  cfg.propagation = 500;
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);

  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  size_t bytes = pkt.WireSize();
  a.Send(0, pkt);
  sim.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  // Arrival = serialization (1 ns/B) + propagation.
  EXPECT_EQ(sim.Now(), bytes + 500);
  EXPECT_EQ(link.stats(0).delivered, 1u);
}

TEST(LinkTest, BackToBackPacketsQueueBehindTransmitter) {
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;
  cfg.propagation = 0;
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  size_t bytes = pkt.WireSize();
  a.Send(0, pkt);
  a.Send(0, pkt);  // same instant: serializes after the first
  sim.RunAll();
  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(sim.Now(), 2 * bytes);  // back-to-back serialization times
}

TEST(LinkTest, DropTailWhenQueueFull) {
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  LinkConfig cfg;
  cfg.bandwidth_gbps = 0.008;  // very slow: 1 us per byte
  cfg.queue_bytes = 150;       // fits ~2 GET packets
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  for (int i = 0; i < 10; ++i) {
    a.Send(0, pkt);
  }
  sim.RunAll();
  EXPECT_GT(link.stats(0).dropped, 0u);
  EXPECT_EQ(link.stats(0).delivered + link.stats(0).dropped, 10u);
  EXPECT_EQ(b.received.size(), link.stats(0).delivered);
}

TEST(LinkTest, TransmitAtTxDoneSeesQueueFreed) {
  // The queue holds one packet. A packet's bytes are freed at its
  // serialization end: a transmit one ns earlier is dropped, one at exactly
  // that instant is accepted, even though both events were scheduled before
  // the first packet was sent.
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;  // 1 ns per byte
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  const SimTime tx_done = pkt.WireSize();
  cfg.queue_bytes = pkt.WireSize();
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);
  sim.ScheduleAt(tx_done - 1, [&] { a.Send(0, pkt); });
  sim.ScheduleAt(tx_done, [&] { a.Send(0, pkt); });
  a.Send(0, pkt);
  sim.RunAll();
  EXPECT_EQ(link.stats(0).dropped, 1u);
  EXPECT_EQ(link.stats(0).delivered, 2u);
  EXPECT_EQ(b.received.size(), 2u);
}

TEST(LinkTest, FullDuplexDirectionsIndependent) {
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  Link link(&sim, LinkConfig{});
  link.Connect(&a, 0, &b, 0);
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  a.Send(0, pkt);
  b.Send(0, pkt);
  sim.RunAll();
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(link.stats(0).delivered, 1u);
  EXPECT_EQ(link.stats(1).delivered, 1u);
}

TEST(NodeTest, SendOnUnwiredPortIsSafeNoop) {
  SinkNode a("a");
  Packet pkt;
  a.Send(5, pkt);  // no crash, just a warning
  EXPECT_EQ(a.received.size(), 0u);
}

// A bare Simulator with two unlabelled senders linked to one receiver: every
// node runs in LP 1. Both senders transmit at t=100 from their own events,
// so their deliveries reach `r` at one instant from two links; a top-level
// event at t=50 records the executing LP too.
TEST(SimulatorTest, UnpartitionedNodesRunInLpOneWindows) {
  Simulator sim;
  SinkNode a("a");
  SinkNode c("c");
  ArrivalLogNode r("r", &sim);
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;
  cfg.propagation = 400;
  Link ar(&sim, cfg);
  ar.Connect(&a, 0, &r, 0);
  Link cr(&sim, cfg);
  cr.Connect(&c, 0, &r, 1);
  EXPECT_EQ(sim.num_lps(), 1u);
  EXPECT_FALSE(sim.partitioned());
  EXPECT_EQ(a.lp(), 1u);
  std::vector<uint32_t> executing;
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  for (SinkNode* s : {&a, &c}) {
    sim.ScheduleAtFor(s, 100, [s, pkt, &executing] {
      executing.push_back(lp::CurrentLp());
      s->Send(0, pkt);
    });
  }
  sim.ScheduleAt(50, [&executing] { executing.push_back(lp::CurrentLp()); });
  sim.RunAll();

  // The top-level event ran in a serial instant (the coordinator, LP 0), the
  // senders' events in LP 1's windows.
  EXPECT_EQ(executing, (std::vector<uint32_t>{0, 1, 1}));
  EXPECT_EQ(sim.lp_events(0), 1u);
  EXPECT_EQ(sim.lp_events(1), 4u);  // two sends, two deliveries
  EXPECT_GT(sim.windows_run(), 0u);
  // The two same-instant deliveries to r coalesced into one burst.
  const SimTime arrival = 100 + pkt.WireSize() + 400;
  EXPECT_EQ(r.log, (std::vector<std::pair<SimTime, uint32_t>>{{arrival, 0}, {arrival, 1}}));
  EXPECT_EQ(sim.bursts_dispatched(), 1u);
  EXPECT_EQ(sim.burst_packets(), 2u);
}

TEST(ParallelSimDeathTest, ZeroPropagationCrossLpLinkIsFatal) {
  // A cross-partition link with zero propagation gives a zero lookahead: no
  // window could make progress, so ConfigurePartitions dies naming the link.
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  a.set_lp(1);
  b.set_lp(2);
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;
  cfg.propagation = 0;  // zero lookahead across LPs 1 and 2
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);
  EXPECT_DEATH(sim.ConfigurePartitions(2, 2), "link a -- b joins LPs 1 and 2 with zero propagation");
}

TEST(ParallelSimDeathTest, ConfigurePartitionsWithPendingEventsIsFatal) {
  // Partitioning is wiring-time: an event already queued would belong to
  // the one-LP layout being replaced.
  Simulator sim;
  SinkNode a("a");
  int fired = 0;
  sim.ScheduleFor(&a, 100, [&fired] { ++fired; });
  EXPECT_DEATH(sim.ConfigurePartitions(2, 1), "ConfigurePartitions with events pending");
  EXPECT_EQ(fired, 0);
}

TEST(ParallelSimTest, TwoLpRunMatchesOneLpSchedule) {
  // The same two-node ping stream executed in one LP and under a 2-LP
  // partitioned schedule must deliver the same packets at the same times.
  auto run = [](size_t sim_threads) {
    Simulator sim;
    SinkNode a("a");
    SinkNode b("b");
    LinkConfig cfg;
    cfg.bandwidth_gbps = 8.0;
    cfg.propagation = 400;
    Link link(&sim, cfg);
    link.Connect(&a, 0, &b, 0);
    if (sim_threads > 0) {
      a.set_lp(1);
      b.set_lp(2);
      sim.ConfigurePartitions(2, sim_threads);
    }
    Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
    for (int i = 0; i < 8; ++i) {
      sim.ScheduleAtFor(&a, static_cast<SimTime>(i) * 150, [&a, pkt] {
        Packet p = pkt;
        a.Send(0, p);
      });
    }
    sim.RunAll();
    return std::pair<SimTime, size_t>(sim.Now(), b.received.size());
  };
  auto one_lp = run(0);
  auto par1 = run(1);
  auto par4 = run(4);
  EXPECT_EQ(par1, par4);
  EXPECT_EQ(one_lp.second, par1.second);
  EXPECT_EQ(one_lp.first, par1.first);
}

TEST(ParallelSimTest, IdleLpSkipsRoundsAndBusyLpsMergeWindows) {
  // Adaptive rounds: an LP with no pending work and no inbound mail must not
  // be forced into rounds at all (no stall spins), and a busy LP whose
  // neighbors are quiet gets a horizon wider than the legacy global
  // min(T0) + lookahead window.
  //
  // Topology: a (LP1) -- 400ns --> b (LP2) -- 400ns --> c (LP3). All traffic
  // is a -> b; c idles for the whole run.
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  SinkNode c("c");
  a.set_lp(1);
  b.set_lp(2);
  c.set_lp(3);
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;
  cfg.propagation = 400;
  Link ab(&sim, cfg);
  ab.Connect(&a, 0, &b, 0);
  Link bc(&sim, cfg);
  bc.Connect(&b, 1, &c, 0);
  sim.ConfigurePartitions(3, 2);

  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  constexpr int kPackets = 50;
  for (int i = 0; i < kPackets; ++i) {
    // Spaced far wider than the 400ns lookahead: legacy fixed windows would
    // burn ~12 empty windows between sends; adaptive rounds must not.
    sim.ScheduleAtFor(&a, static_cast<SimTime>(i) * 5000, [&a, pkt] {
      Packet p = pkt;
      a.Send(0, p);
    });
  }
  sim.RunAll();

  EXPECT_EQ(b.received.size(), static_cast<size_t>(kPackets));
  EXPECT_TRUE(c.received.empty());
  // The idle LP never participated: a skipped round costs nothing, a forced
  // one would have counted a stall.
  EXPECT_EQ(sim.lp_window_stalls(3), 0u);
  // a's horizon is bounded by its own send->reply cycle (800ns) and by b's
  // clock, not by the 400ns link lookahead: windows merged.
  EXPECT_GT(sim.lp_windows_merged(1), 0u);
  // Adaptive rounds stay event-bound, not lookahead-bound: the run spans
  // 250us, which would be >600 fixed 400ns windows even if fully idle ones
  // were free.
  EXPECT_LT(sim.windows_run(), 4u * kPackets);
}

// One lane event as its LP saw it.
struct LaneFiring {
  int id;
  SimTime time;
  uint32_t lp;
  bool operator==(const LaneFiring& o) const {
    return id == o.id && time == o.time && lp == o.lp;
  }
};

// Lanes on a (LP 1, delay 200) and b (LP 2, delay 500, above the 400 ns
// link distance), opened before ConfigurePartitions. Each node's own events
// fill its lane. Three appends join b's lane for t=600 out of stream order:
// two from b's own events at t=100, then one from a's LP inside the same
// round, then one from the top level after RunUntil(100).
std::vector<std::vector<LaneFiring>> RunPartitionedLanes(size_t sim_threads) {
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  a.set_lp(1);
  b.set_lp(2);
  LinkConfig cfg;
  cfg.propagation = 400;
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);
  Simulator::Lane* lane_a = sim.OpenLane(&a, 200);
  Simulator::Lane* lane_b = sim.OpenLane(&b, 500);

  // One log per LP: at sim_threads 2 the LPs run on different threads.
  std::vector<std::vector<LaneFiring>> fired(3);
  auto arm = [&](Simulator::Lane* lane, uint32_t lp, int id) {
    sim.ScheduleInLane(lane, [&sim, &fired, lp, id] {
      fired[lp].push_back(LaneFiring{id, sim.Now(), lp::CurrentLp()});
    });
  };
  sim.ConfigurePartitions(2, sim_threads);
  for (int i = 0; i < 4; ++i) {
    SimTime at = static_cast<SimTime>(i) * 50;
    sim.ScheduleAtFor(&a, at, [&arm, lane_a, i] { arm(lane_a, 1, i); });
    sim.ScheduleAtFor(&b, at, [&arm, lane_b, i] { arm(lane_b, 2, 10 + i); });
  }
  sim.ScheduleAtFor(&b, 100, [&arm, lane_b] { arm(lane_b, 2, 20); });
  sim.ScheduleAtFor(&a, 100, [&arm, lane_b] { arm(lane_b, 2, 40); });
  sim.RunUntil(100);
  arm(lane_b, 2, 30);
  sim.RunAll();
  EXPECT_EQ(sim.PendingEvents(), 0u);
  return fired;
}

TEST(ParallelSimTest, LaneRunsInItsNodesLpInKeyOrder) {
  std::vector<std::vector<LaneFiring>> one = RunPartitionedLanes(1);
  std::vector<std::vector<LaneFiring>> two = RunPartitionedLanes(2);
  EXPECT_EQ(one, two);
  // Lane events run inside their node's LP rounds, not in the global stream.
  EXPECT_EQ(one[1], (std::vector<LaneFiring>{
                        {0, 200, 1}, {1, 250, 1}, {2, 300, 1}, {3, 350, 1}}));
  // At t=600 the stream-0 top-level append fires first, then a's stream-1
  // one, then b's own two: (time, key) order, not append order.
  EXPECT_EQ(one[2], (std::vector<LaneFiring>{{10, 500, 2},
                                             {11, 550, 2},
                                             {30, 600, 2},
                                             {40, 600, 2},
                                             {12, 600, 2},
                                             {20, 600, 2},
                                             {13, 650, 2}}));
}

// What a round schedule leaves observable, for comparing worker counts.
struct ScheduleRun {
  uint64_t events = 0;
  uint64_t windows = 0;
  std::vector<uint64_t> stalls;  // per LP, index 0 = the global stream
  std::vector<uint64_t> merged;
  std::vector<std::pair<SimTime, uint32_t>> arrivals;
  std::vector<SimTime> far_fired;
};

// Three senders s1..s3 (LPs 1-3) each send a packet to r (LP 4) every
// 150 ns, so r's inbox holds mail from all three after the same round. s1
// also schedules an event 20 us ahead on q (LP 5, behind a 1 us link), so q
// takes part in the next round only because of mail whose time lies beyond
// its horizon: a stall.
ScheduleRun RunFanIn(size_t sim_threads) {
  Simulator sim;
  SinkNode s1("s1");
  SinkNode s2("s2");
  SinkNode s3("s3");
  ArrivalLogNode r("r", &sim);
  SinkNode q("q");
  std::vector<SinkNode*> senders = {&s1, &s2, &s3};
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;
  cfg.propagation = 400;
  std::vector<std::unique_ptr<Link>> links;
  for (size_t i = 0; i < senders.size(); ++i) {
    senders[i]->set_lp(static_cast<uint32_t>(1 + i));
    links.push_back(std::make_unique<Link>(&sim, cfg));
    links.back()->Connect(senders[i], 0, &r, static_cast<uint32_t>(i));
  }
  r.set_lp(4);
  q.set_lp(5);
  LinkConfig far = cfg;
  far.propagation = 1000;
  Link sq(&sim, far);
  sq.Connect(&s1, 1, &q, 0);
  sim.ConfigurePartitions(5, sim_threads);

  ScheduleRun run;
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  for (int k = 0; k < 40; ++k) {
    SimTime at = static_cast<SimTime>(k) * 150;
    for (SinkNode* s : senders) {
      sim.ScheduleAtFor(s, at, [s, pkt] {
        Packet p = pkt;
        s->Send(0, p);
      });
    }
    sim.ScheduleAtFor(&s1, at, [&sim, &q, &run] {
      sim.ScheduleFor(&q, 20000, [&sim, &run] { run.far_fired.push_back(sim.Now()); });
    });
  }
  sim.RunAll();
  run.events = sim.events_processed();
  run.windows = sim.windows_run();
  for (size_t lp = 0; lp <= sim.num_lps(); ++lp) {
    run.stalls.push_back(sim.lp_window_stalls(lp));
    run.merged.push_back(sim.lp_windows_merged(lp));
  }
  run.arrivals = r.log;
  return run;
}

TEST(ParallelSimTest, FanInMailAndStallsMatchAtEveryWorkerCount) {
  ScheduleRun one = RunFanIn(1);
  ASSERT_EQ(one.arrivals.size(), 120u);
  EXPECT_EQ(one.far_fired.size(), 40u);
  for (size_t k = 0; k < one.far_fired.size(); ++k) {
    EXPECT_EQ(one.far_fired[k], k * 150 + 20000);
  }
  // Same-instant arrivals from the three senders run in stream order.
  EXPECT_EQ(one.arrivals[0].second, 0u);
  EXPECT_EQ(one.arrivals[1].second, 1u);
  EXPECT_EQ(one.arrivals[2].second, 2u);
  EXPECT_EQ(one.arrivals[0].first, one.arrivals[2].first);
  EXPECT_GT(one.stalls[5], 0u);  // q took part only because of mail
  EXPECT_EQ(one.stalls[0], 0u);
  EXPECT_EQ(one.merged[0], 0u);
  for (size_t threads : {2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " workers");
    ScheduleRun run = RunFanIn(threads);
    EXPECT_EQ(run.events, one.events);
    EXPECT_EQ(run.windows, one.windows);
    EXPECT_EQ(run.stalls, one.stalls);
    EXPECT_EQ(run.merged, one.merged);
    EXPECT_EQ(run.arrivals, one.arrivals);
    EXPECT_EQ(run.far_fired, one.far_fired);
  }
}

// LP 1 (a) ticks every 100 ns up to 10 us; LP 2 (b) has one event at 50 us,
// which is its published next time. Two schedules then move b's next event
// earlier than that: a global event at 1 us (run in a serial instant)
// schedules b for 1.5 us, and top-level code between two RunUntil calls
// schedules b for 3.5 us. Each of b's early events sends a packet to a, so
// a boundary that kept b's stale next time would let a run past the
// packet's arrival, and the drain's causality check would abort.
struct CachedNextRun {
  std::vector<SimTime> b_fired;
  std::vector<std::pair<SimTime, uint32_t>> a_log;  // ticks (port 99) and arrivals
};

CachedNextRun RunEarlierThanPublished(size_t sim_threads) {
  Simulator sim;
  ArrivalLogNode a("a", &sim);
  SinkNode b("b");
  a.set_lp(1);
  b.set_lp(2);
  LinkConfig cfg;
  cfg.bandwidth_gbps = 8.0;
  cfg.propagation = 400;
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);
  sim.ConfigurePartitions(2, sim_threads);

  CachedNextRun run;
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  auto b_event = [&sim, &b, &run, pkt] {
    run.b_fired.push_back(sim.Now());
    Packet p = pkt;
    b.Send(0, p);
  };
  for (int k = 0; k <= 100; ++k) {
    sim.ScheduleAtFor(&a, static_cast<SimTime>(k) * 100,
                      [&sim, &a] { a.log.emplace_back(sim.Now(), 99); });
  }
  sim.ScheduleAtFor(&b, 50000, b_event);
  sim.ScheduleGlobalAt(1000, [&sim, &b, b_event] { sim.ScheduleAtFor(&b, 1500, b_event); });
  sim.RunUntil(3000);
  sim.ScheduleAtFor(&b, 3500, b_event);
  sim.RunAll();
  run.a_log = a.log;
  return run;
}

TEST(ParallelSimTest, EarlierEventThanPublishedNextStillFiresOnTime) {
  CachedNextRun one = RunEarlierThanPublished(1);
  EXPECT_EQ(one.b_fired, (std::vector<SimTime>{1500, 3500, 50000}));
  const SimTime hop = MakeGet(1, 2, Key::FromUint64(1), 1).WireSize() + 400;
  std::vector<SimTime> arrivals;
  for (size_t i = 0; i < one.a_log.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(one.a_log[i - 1].first, one.a_log[i].first);
    }
    if (one.a_log[i].second == 0) {
      arrivals.push_back(one.a_log[i].first);
    }
  }
  EXPECT_EQ(arrivals, (std::vector<SimTime>{1500 + hop, 3500 + hop, 50000 + hop}));
  for (size_t threads : {2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " workers");
    CachedNextRun run = RunEarlierThanPublished(threads);
    EXPECT_EQ(run.b_fired, one.b_fired);
    EXPECT_EQ(run.a_log, one.a_log);
  }
}

// tx and rx share LP 1 behind a 100 ns link; far (LP 2) sits 50 us away,
// so LP 1's horizon lies far beyond the packet's arrival. tx sends one
// packet at 10 ns, its window's last event: the group closes at the window's
// end, and its delivery lands below the horizon in tx's own LP, so the same
// window must still run it, at its instant. `sim_threads` 0 leaves all three
// nodes in one LP.
std::vector<std::pair<SimTime, uint32_t>> RunSameLpGroup(size_t sim_threads) {
  Simulator sim;
  SinkNode tx("tx");
  ArrivalLogNode rx("rx", &sim);
  SinkNode far("far");
  LinkConfig near_cfg;
  near_cfg.bandwidth_gbps = 8.0;
  near_cfg.propagation = 100;
  Link near(&sim, near_cfg);
  near.Connect(&tx, 0, &rx, 0);
  LinkConfig far_cfg = near_cfg;
  far_cfg.propagation = 50000;
  Link to_far(&sim, far_cfg);
  to_far.Connect(&rx, 1, &far, 0);
  if (sim_threads > 0) {
    tx.set_lp(1);
    rx.set_lp(1);
    far.set_lp(2);
    sim.ConfigurePartitions(2, sim_threads);
  }
  Packet pkt = MakeGet(1, 2, Key::FromUint64(1), 1);
  sim.ScheduleAtFor(&tx, 10, [&tx, pkt] { tx.Send(0, pkt); });
  sim.ScheduleAtFor(&far, 10, [] {});
  sim.RunAll();
  return rx.log;
}

TEST(ParallelSimTest, SameLpGroupDeliversInsideTheWindow) {
  const SimTime arrival = 10 + MakeGet(1, 2, Key::FromUint64(1), 1).WireSize() + 100;
  const std::vector<std::pair<SimTime, uint32_t>> want = {{arrival, 0}};
  EXPECT_EQ(RunSameLpGroup(0), want);
  EXPECT_EQ(RunSameLpGroup(1), want);
  EXPECT_EQ(RunSameLpGroup(4), want);
}

TEST(ParallelSimTest, TopLevelSendDeliversOnTime) {
  // A transmit made by top-level code between runs opens its group in the
  // global context; the next run must still ship it, at the same instant
  // with one LP and with two.
  auto run = [](size_t sim_threads) {
    Simulator sim;
    SinkNode a("a");
    ArrivalLogNode b("b", &sim);
    LinkConfig cfg;
    cfg.bandwidth_gbps = 8.0;
    cfg.propagation = 400;
    Link link(&sim, cfg);
    link.Connect(&a, 0, &b, 0);
    if (sim_threads > 0) {
      a.set_lp(1);
      b.set_lp(2);
      sim.ConfigurePartitions(2, sim_threads);
    }
    sim.RunUntil(100);
    a.Send(0, MakeGet(1, 2, Key::FromUint64(1), 1));
    sim.RunAll();
    return b.log;
  };
  const SimTime arrival = 100 + MakeGet(1, 2, Key::FromUint64(1), 1).WireSize() + 400;
  const std::vector<std::pair<SimTime, uint32_t>> want = {{arrival, 0}};
  EXPECT_EQ(run(0), want);
  EXPECT_EQ(run(1), want);
  EXPECT_EQ(run(2), want);
}

TEST(ParallelSimDeathTest, PerLpCountersRejectUnknownLp) {
  Simulator sim;
  SinkNode a("a");
  SinkNode b("b");
  a.set_lp(1);
  b.set_lp(2);
  LinkConfig cfg;
  cfg.propagation = 400;
  Link link(&sim, cfg);
  link.Connect(&a, 0, &b, 0);
  EXPECT_EQ(sim.lp_window_stalls(1), 0u);  // unpartitioned: LP 1 only
  EXPECT_DEATH(sim.lp_window_stalls(2), "no logical process 2");
  sim.ConfigurePartitions(2, 1);
  EXPECT_EQ(sim.lp_windows_merged(2), 0u);
  EXPECT_DEATH(sim.lp_window_stalls(3), "no logical process 3");
  EXPECT_DEATH(sim.lp_windows_merged(3), "no logical process 3");
  EXPECT_DEATH(sim.lp_events(7), "no logical process 7");
}

}  // namespace
}  // namespace netcache
