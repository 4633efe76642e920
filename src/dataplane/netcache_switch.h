// The NetCache switch: a programmable ToR switch model that executes the
// paper's packet-processing pipeline (Alg 1, Fig 8).
//
// Data plane (per packet):
//   parse -> [NetCache?] -> ingress cache lookup -> routing ->
//   egress: cache status -> query statistics -> value stages -> mirror/emit
//
// Every delivery reaches the data plane as a burst (HandleBurst, one packet
// or many), and ProcessGetRun is the one code path that serves a Get: runs
// of Gets execute stage-at-a-time, any other packet is an in-order barrier.
// Every packet — Get, write, cache update, reply or plain L3 — is rewritten
// in its own arrival packet, as the hardware pipeline modifies the PHV, and
// leaves through one route/TTL/snake step (ForwardBurstPacket). ProcessPacket
// is an adapter that runs a one-packet burst.
//
// Control plane (the "switch driver" API used by the controller and tests):
//   route management, cache entry insert/evict, counter reads, statistics
//   reset, sample-rate / hot-threshold tuning, defragmentation.
//
// Layout follows §4.4.4: one logical cache-lookup table at ingress
// (replicated per ingress pipe in hardware — we account for that in the
// resource report); per-egress-pipe value stages, so a cached item lives in
// the pipe that connects to its storage server. Cache-status (valid bit) and
// exact-size registers are indexed by the key index the lookup table yields.

#ifndef NETCACHE_DATAPLANE_NETCACHE_SWITCH_H_
#define NETCACHE_DATAPLANE_NETCACHE_SWITCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/lp_ownership.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/time_units.h"
#include "dataplane/match_table.h"
#include "dataplane/register_array.h"
#include "dataplane/slot_allocator.h"
#include "dataplane/stats.h"
#include "dataplane/value_store.h"
#include "kvstore/flat_table.h"
#include "net/node.h"
#include "net/simulator.h"
#include "proto/packet.h"

namespace netcache {

struct SwitchConfig {
  // Switch's own address, used by server agents for data-plane cache updates.
  IpAddress switch_ip = 0xffff0001;
  size_t num_pipes = 1;          // egress pipes with value stages
  size_t ports_per_pipe = 64;    // ports per pipe
  size_t num_stages = 8;         // value stages per pipe (prototype: 8)
  size_t indexes_per_pipe = 64 * 1024;  // rows per stage register array
  size_t cache_capacity = 64 * 1024;    // cache lookup table entries
  StatsConfig stats;
  // One-way pipeline traversal cost charged by the DES per emitted packet.
  SimDuration pipeline_latency = 800;  // ns
  // Optional per-egress-pipe processing bound (packets/second); 0 disables.
  // §4.4.4: "in cases of extreme skew ... the cache throughput is bounded by
  // that of an egress pipe, which is 1 BQPS for a Tofino ASIC". Emits whose
  // pipe is saturated queue up to `pipe_queue_packets`, then drop.
  double pipe_rate_qps = 0.0;
  size_t pipe_queue_packets = 256;
  // EXPERIMENTAL (§5 "Write-intensive workloads"): serve Put queries on
  // cached keys directly in the switch. The new value is written into the
  // value registers, the entry is marked dirty, and the client is answered
  // without touching the storage server; the controller flushes dirty
  // entries back periodically and before eviction. This removes the
  // skewed-write bottleneck but, exactly as §5 warns, un-flushed writes are
  // LOST on switch failure — see FailoverTest.WriteBackLosesDirtyDataOnReboot.
  bool write_back = false;
};

// Action data produced by the cache lookup table (Fig 6(b) + Fig 8): the
// stage bitmap and shared row index for the value, the key index for the
// counter / status / size registers, and the egress pipe that owns the value.
struct CacheAction {
  uint32_t bitmap = 0;
  uint32_t value_index = 0;
  uint32_t key_index = 0;
  uint8_t pipe = 0;
};

struct SwitchCounters {
  uint64_t packets = 0;
  uint64_t netcache_queries = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t cache_hits = 0;        // valid hits served by the switch
  uint64_t cache_invalid = 0;     // lookup hit but value invalidated
  uint64_t cache_misses = 0;      // lookup miss
  uint64_t invalidations = 0;     // writes that invalidated a cached key
  uint64_t cache_updates = 0;     // data-plane value updates applied
  uint64_t update_rejects = 0;    // updates too large for allocated slots
  uint64_t write_back_hits = 0;   // writes absorbed by the switch (write-back mode)
  uint64_t hot_reports = 0;
  uint64_t forwarded = 0;
  uint64_t unroutable = 0;
  uint64_t ttl_drops = 0;
  uint64_t pipe_overload_drops = 0;  // shed by the per-pipe rate bound
};

struct ResourceReport {
  size_t lookup_entries = 0;
  size_t lookup_capacity = 0;
  size_t lookup_bits = 0;   // incl. per-ingress-pipe replication
  size_t value_bits = 0;
  size_t status_bits = 0;
  size_t size_reg_bits = 0;
  size_t counter_bits = 0;
  size_t sketch_bits = 0;
  size_t bloom_bits = 0;
  size_t total_bits = 0;

  double FractionOf(size_t budget_bits) const {
    return static_cast<double>(total_bits) / static_cast<double>(budget_bits);
  }
};

class NetCacheSwitch : public Node {
 public:
  // `sim` may be null when the switch is driven directly through
  // ProcessPacket/ProcessBurst (unit tests, microbenchmarks); it is required
  // for HandlePacket/HandleBurst/Send in a simulation.
  NetCacheSwitch(Simulator* sim, std::string name, const SwitchConfig& config);

  // ---- data plane ----

  void HandlePacket(const Packet& pkt, uint32_t in_port) override;
  void HandleBurst(BurstArrival* arrivals, size_t count) override;

  struct Emit {
    uint32_t port = 0;
    Packet pkt;
  };
  // Runs the full pipeline on one packet (a one-packet ProcessBurst over a
  // copy) and returns the packets to emit: the rewritten copy, or none on an
  // unroutable or TTL drop.
  std::vector<Emit> ProcessPacket(const Packet& pkt, uint32_t in_port);
  // Appends emits to `out` (which the caller may reuse across packets)
  // instead of returning a fresh vector.
  void ProcessPacket(const Packet& pkt, uint32_t in_port, std::vector<Emit>& out);

  // Receives the pipeline's output packets during burst processing. `pkt` is
  // always the arrival rewritten in place, stolen from its slot: the sink
  // takes ownership (and must eventually Release a pooled packet).
  // `from_burst` is always true; it stays until the benchmark driver's sink
  // (perfbench/netcache_bench.cc) stops overriding this signature.
  class EmitSink {
   public:
    virtual ~EmitSink() = default;
    virtual void OnEmit(uint32_t port, Packet* pkt, bool from_burst) = 0;
  };

  // VPP-style stage-at-a-time processing of a delivery burst: runs of Get
  // queries execute as digest-all -> match-all -> gather-all values, then
  // one in-order pass, with software prefetch between stages; any other
  // packet is a barrier that is rewritten in place (write, cache update) or
  // passed through at its in-order turn. All observable side effects
  // (counters, RNG draws, traces, hot reports, emits) are issued at each
  // packet's sequential position, so one N-packet burst is identical to N
  // one-packet bursts in arrival order.
  void ProcessBurst(std::span<BurstArrival> arrivals, EmitSink& sink);

  // ---- control plane (switch driver) ----

  // Receives each hot-key report (Alg 1 line 9) at its packet's in-order
  // turn in the burst. Contract: the handler must not change the cache
  // inline. It queues the key, and the controller inserts it from a later
  // event through the switch driver, at the control-plane update rate (§4.3,
  // §4.4.3). InsertCacheEntry, EvictCacheEntry, Defragment and ClearCache
  // die on an NC_CHECK when called inside the handler. The contract keeps a
  // Get run's staged matches final for the whole run.
  using HotReportHandler = std::function<void(const Key& key, uint32_t estimate)>;
  void SetHotReportHandler(HotReportHandler handler) { hot_report_ = std::move(handler); }

  // L3 routing: dst IP -> egress port.
  Status AddRoute(IpAddress ip, uint32_t port);
  std::optional<uint32_t> RouteOf(IpAddress ip) const;

  // Inserts `key` into the cache with `value`, placing it in the egress pipe
  // of `server_ip`'s port. Fails with kResourceExhausted when the lookup
  // table is full or the pipe's value memory has no fitting row (the caller
  // may Defragment and retry).
  Status InsertCacheEntry(const Key& key, const Value& value, IpAddress server_ip);

  Status EvictCacheEntry(const Key& key);

  // Runs the Alg-2 reorganization in `pipe` until a value of `needed_units`
  // slots fits. Returns the number of items moved.
  size_t Defragment(size_t pipe, size_t needed_units);

  // Counter of a cached key this epoch (0 if not cached).
  uint32_t ReadCounterFor(const Key& key) const;
  // Snapshot of (key, counter) for every cached item.
  std::vector<std::pair<Key, uint32_t>> ReadCacheCounters() const;

  void ResetStatistics() { stats_.ResetEpoch(); }
  void SetHotThreshold(uint32_t threshold) { stats_.SetHotThreshold(threshold); }
  void SetSampleRate(double rate) { stats_.SetSampleRate(rate); }

  bool IsCached(const Key& key) const { return lookup_.Match(key) != nullptr; }
  bool IsValid(const Key& key) const;
  size_t CacheSize() const { return lookup_.size(); }
  size_t CacheCapacity() const { return config_.cache_capacity; }

  // Reads a cached (valid or not) value; for tests and the controller.
  Result<Value> ReadCachedValue(const Key& key) const;

  // Every key currently in the cache lookup table (any validity state).
  std::vector<Key> CachedKeys() const;
  // The lookup table's action data for a key, for diagnostics and the
  // invariant checkers' structured dumps.
  std::optional<CacheAction> LookupAction(const Key& key) const;

  // Query-statistics module access: const for the sketch-soundness checker,
  // mutable for shadow-tracking enablement and corruption self-tests.
  const QueryStatistics& query_stats() const { return stats_; }
  QueryStatistics& query_stats() { return stats_; }

  // Per-pipe slot-allocator view for diagnostics and checker dumps.
  const SlotAllocator& pipe_allocator(size_t pipe) const { return pipes_[pipe].allocator; }
  // Test-only mutable internals for the seeded-corruption self-test
  // (tests/invariant_test.cc): corrupt a value register or the allocator's
  // free bitmap and prove the matching checker fires.
  SlotAllocator& TestOnlyPipeAllocator(size_t pipe) { return pipes_[pipe].allocator; }
  ValueStore& TestOnlyPipeValues(size_t pipe) { return pipes_[pipe].values; }

  const SwitchConfig& config() const { return config_; }
  const SwitchCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = SwitchCounters{}; }

  // Registers every SwitchCounters field, cache occupancy gauges, and the
  // query-statistics module under `prefix` ("switch.cache_hits", ...). The
  // switch must outlive any registry snapshot.
  void RegisterMetrics(MetricsRegistry& registry, const std::string& prefix = "switch",
                       MetricsRegistry::Labels labels = {}) const;
  uint64_t pipe_value_reads(size_t pipe) const { return pipe_value_reads_[pipe]; }

  ResourceReport Resources() const;

  // Cross-checks internal state consistency: lookup entries vs key-index
  // accounting, per-pipe slot allocations vs lookup action data, and bit
  // arrays only set for live entries. Used by the randomized soak tests;
  // cheap enough to run after any control-plane batch.
  Status CheckInvariants() const;

  // Simulates a switch reboot / failover to a backup ToR (§3): the cache and
  // all statistics are wiped, routing is kept (re-installed by the network's
  // usual control plane in practice). The switch holds no critical state, so
  // this is always safe; the controller refills the cache from heavy-hitter
  // reports.
  void ClearCache();

  // Write-back support: drains every dirty entry as (key, value) pairs and
  // clears their dirty bits. The controller forwards them to the owning
  // servers. Empty unless config().write_back.
  std::vector<std::pair<Key, Value>> DrainDirty();
  // Dirty state of one key (false if not cached).
  bool IsDirty(const Key& key) const;

  // Snake-test support (§7.1): every packet arriving on `in_port` leaves on
  // `out_port` regardless of routing, after full NetCache processing. When
  // `strip_value` is set (intermediate snake hops), a served read reply is
  // rewound into a fresh Get — "we remove the value field at the last egress
  // stage for all intermediate ports", so the next pass processes it as a
  // new query. The Fig 9 microbenchmark uses this to amplify offered load by
  // the number of snake hops. Fails with kInvalidArgument when either port
  // is beyond the switch radix.
  Status SetSnakeForward(uint32_t in_port, uint32_t out_port, bool strip_value);

 private:
  struct PipeState {
    ValueStore values;
    SlotAllocator allocator;
    PipeState(size_t num_stages, size_t num_indexes)
        : values(num_stages, num_indexes), allocator(num_stages, num_indexes) {}
  };

  size_t PipeOfPort(uint32_t port) const { return port / config_.ports_per_pipe; }

  // Snapshot of one Get's stage-2 state in a burst: the matched action and
  // validity. No hot-report handler may change the cache table (see
  // SetHotReportHandler), so the snapshot stays final for the whole run.
  struct StagedGet {
    CacheAction action;
    bool found = false;
    bool valid = false;
  };

  // Parser predicate (§4.1): only packets on the reserved L4 port run the
  // NetCache modules.
  static bool IsNetCacheQuery(const Packet& p) {
    return p.is_netcache &&
           (p.l4.dst_port == kNetCachePort || p.l4.src_port == kNetCachePort);
  }
  // Run predicate for the staged burst pipeline: a NetCache Get query.
  static bool IsNetCacheGet(const Packet& p) {
    return IsNetCacheQuery(p) && p.nc.op == OpCode::kGet;
  }

  // Once-per-run batch stages (stage 1's digest gather for runs of two or
  // more, stage 3's value gather), outlined noinline so the per-packet loops
  // in ProcessGetRun stay small enough for the front end — inlining them
  // once doubled the function and cost the per-packet loops ~10%.
  void BatchDigestRun(std::span<BurstArrival> run);
  // Assembles the value of every valid hit in the run straight into its
  // packet via one GatherValueSlots pass over the run's register slots.
  void BatchValueServeRun(std::span<BurstArrival> run);

  // Dies when called from inside the hot-report handler: every cache-table
  // mutator checks it (see SetHotReportHandler).
  void CheckNotInHotReport() const;

  // Schedules one pooled output packet through the per-pipe rate bound and
  // the pipeline-latency delay (the emit half of HandleBurst). Takes
  // ownership of `out_pkt` (releases it on an overload drop).
  void ScheduleEmit(uint32_t port, Packet* out_pkt);

  // Burst stages for a run of Get queries (see ProcessBurst).
  void ProcessGetRun(std::span<BurstArrival> run, EmitSink& sink);
  // Routes a burst packet in place (route/ttl/snake), steals it from the
  // arrival slot, and hands it to the sink. No-op emit on unroutable/ttl
  // drop (the dispatcher releases the packet still in the slot).
  void ForwardBurstPacket(BurstArrival& arrival, EmitSink& sink);

  // Barrier path: every packet that is not a NetCache Get (writes, cache
  // updates, replies, plain L3) runs through here at its in-order turn and
  // leaves through ForwardBurstPacket.
  void ProcessBarrier(BurstArrival& arrival, EmitSink& sink);
  // Alg 1 lines 11-13 and the §4.3 data-plane cache update. Both digest the
  // key if no earlier hop did, probe the lookup table, and rewrite `pkt` in
  // place: a write into its Cached op or (write-back) the client's reply,
  // an update into its ack or reject.
  void ProcessWrite(Packet& pkt);
  void ProcessCacheUpdate(Packet& pkt);

  // LP ownership (parallel DES): the data plane — tables, registers, sketch,
  // counters, scratch — is owned by the switch's LP; the controller's
  // control-plane calls (InsertCacheEntry, DrainDirty, ResetStatistics, ...)
  // run in global-stream serial instants, which are coordinator context and
  // therefore allowed on owned state.
  NC_LP_SHARED Simulator* sim_;
  NC_LP_SHARED SwitchConfig config_;

  NC_LP_OWNED ExactMatchTable<CacheAction> lookup_;
  NC_LP_OWNED std::vector<PipeState> pipes_;
  // Valid bit per cached key (cache-status module, Fig 8).
  NC_LP_OWNED RegisterArray<uint8_t> status_;
  // Dirty bit per cached key (write-back mode only).
  NC_LP_OWNED RegisterArray<uint8_t> dirty_;
  // Exact value length in bytes per cached key; written by data-plane cache
  // updates so no control-plane action is needed on a write-through refresh.
  NC_LP_OWNED RegisterArray<uint8_t> value_size_;
  NC_LP_OWNED std::vector<uint32_t> free_key_indexes_;

  NC_LP_OWNED QueryStatistics stats_;
  // Open-addressing route table: ForwardBurstPacket probes it on every memo
  // miss below, and flat probing on the Mix64-spread address beats the
  // chained unordered_map there (see micro_datastructures BM_*RouteLookup).
  NC_LP_OWNED FlatTable<IpAddress, uint32_t, UintHasher> routes_;
  // One-entry route memo for the forward path: a run's replies
  // overwhelmingly share a destination (one client, or one server for the
  // miss side), so the repeated probe folds into a compare. nullptr port =
  // memo empty; AddRoute invalidates (robin-hood upserts may move entries).
  NC_LP_OWNED IpAddress route_memo_dst_ = 0;
  NC_LP_OWNED const uint32_t* route_memo_port_ = nullptr;
  struct SnakeHop {
    uint32_t out_port = 0;
    bool strip_value = false;
  };
  NC_LP_FENCED std::vector<std::optional<SnakeHop>> snake_;  // harness setup only
  NC_LP_SHARED HotReportHandler hot_report_;  // installed at wiring time
  // True while hot_report_ runs; the cache-table mutators refuse to run.
  NC_LP_OWNED bool in_hot_report_ = false;

  NC_LP_OWNED SwitchCounters counters_;
  NC_LP_OWNED std::vector<uint64_t> pipe_value_reads_;
  // Per-pipe transmitter state for the optional rate bound.
  NC_LP_OWNED std::vector<SimTime> pipe_busy_until_;
  // Staged Gets of the current run; a member so the steady state allocates
  // nothing per packet or burst.
  NC_LP_OWNED std::vector<StagedGet> staged_;
  // Stage-1 digest-batching scratch, reserved once in the constructor:
  // pointers at the packets' in-place key bytes for simd::DigestGather16,
  // the resulting (h1, h2) lanes, and the run positions they scatter back to.
  NC_LP_OWNED std::vector<const uint8_t*> batch_key_ptrs_;
  NC_LP_OWNED std::vector<uint64_t> batch_h1_;
  NC_LP_OWNED std::vector<uint64_t> batch_h2_;
  NC_LP_OWNED std::vector<size_t> batch_pos_;
  // Stage-3 value-gather scratch: one (register slot, packet value offset)
  // pointer pair per 16-byte unit served this run.
  NC_LP_OWNED std::vector<const uint8_t*> batch_serve_srcs_;
  NC_LP_OWNED std::vector<uint8_t*> batch_serve_dsts_;
};

}  // namespace netcache

#endif  // NETCACHE_DATAPLANE_NETCACHE_SWITCH_H_
