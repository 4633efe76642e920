// Storage server: in-memory KV store + the NetCache server agent shim (§3,
// §4.3, §6).
//
// The agent does three things:
//   1. Translates NetCache packets into KV-store API calls.
//   2. Implements write-through cache coherence: on a CachedPut/CachedDelete
//      (ops rewritten by the switch to flag a cached key), it applies the
//      write, replies to the client immediately, then pushes the new value to
//      the switch with a retried data-plane kCacheUpdate — blocking later
//      writes to that key until the switch acks (§4.3).
//   3. Exposes the control hooks the controller needs for cache insertion:
//      fetch a value, and block/unblock writes to a key while an insertion is
//      in flight (§4.3 "Cache Update").
//
// Service model: queries are served FIFO from a bounded queue at a fixed
// per-query service time (1 / service_rate). Arrivals beyond the queue bound
// are dropped — exactly the paper's server-emulation methodology (§7.1).
// An accepted query is copied once into a pooled Packet, and its core's
// queue holds the pointer until the service completes. The store op runs at
// completion, one service time after service starts, and the server uses
// that slack to warm the op's two dependent loads a stage ahead (see
// docs/PERFORMANCE.md, "Warmed store ops"):
//   1. At acceptance, every op prefetches its bucket slot.
//   2. When a completion starts the next queued op, that op reads its
//      now-warm bucket slot and prefetches the chain's first node.
// An op that finds its core idle skips stage 2, since reading its bucket at
// arrival would only move the miss there. Both hints are booked as arg-0
// server_lookup profiler spans, and neither changes what is simulated.
//
// Receive path: the server keeps Node's default burst handler, which hands
// each arrival of a delivery to HandlePacket in order, so the agent handles
// each query as it arrives (§6). A served Get is rewritten into its reply in
// place (proto/packet.h).

#ifndef NETCACHE_SERVER_STORAGE_SERVER_H_
#define NETCACHE_SERVER_STORAGE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lp_ownership.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/time_units.h"
#include "kvstore/kv_store.h"
#include "net/node.h"
#include "net/simulator.h"
#include "proto/packet.h"

namespace netcache {

// How the agent keeps the switch coherent on writes to cached keys (§4.3).
enum class CoherenceMode {
  // The paper's design: apply the write, reply to the client immediately,
  // push the switch refresh asynchronously (blocking only later writes).
  kWriteThroughAsync,
  // Textbook write-through: hold the client's reply until the switch ack —
  // §4.3 argues (and abl_coherence measures) this costs write latency.
  kWriteThroughSync,
  // Write-around: never refresh; the entry stays invalid until the
  // controller re-inserts it — §4.3 rejects this because data-plane updates
  // are cheap and control-plane updates are slow.
  kWriteAround,
};

struct ServerConfig {
  IpAddress ip = 0;
  IpAddress switch_ip = 0xffff0001;
  double service_rate_qps = 10e6;  // paper's simple store: ~10 MQPS (§6)
  size_t queue_capacity = 512;     // queries buffered before drop-tail
  SimDuration update_retry_timeout = 100 * kMicrosecond;
  // Per-core sharding (§6: RSS / DPDK Flow Director). With num_cores > 1
  // the server runs one queue per core at service_rate/num_cores each, and
  // a query is steered to the core owning its key's hash — so a single hot
  // key can only ever be served at one core's rate, the §1 amplification.
  size_t num_cores = 1;
  CoherenceMode coherence = CoherenceMode::kWriteThroughAsync;
};

struct ServerStats {
  uint64_t received = 0;
  uint64_t enqueued = 0;       // accepted into a core's service queue
  uint64_t dropped = 0;        // queue overflow (overload shedding)
  uint64_t reads = 0;
  uint64_t read_misses = 0;
  uint64_t writes = 0;
  uint64_t deferred_writes = 0;  // blocked behind a pending cache update
  uint64_t cache_updates_sent = 0;
  uint64_t cache_update_acks = 0;
  uint64_t cache_update_rejects = 0;
  uint64_t cache_update_retries = 0;
};

class StorageServer : public Node {
 public:
  StorageServer(Simulator* sim, std::string name, const ServerConfig& config);

  // ---- data path ----
  void HandlePacket(const Packet& pkt, uint32_t in_port) override;

  // ---- control channel (used by the controller) ----
  // The control channel is the one path specified to run concurrently with
  // the data path (the controller is a separate process, §4.2), so the store
  // is mutex-protected and every access is annotated for -Wthread-safety.
  // Fetches the current value for cache insertion (§4.3).
  Result<Value> ControlFetch(const Key& key) const NC_EXCLUDES(store_mu_) {
    MutexLock lock(store_mu_);
    return store_.Get(key);
  }
  // Applies a value flushed back from the switch (write-back mode, §5).
  void ControlApply(const Key& key, const Value& value) NC_EXCLUDES(store_mu_) {
    MutexLock lock(store_mu_);
    store_.Put(key, value);
  }
  // Blocks/unblocks writes to `key` during a controller-driven insertion.
  void BlockWrites(const Key& key);
  void UnblockWrites(const Key& key);

  // Invoked when the switch rejects a data-plane update because the new value
  // outgrew its slots; the controller must re-insert via the control plane.
  using UpdateRejectHandler = std::function<void(const Key& key, const Value& value)>;
  void SetUpdateRejectHandler(UpdateRejectHandler handler) {
    update_reject_ = std::move(handler);
  }

  // Fail/recover the server: while offline every arriving packet is lost
  // (crash model). Cached reads keep flowing through the switch; uncached
  // traffic to this server times out at the clients.
  void set_online(bool online) { online_ = online; }
  bool online() const { return online_; }

  // Direct store access for pre-population and verification. Exempt from the
  // analysis: callers (Populate, tests, invariant checkers) run while the
  // simulation is quiescent, with no concurrent control-channel activity.
  KvStore& store() NC_NO_THREAD_SAFETY_ANALYSIS { return store_; }
  const KvStore& store() const NC_NO_THREAD_SAFETY_ANALYSIS { return store_; }

  // Coherence-protocol state of one key, for the cache-coherence checker: a
  // kCacheUpdate awaiting the switch ack, or writes blocked by a
  // controller-driven insertion (§4.3). While either is true the switch and
  // store may legitimately disagree.
  bool HasPendingUpdate(const Key& key) const { return pending_updates_.count(key) != 0; }
  bool WritesBlocked(const Key& key) const { return blocked_.count(key) != 0; }
  // Writes parked behind a block for `key` (structured dumps).
  size_t DeferredWriteCount(const Key& key) const {
    auto it = blocked_.find(key);
    return it == blocked_.end() ? 0 : it->second.deferred.size();
  }
  // Cores currently serving a query (packet-conservation accounting:
  // enqueued == processed + queued + in-service).
  size_t BusyCores() const;

  const ServerConfig& config() const { return config_; }
  const ServerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ServerStats{}; }

  // Registers every ServerStats field, the live queue depth, and the
  // underlying KV store under `prefix` (e.g. "server.3.queue_depth").
  void RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                       MetricsRegistry::Labels labels = {}) const;
  size_t QueueDepth() const;
  size_t CoreOf(const Key& key) const;
  uint64_t core_processed(size_t core) const { return cores_[core].processed; }

 private:
  struct BlockState {
    int refs = 0;                // overlapping block reasons
    std::deque<Packet> deferred; // writes waiting for unblock, FIFO
  };
  struct PendingUpdate {
    uint64_t epoch = 0;  // invalidates stale retry timers
    Packet update;       // the kCacheUpdate to (re)send
    bool has_held_reply = false;
    Packet held_reply;   // client reply parked until the ack (sync mode)
  };

  struct Core {
    std::deque<Packet*> queue;  // pooled copies; each is released at its completion
    bool busy = false;
    uint64_t processed = 0;
  };

  SimDuration ServiceTime() const;
  size_t CoreOfDigest(const KeyDigest& digest) const;
  // The key's hash as the store computes it: a switch-crossed packet's
  // digest h1 equals Key::Hash() (proto/key_digest.h).
  static uint64_t StoreHash(const Packet& pkt);
  void EnqueueOrDrop(const Packet& pkt, bool front = false);
  void StartNextIfIdle(size_t core);
  // The in-service packet is pool-owned and mutable: reads rewrite it into
  // the reply in place (see proto/packet.h, MakeReplyShell contract note).
  void Process(Packet& pkt);

  void ProcessGet(Packet& pkt);
  void ProcessWrite(const Packet& pkt);
  void HandleUpdateAck(const Packet& pkt);
  void HandleUpdateReject(const Packet& pkt);

  void BeginCacheUpdate(const Key& key, const Value& value, bool has_value,
                        const Packet* held_reply);
  void ScheduleUpdateRetry(const Key& key, uint64_t epoch);
  void ReleaseBlock(const Key& key);

  // LP ownership: the data path (cores, queues, coherence bookkeeping,
  // stats) belongs to this server's LP; the store is the one piece of state
  // shared with the controller's control channel and is mutex-protected
  // (covered by -Wthread-safety, hence NC_LP_SHARED); online_ is flipped only
  // by failover harness code in the global stream.
  NC_LP_SHARED Simulator* sim_;
  NC_LP_SHARED ServerConfig config_;
  NC_LP_SHARED mutable Mutex store_mu_;
  NC_LP_SHARED KvStore store_ NC_GUARDED_BY(store_mu_);
  NC_LP_FENCED bool online_ = true;

  NC_LP_OWNED std::vector<Core> cores_;

  NC_LP_OWNED std::unordered_map<Key, BlockState, KeyHasher> blocked_;
  NC_LP_OWNED std::unordered_map<Key, PendingUpdate, KeyHasher> pending_updates_;
  NC_LP_OWNED uint64_t update_epoch_ = 0;

  NC_LP_SHARED UpdateRejectHandler update_reject_;  // installed at wiring time
  NC_LP_OWNED ServerStats stats_;
};

}  // namespace netcache

#endif  // NETCACHE_SERVER_STORAGE_SERVER_H_
