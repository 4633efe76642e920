#include "server/storage_server.h"

#include <utility>

#include "common/logging.h"
#include "common/profiler.h"
#include "common/trace_recorder.h"

namespace netcache {

StorageServer::StorageServer(Simulator* sim, std::string name, const ServerConfig& config)
    : Node(std::move(name)), sim_(sim), config_(config) {
  NC_CHECK(sim != nullptr);
  NC_CHECK(config.service_rate_qps > 0.0);
  NC_CHECK(config.num_cores > 0);
  cores_.resize(config.num_cores);
}

SimDuration StorageServer::ServiceTime() const {
  // Each core provides an equal share of the server's aggregate rate.
  double ns = 1e9 * static_cast<double>(config_.num_cores) / config_.service_rate_qps;
  SimDuration d = static_cast<SimDuration>(ns);
  return d > 0 ? d : 1;
}

size_t StorageServer::CoreOf(const Key& key) const {
  return CoreOfDigest(KeyDigest::Of(key));
}

size_t StorageServer::CoreOfDigest(const KeyDigest& digest) const {
  // The RSS hash seed (ASCII "RSSH"), shared by every server.
  constexpr uint64_t kCoreHashSeed = 0x52535348;
  if (config_.num_cores == 1) {
    return 0;
  }
  return static_cast<size_t>(digest.Probe(kCoreHashSeed) % config_.num_cores);
}

uint64_t StorageServer::StoreHash(const Packet& pkt) {
  return pkt.digest.Empty() ? pkt.nc.key.Hash() : pkt.digest.h1;
}

size_t StorageServer::QueueDepth() const {
  size_t depth = 0;
  for (const Core& core : cores_) {
    depth += core.queue.size();
  }
  return depth;
}

size_t StorageServer::BusyCores() const {
  size_t busy = 0;
  for (const Core& core : cores_) {
    busy += core.busy ? 1 : 0;
  }
  return busy;
}

void StorageServer::HandlePacket(const Packet& pkt, uint32_t /*in_port*/) {
  ++stats_.received;
  if (!online_ || !pkt.is_netcache) {
    return;  // a crashed server drops everything on the floor
  }
  switch (pkt.nc.op) {
    case OpCode::kCacheUpdateAck:
      // Control-ish packets bypass the service queue: NIC-level handling.
      HandleUpdateAck(pkt);
      return;
    case OpCode::kCacheUpdateReject:
      HandleUpdateReject(pkt);
      return;
    case OpCode::kGet:
    case OpCode::kPut:
    case OpCode::kDelete:
    case OpCode::kCachedPut:
    case OpCode::kCachedDelete:
      EnqueueOrDrop(pkt);
      return;
    default:
      NC_LOG(DEBUG) << name() << ": ignoring " << pkt.Summary();
      return;
  }
}

void StorageServer::EnqueueOrDrop(const Packet& pkt, bool front) {
  // RSS steering: the queue is chosen by the key hash, so per-key load can
  // never spread across cores (§1, §6). A packet that crossed a NetCache
  // switch carries the digest already; direct injections (unit tests) hash
  // here. Both give the same mapping — CoreOf uses the digest formula too.
  const size_t core_index =
      CoreOfDigest(pkt.digest.Empty() ? KeyDigest::Of(pkt.nc.key) : pkt.digest);
  Core& core = cores_[core_index];
  if (core.queue.size() >= config_.queue_capacity / config_.num_cores + 1) {
    ++stats_.dropped;
    if (TraceEnabled()) {
      TraceSpan(TraceEvent::kServerDrop, TraceQueryId(pkt), sim_->Now(), config_.ip,
                core.queue.size());
    }
    return;
  }
  ++stats_.enqueued;
  {
    // Warm stage one: every store op starts with the same chain walk, so
    // start loading its bucket slot now, at least one service time before
    // the lookup. The arg-0 span books the hint as store cost, not a packet.
    ProfScope prof(ProfCat::kServerLookup);
    MutexLock lock(store_mu_);
    store_.PrefetchBucket(StoreHash(pkt));
  }
  Packet* job = sim_->packet_pool().Acquire(pkt);
  if (front) {
    core.queue.push_front(job);
  } else {
    core.queue.push_back(job);
  }
  StartNextIfIdle(core_index);
}

void StorageServer::StartNextIfIdle(size_t core_index) {
  Core& core = cores_[core_index];
  if (core.busy || core.queue.empty()) {
    return;
  }
  core.busy = true;
  // The pooled packet stays in service until completion: the closure
  // captures a pointer and stays within the inline-event budget.
  Packet* job = core.queue.front();
  core.queue.pop_front();
  if (TraceEnabled()) {
    TraceSpan(TraceEvent::kServerDequeue, TraceQueryId(*job), sim_->Now(), config_.ip,
              core_index);
  }
  // Node-affine: the service chain re-arms itself and must stay in this
  // server's partition under parallel DES.
  sim_->ScheduleFor(this, ServiceTime(), [this, core_index, job] {
    Process(*job);
    sim_->packet_pool().Release(job);
    Core& done = cores_[core_index];
    ++done.processed;
    done.busy = false;
    if (!done.queue.empty()) {
      // Warm stage two, for the op this completion starts: its bucket slot
      // was warmed when it queued, so read it now and start loading the
      // chain's first node, which the op's lookup reads one service time
      // later. An op that found its core idle skips this stage: reading its
      // bucket at arrival would only move the miss there.
      ProfScope prof(ProfCat::kServerLookup);
      MutexLock lock(store_mu_);
      store_.PrefetchChain(StoreHash(*done.queue.front()));
    }
    StartNextIfIdle(core_index);
  });
}

void StorageServer::Process(Packet& pkt) {
  if (TraceEnabled()) {
    TraceSpan(TraceEvent::kServerExecute, TraceQueryId(pkt), sim_->Now(), config_.ip,
              static_cast<uint64_t>(pkt.nc.op));
  }
  switch (pkt.nc.op) {
    case OpCode::kGet:
      ProcessGet(pkt);
      break;
    case OpCode::kPut:
    case OpCode::kDelete:
    case OpCode::kCachedPut:
    case OpCode::kCachedDelete:
      ProcessWrite(pkt);
      break;
    default:
      break;
  }
}

void StorageServer::ProcessGet(Packet& pkt) {
  ++stats_.reads;
  bool hit;
  {
    ProfScope prof(ProfCat::kServerLookup);
    prof.set_arg(1);
    MutexLock lock(store_mu_);
    // Digest-aware lookup straight into the packet's value field: h1 equals
    // Key::Hash() by construction (proto/key_digest.h), so the table skips
    // re-hashing the key bytes; on a miss the field is left untouched and
    // has_value=false keeps it off the wire.
    hit = store_.GetInto(pkt.nc.key, StoreHash(pkt), &pkt.nc.value);
  }
  // In-place reply rewrite: the pooled request packet becomes the reply —
  // no MakeReplyShell copy, no value copy (see the contract note at
  // MakeReplyShell in proto/packet.h). The retained digest is a pure
  // function of nc.key, identical to what any switch would recompute.
  ProfScope prof(ProfCat::kServerReply);
  prof.set_arg(1);
  pkt.SwapSrcDst();
  pkt.nc.op = OpCode::kGetReply;
  pkt.nc.has_value = hit;
  if (!hit) {
    ++stats_.read_misses;
  }
  if (TraceEnabled()) {
    TraceSpan(TraceEvent::kServerReply, TraceQueryId(pkt), sim_->Now(), config_.ip,
              static_cast<uint64_t>(pkt.nc.op));
  }
  Send(0, pkt);
}

void StorageServer::ProcessWrite(const Packet& pkt) {
  const Key& key = pkt.nc.key;
  // §4.3: while a cache update (or controller insertion) for this key is in
  // flight, subsequent writes wait so server and switch stay consistent.
  auto blocked_it = blocked_.find(key);
  if (blocked_it != blocked_.end()) {
    ++stats_.deferred_writes;
    blocked_it->second.deferred.push_back(pkt);
    return;
  }

  ++stats_.writes;
  bool is_delete = pkt.nc.op == OpCode::kDelete || pkt.nc.op == OpCode::kCachedDelete;
  bool is_cached = pkt.nc.op == OpCode::kCachedPut || pkt.nc.op == OpCode::kCachedDelete;

  // The server updates the value atomically and serializes queries (§4.3);
  // our FIFO service loop provides the serialization, and the store mutex
  // keeps the concurrent control channel (ControlFetch/ControlApply) out.
  {
    MutexLock lock(store_mu_);
    if (is_delete) {
      store_.Delete(key).ok();  // deleting an absent key is a no-op
    } else {
      store_.Put(key, pkt.nc.value);
    }
  }

  Packet reply = MakeReplyShell(pkt);
  reply.nc.op = is_delete ? OpCode::kDeleteReply : OpCode::kPutReply;

  if (is_cached && config_.coherence == CoherenceMode::kWriteThroughSync) {
    // Textbook write-through: the reply waits for the switch ack.
    BeginCacheUpdate(key, pkt.nc.value, /*has_value=*/!is_delete, &reply);
    return;
  }

  // The paper's design: reply as soon as the local write completes; the
  // switch refresh happens asynchronously (§4.3: lower write latency than
  // standard write-through).
  if (TraceEnabled()) {
    TraceSpan(TraceEvent::kServerReply, TraceQueryId(reply), sim_->Now(), config_.ip,
              static_cast<uint64_t>(reply.nc.op));
  }
  Send(0, reply);
  if (is_cached && config_.coherence == CoherenceMode::kWriteThroughAsync) {
    BeginCacheUpdate(key, pkt.nc.value, /*has_value=*/!is_delete, nullptr);
  }
  // kWriteAround: no refresh at all; the cached entry stays invalid.
}

void StorageServer::BeginCacheUpdate(const Key& key, const Value& value, bool has_value,
                                     const Packet* held_reply) {
  BlockState& block = blocked_[key];
  ++block.refs;

  Packet update;
  update.eth.src = config_.ip;
  update.eth.dst = config_.switch_ip;
  update.ip.src = config_.ip;
  update.ip.dst = config_.switch_ip;
  update.l4.protocol = L4Protocol::kUdp;
  update.l4.src_port = kNetCachePort;
  update.l4.dst_port = kNetCachePort;
  update.is_netcache = true;
  update.nc.op = OpCode::kCacheUpdate;
  update.nc.key = key;
  update.nc.has_value = has_value;
  if (has_value) {
    update.nc.value = value;
  }
  update.nc.seq = static_cast<uint32_t>(++update_epoch_);

  PendingUpdate& pending = pending_updates_[key];
  pending.epoch = update_epoch_;
  pending.update = update;
  pending.has_held_reply = held_reply != nullptr;
  if (held_reply != nullptr) {
    pending.held_reply = *held_reply;
  }

  ++stats_.cache_updates_sent;
  Send(0, update);
  ScheduleUpdateRetry(key, update_epoch_);
}

void StorageServer::ScheduleUpdateRetry(const Key& key, uint64_t epoch) {
  // Light-weight reliable delivery (§6): retransmit until acked.
  sim_->ScheduleFor(this, config_.update_retry_timeout, [this, key, epoch] {
    auto it = pending_updates_.find(key);
    if (it == pending_updates_.end() || it->second.epoch != epoch) {
      return;  // acked or superseded
    }
    ++stats_.cache_update_retries;
    ++stats_.cache_updates_sent;
    Send(0, it->second.update);
    ScheduleUpdateRetry(key, epoch);
  });
}

void StorageServer::HandleUpdateAck(const Packet& pkt) {
  auto it = pending_updates_.find(pkt.nc.key);
  if (it == pending_updates_.end()) {
    return;  // duplicate ack
  }
  ++stats_.cache_update_acks;
  if (it->second.has_held_reply) {
    if (TraceEnabled()) {
      TraceSpan(TraceEvent::kServerReply, TraceQueryId(it->second.held_reply), sim_->Now(),
                config_.ip, static_cast<uint64_t>(it->second.held_reply.nc.op));
    }
    Send(0, it->second.held_reply);  // sync write-through: reply only now
  }
  pending_updates_.erase(it);
  ReleaseBlock(pkt.nc.key);
}

void StorageServer::HandleUpdateReject(const Packet& pkt) {
  auto it = pending_updates_.find(pkt.nc.key);
  if (it == pending_updates_.end()) {
    return;
  }
  ++stats_.cache_update_rejects;
  bool had_value = it->second.update.nc.has_value;
  Value value = it->second.update.nc.value;
  if (it->second.has_held_reply) {
    Send(0, it->second.held_reply);  // the write itself still succeeded
  }
  pending_updates_.erase(it);
  // The cached entry stays invalid at the switch, so reads serialize here and
  // coherence holds; hand the oversized value to the control plane (§4.3).
  ReleaseBlock(pkt.nc.key);
  if (update_reject_ && had_value) {
    update_reject_(pkt.nc.key, value);
  }
}

void StorageServer::RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                                    MetricsRegistry::Labels labels) const {
  const ServerStats& s = stats_;
  registry.AddCounter(prefix + ".received", &s.received, labels);
  registry.AddCounter(prefix + ".enqueued", &s.enqueued, labels);
  registry.AddCounter(prefix + ".dropped", &s.dropped, labels);
  registry.AddCounter(prefix + ".reads", &s.reads, labels);
  registry.AddCounter(prefix + ".read_misses", &s.read_misses, labels);
  registry.AddCounter(prefix + ".writes", &s.writes, labels);
  registry.AddCounter(prefix + ".deferred_writes", &s.deferred_writes, labels);
  registry.AddCounter(prefix + ".cache_updates_sent", &s.cache_updates_sent, labels);
  registry.AddCounter(prefix + ".cache_update_acks", &s.cache_update_acks, labels);
  registry.AddCounter(prefix + ".cache_update_rejects", &s.cache_update_rejects, labels);
  registry.AddCounter(prefix + ".cache_update_retries", &s.cache_update_retries, labels);
  registry.AddGauge(
      prefix + ".queue_depth", [this] { return static_cast<double>(QueueDepth()); }, labels);
  registry.AddGauge(
      prefix + ".online", [this] { return online_ ? 1.0 : 0.0; }, labels);
  MutexLock lock(store_mu_);
  store_.RegisterMetrics(registry, prefix + ".kv", labels);
}

void StorageServer::BlockWrites(const Key& key) { ++blocked_[key].refs; }

void StorageServer::UnblockWrites(const Key& key) { ReleaseBlock(key); }

void StorageServer::ReleaseBlock(const Key& key) {
  auto it = blocked_.find(key);
  if (it == blocked_.end()) {
    return;
  }
  if (--it->second.refs > 0) {
    return;
  }
  // Re-admit deferred writes at the head of the service queue, preserving
  // their arrival order.
  std::deque<Packet> deferred = std::move(it->second.deferred);
  blocked_.erase(it);
  for (auto rit = deferred.rbegin(); rit != deferred.rend(); ++rit) {
    EnqueueOrDrop(*rit, /*front=*/true);
  }
}

}  // namespace netcache
