#include "dataplane/netcache_switch.h"

#include <bit>

#include "common/logging.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "common/trace_recorder.h"

namespace netcache {

namespace {

// Rewrites the request `pkt` in place into its header-only reply with op
// `op`: the wire image of MakeReplyShell(pkt) with that op (see the in-place
// contract note there). The value is cleared, not just hidden, because the
// client hands a Put reply's nc.value to its callback.
void RewriteAsReply(Packet& pkt, OpCode op) {
  pkt.SwapSrcDst();
  pkt.nc.op = op;
  pkt.nc.has_value = false;
  pkt.nc.value.set_size(0);
}

}  // namespace

NetCacheSwitch::NetCacheSwitch(Simulator* sim, std::string name, const SwitchConfig& config)
    : Node(std::move(name)),
      sim_(sim),
      config_(config),
      lookup_(config.cache_capacity),
      status_(config.cache_capacity, 0),
      dirty_(config.cache_capacity, 0),
      value_size_(config.cache_capacity, 0),
      stats_(config.stats),
      pipe_value_reads_(config.num_pipes, 0),
      pipe_busy_until_(config.num_pipes, 0) {
  NC_CHECK(config.num_pipes > 0);
  NC_CHECK(config.stats.counter_slots >= config.cache_capacity)
      << "need one counter per cache entry";
  pipes_.reserve(config.num_pipes);
  for (size_t p = 0; p < config.num_pipes; ++p) {
    pipes_.emplace_back(config.num_stages, config.indexes_per_pipe);
  }
  free_key_indexes_.reserve(config.cache_capacity);
  for (size_t i = config.cache_capacity; i > 0; --i) {
    free_key_indexes_.push_back(static_cast<uint32_t>(i - 1));
  }
  // Reserve the burst scratch once so the steady-state burst path never
  // allocates (a run larger than this just grows the vectors one time).
  constexpr size_t kExpectedBurst = 64;
  staged_.reserve(kExpectedBurst);
  batch_key_ptrs_.reserve(kExpectedBurst);
  batch_h1_.reserve(kExpectedBurst);
  batch_h2_.reserve(kExpectedBurst);
  batch_pos_.reserve(kExpectedBurst);
  // Up to 8 units per served value.
  batch_serve_srcs_.resize(kExpectedBurst * (kMaxValueSize / kValueUnitSize));
  batch_serve_dsts_.resize(kExpectedBurst * (kMaxValueSize / kValueUnitSize));
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void NetCacheSwitch::HandlePacket(const Packet& pkt, uint32_t in_port) {
  NC_CHECK(sim_ != nullptr) << "switch not attached to a simulator";
  // A one-packet burst over a pooled copy; the pipeline steals the copy when
  // it forwards it.
  BurstArrival arrival{sim_->packet_pool().Acquire(pkt), in_port};
  HandleBurst(&arrival, 1);
  if (arrival.pkt != nullptr) {
    sim_->packet_pool().Release(arrival.pkt);
  }
}

void NetCacheSwitch::ScheduleEmit(uint32_t port, Packet* out_pkt) {
  SimDuration delay = config_.pipeline_latency;
  if (config_.pipe_rate_qps > 0.0) {
    // §4.4.4 per-pipe bound: each packet occupies its egress pipe for
    // 1/rate; beyond the pipe's backlog budget, shed the packet.
    size_t pipe = PipeOfPort(port);
    SimDuration slot = static_cast<SimDuration>(1e9 / config_.pipe_rate_qps);
    SimTime start = std::max(sim_->Now(), pipe_busy_until_[pipe]);
    SimTime backlog = start - sim_->Now();
    if (backlog > slot * config_.pipe_queue_packets) {
      ++counters_.pipe_overload_drops;
      sim_->packet_pool().Release(out_pkt);
      return;
    }
    pipe_busy_until_[pipe] = start + slot;
    delay = (start + slot) - sim_->Now() + config_.pipeline_latency;
  }
  // Node-affine: the egress pipeline runs in the switch's partition.
  sim_->ScheduleFor(this, delay, [this, port, out_pkt] {
    Send(port, *out_pkt);
    sim_->packet_pool().Release(out_pkt);
  });
}

void NetCacheSwitch::HandleBurst(BurstArrival* arrivals, size_t count) {
  NC_CHECK(sim_ != nullptr) << "switch not attached to a simulator";
  // Bridges the burst pipeline to the event queue: every emit is a pooled
  // arrival rewritten in place, so it goes straight to ScheduleEmit.
  class ScheduleSink : public EmitSink {
   public:
    explicit ScheduleSink(NetCacheSwitch* sw) : sw_(sw) {}
    void OnEmit(uint32_t port, Packet* pkt, bool /*from_burst*/) override {
      sw_->ScheduleEmit(port, pkt);
    }

   private:
    NetCacheSwitch* sw_;
  };
  ScheduleSink sink(this);
  ProcessBurst(std::span<BurstArrival>(arrivals, count), sink);
}

std::vector<NetCacheSwitch::Emit> NetCacheSwitch::ProcessPacket(const Packet& pkt,
                                                                uint32_t in_port) {
  std::vector<Emit> out;
  ProcessPacket(pkt, in_port, out);
  return out;
}

void NetCacheSwitch::ProcessPacket(const Packet& pkt, uint32_t in_port,
                                   std::vector<Emit>& out) {
  // The one possible emit is the local copy below, rewritten in place.
  class AppendSink : public EmitSink {
   public:
    explicit AppendSink(std::vector<Emit>& out) : out_(out) {}
    void OnEmit(uint32_t port, Packet* pkt, bool /*from_burst*/) override {
      out_.push_back(Emit{port, std::move(*pkt)});
    }

   private:
    std::vector<Emit>& out_;
  };
  Packet work = pkt;
  BurstArrival arrival{&work, in_port};
  AppendSink sink(out);
  ProcessBurst(std::span<BurstArrival>(&arrival, 1), sink);
}

void NetCacheSwitch::ProcessBarrier(BurstArrival& arrival, EmitSink& sink) {
  ++counters_.packets;
  Packet& pkt = *arrival.pkt;
  // Parser: only packets on the reserved L4 port run the NetCache modules;
  // everything else is plain L2/L3 traffic (§4.1).
  if (IsNetCacheQuery(pkt)) {
    ++counters_.netcache_queries;
    switch (pkt.nc.op) {
      case OpCode::kPut:
      case OpCode::kDelete:
        ProcessWrite(pkt);
        break;
      case OpCode::kCacheUpdate:
        ProcessCacheUpdate(pkt);
        break;
      default:
        break;  // replies and acks pass through to their destination
    }
  }
  ForwardBurstPacket(arrival, sink);
}

void NetCacheSwitch::ProcessBurst(std::span<BurstArrival> arrivals, EmitSink& sink) {
  size_t i = 0;
  while (i < arrivals.size()) {
    if (!IsNetCacheGet(*arrivals[i].pkt)) {
      // Barrier packet (write, cache update, reply, plain L3): rewritten in
      // place and forwarded at its in-order turn.
      ProcessBarrier(arrivals[i], sink);
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < arrivals.size() && IsNetCacheGet(*arrivals[j].pkt)) {
      ++j;
    }
    ProcessGetRun(arrivals.subspan(i, j - i), sink);
    i = j;
  }
}

void NetCacheSwitch::ProcessGetRun(std::span<BurstArrival> run, EmitSink& sink) {
  // Only stage 1 depends on run length: its digest gather has a fixed setup
  // cost a lone packet never amortizes, so a run of one digests inline. Both
  // forms are byte-identical (common/simd.h).

  // Stage 1 (ingress hash + match dispatch): digest every key once and warm
  // the lookup table's home buckets.
  {
    ProfScope prof(ProfCat::kSwitchDigest);
    prof.set_arg(run.size());
    if (run.size() > 1) {
      BatchDigestRun(run);
    } else if (run[0].pkt->digest.Empty()) {
      run[0].pkt->digest = KeyDigest::Of(run[0].pkt->nc.key);
    }
  }

  // Stage 2 (match + status): peek every packet's entry and warm the
  // registers its stage-3 turn will touch — the per-key counter and value
  // rows on a valid hit, the Count-Min rows on a miss. No hot-report handler
  // may change the cache table (SetHotReportHandler), so each packet's match
  // is final for the whole run.
  {
    ProfScope prof(ProfCat::kSwitchMatchPeek);
    prof.set_arg(run.size());
    staged_.clear();
    for (BurstArrival& a : run) {
      Packet& p = *a.pkt;
      StagedGet s;
      const CacheAction* action =
          lookup_.PeekWithHash(p.nc.key, static_cast<size_t>(p.digest.h1));  // Alg 1 line 2
      if (action != nullptr) {
        s.found = true;
        s.action = *action;
        s.valid = status_.Read(action->key_index) != 0;
      }
      if (s.valid) {
        stats_.PrefetchCounter(s.action.key_index);
        value_size_.Prefetch(s.action.key_index);
        pipes_[s.action.pipe].values.Prefetch(s.action.bitmap, s.action.value_index);
      } else {
        stats_.PrefetchUncached(p.digest);
      }
      staged_.push_back(s);
    }
  }

  // Stage 3 (value + stats + emit): one gather assembles every valid hit's
  // value, then one pass strictly in arrival order books every observable
  // side effect — counters, the sampler's RNG draws, traces, hot reports,
  // emit scheduling — at exactly the position it would take in the
  // sequential schedule, which keeps burst output byte-identical to
  // single-packet processing. Pure-sum counters (packets/queries/reads,
  // hits) are booked in bulk after the loop: per-packet ordering of a plain
  // add is not observable.
  ProfScope serve_prof(ProfCat::kSwitchValueServe);
  serve_prof.set_arg(run.size());
  BatchValueServeRun(run);
  const bool tracing = TraceEnabled();
  uint64_t hits = 0;
  for (size_t idx = 0; idx < run.size(); ++idx) {
    BurstArrival& a = run[idx];
    Packet& p = *a.pkt;
    const StagedGet& s = staged_[idx];
    if (s.valid) {
      ++hits;
      if (tracing) {
        TraceSpan(TraceEvent::kSwitchHit, TraceQueryId(p), sim_ != nullptr ? sim_->Now() : 0,
                  config_.switch_ip);
      }
      stats_.OnCachedRead(s.action.key_index);  // Alg 1 line 5
      ++pipe_value_reads_[s.action.pipe];
      p.nc.has_value = true;
      p.nc.op = OpCode::kGetReply;
      p.SwapSrcDst();
    } else {
      if (s.found) {
        ++counters_.cache_invalid;
      } else {
        ++counters_.cache_misses;
      }
      if (tracing) {
        TraceSpan(s.found ? TraceEvent::kSwitchInvalid : TraceEvent::kSwitchMiss,
                  TraceQueryId(p), sim_ != nullptr ? sim_->Now() : 0, config_.switch_ip);
      }
      if (stats_.OnUncachedRead(p.nc.key, p.digest)) {  // Alg 1 lines 7-9
        ++counters_.hot_reports;
        if (hot_report_) {
          in_hot_report_ = true;
          hot_report_(p.nc.key, stats_.SketchEstimate(p.nc.key));
          in_hot_report_ = false;
        }
      }
    }
    ForwardBurstPacket(a, sink);
  }
  counters_.packets += run.size();
  counters_.netcache_queries += run.size();
  counters_.reads += run.size();
  counters_.cache_hits += hits;
}

// Burst stage 1, batched leg: collect pointers at the keys still needing a
// digest (the kernel reads them straight out of the packets), digest them in
// one call, then scatter the results and warm the table in one merged
// pass — batch_pos_ is ascending, so a single cursor re-pairs digests with
// packets.
__attribute__((noinline)) void NetCacheSwitch::BatchDigestRun(std::span<BurstArrival> run) {
  batch_key_ptrs_.clear();
  batch_pos_.clear();
  for (size_t idx = 0; idx < run.size(); ++idx) {
    Packet& p = *run[idx].pkt;
    if (p.digest.Empty()) {
      batch_key_ptrs_.push_back(p.nc.key.bytes.data());
      batch_pos_.push_back(idx);
    }
  }
  if (!batch_pos_.empty()) {
    batch_h1_.resize(batch_pos_.size());
    batch_h2_.resize(batch_pos_.size());
    simd::DigestGather16(batch_key_ptrs_.data(), batch_pos_.size(), batch_h1_.data(),
                         batch_h2_.data());
  }
  size_t m = 0;
  for (size_t idx = 0; idx < run.size(); ++idx) {
    Packet& p = *run[idx].pkt;
    if (m < batch_pos_.size() && batch_pos_[m] == idx) {
      p.digest = KeyDigest{batch_h1_[m], batch_h2_[m]};
      ++m;
    }
    lookup_.Prefetch(static_cast<size_t>(p.digest.h1));
  }
}

// Burst stage 3's gather: stages every valid hit's units, booking exactly
// the counted stage reads ReadValueInto would (StageGather calls
// RegisterArray::Read per participating unit), then a single
// GatherValueSlots call copies all units, four in flight. Whole-unit copies
// may write past value.size() inside the 128-byte buffer — that tail is
// unobservable (Value::operator== and SerializePacket stop at size).
__attribute__((noinline)) void NetCacheSwitch::BatchValueServeRun(std::span<BurstArrival> run) {
  size_t max_units = run.size() * (kMaxValueSize / kValueUnitSize);
  if (batch_serve_srcs_.size() < max_units) {
    batch_serve_srcs_.resize(max_units);
    batch_serve_dsts_.resize(max_units);
  }
  const uint8_t** srcs = batch_serve_srcs_.data();
  uint8_t** dsts = batch_serve_dsts_.data();
  size_t units = 0;
  for (size_t idx = 0; idx < run.size(); ++idx) {
    const StagedGet& s = staged_[idx];
    if (!s.valid) {
      continue;
    }
    Packet& p = *run[idx].pkt;
    size_t size = value_size_.Read(s.action.key_index);
    units = pipes_[s.action.pipe].values.StageGather(s.action.bitmap, s.action.value_index, size,
                                                     p.nc.value.data(), srcs, dsts, units);
    p.nc.value.set_size(size);
  }
  if (units != 0) {
    GatherValueSlots(srcs, dsts, units);
  }
}

void NetCacheSwitch::ForwardBurstPacket(BurstArrival& arrival, EmitSink& sink) {
  Packet& p = *arrival.pkt;
  const uint32_t* port;
  if (route_memo_port_ != nullptr && p.ip.dst == route_memo_dst_) {
    port = route_memo_port_;
  } else {
    port = routes_.Find(p.ip.dst);
    if (port != nullptr) {
      route_memo_dst_ = p.ip.dst;
      route_memo_port_ = port;
    }
  }
  if (port == nullptr) {
    ++counters_.unroutable;
    NC_LOG(DEBUG) << name() << ": no route for " << p.ip.dst;
    return;
  }
  if (p.ip.ttl == 0) {
    ++counters_.ttl_drops;
    return;
  }
  --p.ip.ttl;
  ++counters_.forwarded;
  uint32_t out_port = *port;
  if (arrival.port < snake_.size() && snake_[arrival.port].has_value()) {
    const SnakeHop& hop = *snake_[arrival.port];
    out_port = hop.out_port;
    if (hop.strip_value && p.nc.op == OpCode::kGetReply) {
      // Rewind a served reply into a fresh query for the next snake pass.
      // The key is untouched, so the digest stays valid.
      p.nc.op = OpCode::kGet;
      p.nc.has_value = false;
      p.nc.value = Value{};
      p.SwapSrcDst();
    }
  }
  // Hand the (rewritten-in-place) pooled packet to the sink and clear the
  // arrival slot so the dispatcher doesn't release it under us.
  arrival.pkt = nullptr;
  sink.OnEmit(out_port, &p, /*from_burst=*/true);
}

Status NetCacheSwitch::SetSnakeForward(uint32_t in_port, uint32_t out_port, bool strip_value) {
  const size_t radix = config_.num_pipes * config_.ports_per_pipe;
  if (in_port >= radix || out_port >= radix) {
    return Status::InvalidArgument("snake port beyond switch radix");
  }
  if (in_port >= snake_.size()) {
    snake_.resize(in_port + 1);
  }
  snake_[in_port] = SnakeHop{out_port, strip_value};
  return Status::Ok();
}

void NetCacheSwitch::ProcessWrite(Packet& pkt) {
  ++counters_.writes;
  // Ingress hash engine: one pass over the key; every downstream table,
  // sketch, and server-side index derives from the digest (or reuses one a
  // previous hop already computed).
  if (pkt.digest.Empty()) {
    pkt.digest = KeyDigest::Of(pkt.nc.key);
  }
  const CacheAction* action =
      lookup_.PeekWithHash(pkt.nc.key, static_cast<size_t>(pkt.digest.h1));  // Alg 1 line 11
  if (action == nullptr) {
    return;  // Alg 1 line 13: forwarded to the server unchanged
  }
  if (config_.write_back && pkt.nc.op == OpCode::kPut &&
      pkt.nc.value.NumUnits() <= static_cast<size_t>(std::popcount(action->bitmap))) {
    // Experimental §5 write-back: absorb the write in the switch. The entry
    // stays valid with the fresh value, the dirty bit records the pending
    // flush, and the client is answered directly — the server never sees
    // this write until the controller drains dirty entries.
    pipes_[action->pipe].values.WriteValue(action->bitmap, action->value_index, pkt.nc.value);
    value_size_.Write(action->key_index, static_cast<uint8_t>(pkt.nc.value.size()));
    status_.Write(action->key_index, 1);
    dirty_.Write(action->key_index, 1);
    ++counters_.write_back_hits;
    if (TraceEnabled()) {
      TraceSpan(TraceEvent::kSwitchWriteBack, TraceQueryId(pkt),
                sim_ != nullptr ? sim_->Now() : 0, config_.switch_ip);
    }
    RewriteAsReply(pkt, OpCode::kPutReply);
    return;
  }
  // Invalidate so later reads go to the server until it refreshes the
  // cache, and mark the op so the server knows the key is cached (§4.3).
  status_.Write(action->key_index, 0);  // Alg 1 line 12
  ++counters_.invalidations;
  pkt.nc.op = pkt.nc.op == OpCode::kPut ? OpCode::kCachedPut : OpCode::kCachedDelete;
}

void NetCacheSwitch::ProcessCacheUpdate(Packet& pkt) {
  if (pkt.digest.Empty()) {
    pkt.digest = KeyDigest::Of(pkt.nc.key);
  }
  const CacheAction* action =
      lookup_.PeekWithHash(pkt.nc.key, static_cast<size_t>(pkt.digest.h1));
  if (action == nullptr) {
    // Key was evicted while the write was in flight; ack so the server
    // unblocks — the authoritative copy lives on the server anyway.
    RewriteAsReply(pkt, OpCode::kCacheUpdateAck);
    return;
  }
  if (!pkt.nc.has_value) {
    // Refresh after a CachedDelete: there is nothing to serve, so the entry
    // stays invalid until the controller evicts or re-inserts it.
    status_.Write(action->key_index, 0);
    ++counters_.cache_updates;
    RewriteAsReply(pkt, OpCode::kCacheUpdateAck);
    return;
  }
  size_t allocated_units = static_cast<size_t>(std::popcount(action->bitmap));
  if (pkt.nc.value.NumUnits() > allocated_units) {
    // §4.3: data-plane updates only for values no larger than the old ones.
    // The server holds a newer value we cannot store, so the entry must not
    // serve reads until the control plane re-installs it.
    status_.Write(action->key_index, 0);
    ++counters_.update_rejects;
    RewriteAsReply(pkt, OpCode::kCacheUpdateReject);
    return;
  }
  pipes_[action->pipe].values.WriteValue(action->bitmap, action->value_index, pkt.nc.value);
  value_size_.Write(action->key_index, static_cast<uint8_t>(pkt.nc.value.size()));
  status_.Write(action->key_index, 1);  // valid again; serves reads at line rate
  ++counters_.cache_updates;
  RewriteAsReply(pkt, OpCode::kCacheUpdateAck);
}

// ---------------------------------------------------------------------------
// Control plane (switch driver API)
// ---------------------------------------------------------------------------

Status NetCacheSwitch::AddRoute(IpAddress ip, uint32_t port) {
  if (port >= config_.num_pipes * config_.ports_per_pipe) {
    return Status::InvalidArgument("port beyond switch radix");
  }
  routes_.Upsert(ip, port);
  route_memo_port_ = nullptr;  // upsert may displace entries (robin-hood)
  return Status::Ok();
}

std::optional<uint32_t> NetCacheSwitch::RouteOf(IpAddress ip) const {
  const uint32_t* port = routes_.Find(ip);
  if (port == nullptr) {
    return std::nullopt;
  }
  return *port;
}

void NetCacheSwitch::CheckNotInHotReport() const {
  NC_CHECK(!in_hot_report_) << "hot-report handler must not change the cache inline; "
                               "queue the key and change the cache from a later event";
}

Status NetCacheSwitch::InsertCacheEntry(const Key& key, const Value& value, IpAddress server_ip) {
  CheckNotInHotReport();
  if (lookup_.Match(key) != nullptr) {
    return Status::AlreadyExists("key already cached");
  }
  if (value.empty()) {
    return Status::InvalidArgument("cannot cache empty value");
  }
  auto route = RouteOf(server_ip);
  if (!route.has_value()) {
    return Status::InvalidArgument("no route to owning server");
  }
  size_t pipe = PipeOfPort(*route);

  if (free_key_indexes_.empty()) {
    return Status::ResourceExhausted("cache full (no key index)");
  }

  std::optional<SlotAllocation> alloc = pipes_[pipe].allocator.Insert(key, value.NumUnits());
  if (!alloc.has_value()) {
    return Status::ResourceExhausted("no row with enough free slots in pipe");
  }

  uint32_t key_index = free_key_indexes_.back();
  CacheAction action;
  action.bitmap = alloc->bitmap;
  action.value_index = static_cast<uint32_t>(alloc->index);
  action.key_index = key_index;
  action.pipe = static_cast<uint8_t>(pipe);
  Status st = lookup_.InsertEntry(key, action);
  if (!st.ok()) {
    pipes_[pipe].allocator.Evict(key);
    return st;
  }
  free_key_indexes_.pop_back();

  pipes_[pipe].values.WriteValue(action.bitmap, action.value_index, value);
  value_size_.Write(key_index, static_cast<uint8_t>(value.size()));
  stats_.ClearCounter(key_index);
  dirty_.Write(key_index, 0);
  status_.Write(key_index, 1);
  return Status::Ok();
}

Status NetCacheSwitch::EvictCacheEntry(const Key& key) {
  CheckNotInHotReport();
  const CacheAction* action = lookup_.Match(key);
  if (action == nullptr) {
    return Status::NotFound("key not cached");
  }
  CacheAction copy = *action;
  status_.Write(copy.key_index, 0);
  dirty_.Write(copy.key_index, 0);
  stats_.ClearCounter(copy.key_index);
  NC_CHECK(pipes_[copy.pipe].allocator.Evict(key));
  NC_CHECK(lookup_.RemoveEntry(key).ok());
  free_key_indexes_.push_back(copy.key_index);
  return Status::Ok();
}

size_t NetCacheSwitch::Defragment(size_t pipe, size_t needed_units) {
  CheckNotInHotReport();
  NC_CHECK(pipe < pipes_.size());
  PipeState& ps = pipes_[pipe];
  std::vector<SlotMove> plan = ps.allocator.PlanReorganization(needed_units);
  size_t moved = 0;
  for (const SlotMove& move : plan) {
    const CacheAction* action = lookup_.Match(move.key);
    if (action == nullptr || action->pipe != pipe) {
      continue;  // evicted since planning
    }
    CacheAction updated = *action;
    // Take the entry off the fast path while its value moves between rows.
    uint8_t was_valid = status_.Read(updated.key_index);
    status_.Write(updated.key_index, 0);
    size_t size = value_size_.Read(updated.key_index);
    Value v = ps.values.ReadValue(move.from.bitmap, move.from.index, size);
    if (!ps.allocator.Commit(move)) {
      status_.Write(updated.key_index, was_valid);
      continue;
    }
    ps.values.WriteValue(move.to.bitmap, move.to.index, v);
    updated.bitmap = move.to.bitmap;
    updated.value_index = static_cast<uint32_t>(move.to.index);
    NC_CHECK(lookup_.ModifyEntry(move.key, updated).ok());
    status_.Write(updated.key_index, was_valid);
    ++moved;
  }
  return moved;
}

std::vector<std::pair<Key, Value>> NetCacheSwitch::DrainDirty() {
  std::vector<std::pair<Key, Value>> out;
  if (!config_.write_back) {
    return out;
  }
  lookup_.ForEachEntry([this, &out](const Key& key, const CacheAction& action) {
    if (dirty_.Read(action.key_index) != 0) {
      size_t size = value_size_.Read(action.key_index);
      out.emplace_back(key,
                       pipes_[action.pipe].values.ReadValue(action.bitmap, action.value_index,
                                                            size));
      dirty_.Write(action.key_index, 0);
    }
  });
  return out;
}

bool NetCacheSwitch::IsDirty(const Key& key) const {
  const CacheAction* action = lookup_.Match(key);
  return action != nullptr && dirty_.Read(action->key_index) != 0;
}

uint32_t NetCacheSwitch::ReadCounterFor(const Key& key) const {
  const CacheAction* action = lookup_.Match(key);
  if (action == nullptr) {
    return 0;
  }
  return stats_.ReadCounter(action->key_index);
}

std::vector<std::pair<Key, uint32_t>> NetCacheSwitch::ReadCacheCounters() const {
  std::vector<std::pair<Key, uint32_t>> out;
  out.reserve(lookup_.size());
  lookup_.ForEachEntry([&](const Key& key, const CacheAction& action) {
    out.emplace_back(key, stats_.ReadCounter(action.key_index));
  });
  return out;
}

bool NetCacheSwitch::IsValid(const Key& key) const {
  const CacheAction* action = lookup_.Match(key);
  return action != nullptr && status_.Read(action->key_index) != 0;
}

Result<Value> NetCacheSwitch::ReadCachedValue(const Key& key) const {
  const CacheAction* action = lookup_.Match(key);
  if (action == nullptr) {
    return Status::NotFound("key not cached");
  }
  size_t size = value_size_.Read(action->key_index);
  return pipes_[action->pipe].values.ReadValue(action->bitmap, action->value_index, size);
}

std::vector<Key> NetCacheSwitch::CachedKeys() const {
  std::vector<Key> keys;
  keys.reserve(lookup_.size());
  lookup_.ForEachEntry([&keys](const Key& key, const CacheAction&) { keys.push_back(key); });
  return keys;
}

std::optional<CacheAction> NetCacheSwitch::LookupAction(const Key& key) const {
  const CacheAction* action = lookup_.Match(key);
  if (action == nullptr) {
    return std::nullopt;
  }
  return *action;
}

Status NetCacheSwitch::CheckInvariants() const {
  // Key-index accounting: live entries + free list must cover the capacity.
  if (lookup_.size() + free_key_indexes_.size() != config_.cache_capacity) {
    return Status::Internal("key-index leak: live + free != capacity");
  }
  std::vector<uint8_t> index_used(config_.cache_capacity, 0);
  for (uint32_t idx : free_key_indexes_) {
    if (idx >= config_.cache_capacity || index_used[idx]) {
      return Status::Internal("free list corrupt");
    }
    index_used[idx] = 1;
  }
  Status failure = Status::Ok();
  std::vector<size_t> pipe_items(pipes_.size(), 0);
  lookup_.ForEachEntry([&](const Key& key, const CacheAction& action) {
    if (!failure.ok()) {
      return;
    }
    if (action.key_index >= config_.cache_capacity || index_used[action.key_index]) {
      failure = Status::Internal("key index double-used or out of range");
      return;
    }
    index_used[action.key_index] = 1;
    if (action.pipe >= pipes_.size()) {
      failure = Status::Internal("bad pipe in action data");
      return;
    }
    ++pipe_items[action.pipe];
    // The lookup action must agree with the pipe allocator's record.
    auto alloc = pipes_[action.pipe].allocator.Lookup(key);
    if (!alloc.has_value() || alloc->index != action.value_index ||
        alloc->bitmap != action.bitmap) {
      failure = Status::Internal("lookup action disagrees with slot allocator");
      return;
    }
    // Stored size must fit the allocated units.
    size_t size = value_size_.Read(action.key_index);
    if (size > static_cast<size_t>(std::popcount(action.bitmap)) * kValueUnitSize) {
      failure = Status::Internal("value size exceeds allocated slots");
    }
  });
  if (!failure.ok()) {
    return failure;
  }
  for (size_t p = 0; p < pipes_.size(); ++p) {
    if (pipes_[p].allocator.num_items() != pipe_items[p]) {
      return Status::Internal("allocator holds items absent from the lookup table");
    }
    // Deep audit of the Alg-2 bookkeeping itself: no double-assigned slots,
    // free bits really free, no leaked slots.
    Status alloc_ok = pipes_[p].allocator.CheckConsistency();
    if (!alloc_ok.ok()) {
      return alloc_ok;
    }
  }
  return Status::Ok();
}

void NetCacheSwitch::ClearCache() {
  CheckNotInHotReport();
  std::vector<Key> keys;
  keys.reserve(lookup_.size());
  lookup_.ForEachEntry([&keys](const Key& key, const CacheAction&) { keys.push_back(key); });
  for (const Key& key : keys) {
    NC_CHECK(EvictCacheEntry(key).ok());
  }
  stats_.ResetEpoch();
}

void NetCacheSwitch::RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                                     MetricsRegistry::Labels labels) const {
  const SwitchCounters& c = counters_;
  registry.AddCounter(prefix + ".packets", &c.packets, labels);
  registry.AddCounter(prefix + ".netcache_queries", &c.netcache_queries, labels);
  registry.AddCounter(prefix + ".reads", &c.reads, labels);
  registry.AddCounter(prefix + ".writes", &c.writes, labels);
  registry.AddCounter(prefix + ".cache_hits", &c.cache_hits, labels);
  registry.AddCounter(prefix + ".cache_invalid", &c.cache_invalid, labels);
  registry.AddCounter(prefix + ".cache_misses", &c.cache_misses, labels);
  registry.AddCounter(prefix + ".invalidations", &c.invalidations, labels);
  registry.AddCounter(prefix + ".cache_updates", &c.cache_updates, labels);
  registry.AddCounter(prefix + ".update_rejects", &c.update_rejects, labels);
  registry.AddCounter(prefix + ".write_back_hits", &c.write_back_hits, labels);
  registry.AddCounter(prefix + ".hot_reports", &c.hot_reports, labels);
  registry.AddCounter(prefix + ".forwarded", &c.forwarded, labels);
  registry.AddCounter(prefix + ".unroutable", &c.unroutable, labels);
  registry.AddCounter(prefix + ".ttl_drops", &c.ttl_drops, labels);
  registry.AddCounter(prefix + ".pipe_overload_drops", &c.pipe_overload_drops, labels);
  registry.AddGauge(
      prefix + ".cache_size", [this] { return static_cast<double>(lookup_.size()); }, labels);
  registry.AddGauge(
      prefix + ".cache_capacity",
      [this] { return static_cast<double>(config_.cache_capacity); }, labels);
  stats_.RegisterMetrics(registry, prefix + ".stats", labels);
}

ResourceReport NetCacheSwitch::Resources() const {
  ResourceReport r;
  r.lookup_entries = lookup_.size();
  r.lookup_capacity = lookup_.capacity();
  // Per entry: 16-byte key match + action data (bitmap 8b + value index 17b +
  // key index 17b + pipe 2b + overhead), rounded to 24 bytes; replicated in
  // every ingress pipe (§4.4.4).
  r.lookup_bits = lookup_.capacity() * 24 * 8 * config_.num_pipes;
  for (const auto& pipe : pipes_) {
    r.value_bits += pipe.values.MemoryBits();
  }
  r.status_bits = status_.size() * 1;  // 1 valid bit per entry in hardware
  r.size_reg_bits = value_size_.MemoryBits();
  r.counter_bits = config_.stats.counter_slots * 16;
  r.sketch_bits = config_.stats.hh.sketch_depth * config_.stats.hh.sketch_width * 16;
  r.bloom_bits = config_.stats.hh.bloom_hashes * config_.stats.hh.bloom_bits;
  r.total_bits = r.lookup_bits + r.value_bits + r.status_bits + r.size_reg_bits +
                 r.counter_bits + r.sketch_bits + r.bloom_bits;
  return r;
}

}  // namespace netcache
