#include "controller/cache_controller.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace netcache {

CacheController::CacheController(Simulator* sim, NetCacheSwitch* sw,
                                 const ControllerConfig& config,
                                 std::function<IpAddress(const Key&)> owner_of)
    : sim_(sim), switch_(sw), config_(config), owner_of_(std::move(owner_of)),
      rng_(config.seed) {
  NC_CHECK(sim != nullptr && sw != nullptr);
  NC_CHECK(config.cache_capacity <= sw->CacheCapacity())
      << "controller target exceeds switch lookup table";
}

void CacheController::RegisterServer(IpAddress ip, StorageServer* server) {
  servers_[ip] = server;
  // The reject packet is delivered on the owning server's LP stream; the
  // controller's reaction (switch eviction + re-insert queueing) crosses
  // partitions, so it is deferred one control-plane operation onto the
  // global stream rather than run inline in the server's window. That keeps
  // reject delivery parallel and models the ToR-to-controller notification
  // latency that a real deployment would pay anyway.
  server->SetUpdateRejectHandler([this](const Key& key, const Value& value) {
    sim_->ScheduleGlobal(config_.control_op_latency,
                         [this, key, value] { OnUpdateReject(key, value); });
  });
}

void CacheController::Start() {
  NC_CHECK(!started_);
  started_ = true;
  switch_->SetHotReportHandler(
      [this](const Key& key, uint32_t estimate) { OnHotReport(key, estimate); });
  ScheduleEpochReset();
  if (switch_->config().write_back) {
    ScheduleDirtyFlush();
  }
}

void CacheController::ScheduleDirtyFlush() {
  // Global stream: the flush walks the switch and any owner server.
  sim_->ScheduleGlobal(config_.write_back_flush_interval, [this] {
    FlushDirtyEntries();
    ScheduleDirtyFlush();
  });
}

void CacheController::FlushDirtyEntries() {
  for (const auto& [key, value] : switch_->DrainDirty()) {
    auto it = servers_.find(owner_of_(key));
    if (it != servers_.end()) {
      it->second->ControlApply(key, value);
      ++stats_.dirty_flushes;
    }
  }
}

void CacheController::ScheduleEpochReset() {
  // Global stream: the reset reaches into the switch's statistics.
  sim_->ScheduleGlobal(config_.stats_epoch, [this] {
    // Retune the heavy-hitter threshold from this epoch's report volume
    // before clearing (§4.4.3: thresholds are controller-configured).
    if (config_.target_reports_per_epoch > 0) {
      uint64_t reports = stats_.reports_received - reports_at_epoch_start_;
      uint32_t threshold = switch_->config().stats.hh.hot_threshold;
      // Read back the live value if we tuned before.
      if (tuned_threshold_ != 0) {
        threshold = tuned_threshold_;
      }
      if (reports > 2 * config_.target_reports_per_epoch) {
        tuned_threshold_ = threshold * 2;
        switch_->SetHotThreshold(tuned_threshold_);
        ++stats_.threshold_raises;
      } else if (reports < config_.target_reports_per_epoch / 2 && threshold > 2) {
        tuned_threshold_ = threshold / 2;
        switch_->SetHotThreshold(tuned_threshold_);
        ++stats_.threshold_drops;
      }
      reports_at_epoch_start_ = stats_.reports_received;
    }
    // One control-plane pass clears counters, sketch and Bloom filter
    // (§4.4.3); then the next epoch begins.
    switch_->ResetStatistics();
    ++stats_.epochs;
    ScheduleEpochReset();
  });
}

void CacheController::Warm(const std::vector<Key>& keys) {
  for (const Key& key : keys) {
    if (cached_index_.count(key) != 0) {
      continue;
    }
    if (cached_keys_.size() >= config_.cache_capacity) {
      break;
    }
    if (InsertKey(key)) {
      ++stats_.insertions;
    }
  }
}

void CacheController::OnSwitchReboot() {
  cached_keys_.clear();
  cached_index_.clear();
  work_.clear();
}

void CacheController::OnHotReport(const Key& key, uint32_t estimate) {
  ++stats_.reports_received;
  work_.push_back(Candidate{key, estimate, /*is_reject_reinsert=*/false});
  PumpQueue();
}

void CacheController::OnUpdateReject(const Key& key, const Value& /*value*/) {
  // The cached copy is stale+invalid and too small for the new value: evict
  // now (reads fall through to the server, which is correct), and queue a
  // re-insertion that will fetch the value fresh when it executes.
  EvictKey(key);
  ++stats_.reject_reinserts;
  work_.push_back(Candidate{key, 0, /*is_reject_reinsert=*/true});
  PumpQueue();
}

void CacheController::PumpQueue() {
  if (pumping_ || work_.empty()) {
    return;
  }
  pumping_ = true;
  // Each queued decision costs one control-plane operation interval; this is
  // the update-rate bottleneck of §4.3.
  // Global stream: cache insertions/evictions touch the switch and the
  // owner server, which live in different partitions. OnHotReport calls
  // PumpQueue from the reporting switch's partition, so this must be
  // explicit (and control_op_latency must exceed the lookahead, which any
  // physical control-plane latency does).
  sim_->ScheduleGlobal(config_.control_op_latency, [this] {
    if (!work_.empty()) {
      Candidate c = work_.front();
      work_.pop_front();
      ProcessCandidate(c);
    }
    pumping_ = false;
    PumpQueue();
  });
}

void CacheController::ProcessCandidate(const Candidate& candidate) {
  const Key& key = candidate.key;
  if (switch_->IsCached(key)) {
    if (switch_->IsValid(key)) {
      ++stats_.reports_ignored;
      return;
    }
    // Cached but persistently invalid (e.g. the server never refreshed it,
    // as under write-around): a dead entry that still attracts reports.
    // Re-install it with a fresh value.
    EvictKey(key);
  }
  if (cached_keys_.size() >= config_.cache_capacity) {
    if (candidate.is_reject_reinsert) {
      // A rejected update's key was just evicted by us; always bring it back
      // if it is still being written/read — here we simply re-insert.
    } else {
      std::optional<Victim> victim = PickVictim();
      if (!victim.has_value()) {
        ++stats_.reports_ignored;
        return;
      }
      // Insert only if the reported key is hotter than the sampled victim
      // (§4.3: "evicts less popular keys, and inserts more popular keys").
      if (candidate.estimate <= victim->counter) {
        ++stats_.reports_ignored;
        return;
      }
      EvictKey(victim->key);
    }
    if (cached_keys_.size() >= config_.cache_capacity) {
      ++stats_.reports_ignored;
      return;
    }
  }
  if (InsertKey(key)) {
    ++stats_.insertions;
  } else {
    ++stats_.insertion_failures;
  }
}

bool CacheController::InsertKey(const Key& key) {
  IpAddress owner = owner_of_(key);
  auto server_it = servers_.find(owner);
  if (server_it == servers_.end()) {
    NC_LOG(WARN) << "controller: no server registered for owner of key";
    return false;
  }
  StorageServer* server = server_it->second;

  // §4.3 insertion coherence: writes to the key wait at the server until the
  // switch entry is live.
  server->BlockWrites(key);
  Result<Value> value = server->ControlFetch(key);
  if (!value.ok()) {
    // Key vanished (deleted) between report and insertion.
    server->UnblockWrites(key);
    return false;
  }

  Status st = switch_->InsertCacheEntry(key, *value, owner);
  if (st.code() == StatusCode::kResourceExhausted && switch_->CacheSize() < switch_->CacheCapacity()) {
    // Value memory fragmentation: run Alg-2 reorganization in the owning
    // pipe, then retry once.
    auto route = switch_->RouteOf(owner);
    if (route.has_value()) {
      size_t pipe = *route / switch_->config().ports_per_pipe;
      size_t moves = switch_->Defragment(pipe, value->NumUnits());
      stats_.defrag_moves += moves;
      if (moves > 0) {
        st = switch_->InsertCacheEntry(key, *value, owner);
      }
    }
  }
  server->UnblockWrites(key);
  if (!st.ok()) {
    return false;
  }
  TrackInsert(key);
  return true;
}

void CacheController::EvictKey(const Key& key) {
  // Write-back mode: never drop a dirty value — flush it home first (§5).
  if (switch_->config().write_back && switch_->IsDirty(key)) {
    Result<Value> value = switch_->ReadCachedValue(key);
    auto it = servers_.find(owner_of_(key));
    if (value.ok() && it != servers_.end()) {
      it->second->ControlApply(key, *value);
      ++stats_.dirty_flushes;
    }
  }
  if (switch_->EvictCacheEntry(key).ok()) {
    ++stats_.evictions;
  }
  TrackEvict(key);
}

std::optional<CacheController::Victim> CacheController::PickVictim() {
  if (cached_keys_.empty()) {
    return std::nullopt;
  }
  Victim best;
  bool have = false;
  auto consider = [&](const Key& key) {
    uint32_t counter = switch_->ReadCounterFor(key);
    if (!have || counter < best.counter) {
      best = Victim{key, counter};
      have = true;
    }
  };
  if (config_.eviction_sample_size >= cached_keys_.size()) {
    // Small cache: scanning everything is cheaper than sampling.
    for (const Key& key : cached_keys_) {
      consider(key);
    }
  } else {
    // Redis-style sampling with replacement (§4.3).
    for (size_t i = 0; i < config_.eviction_sample_size; ++i) {
      consider(cached_keys_[rng_.NextBounded(cached_keys_.size())]);
    }
  }
  return best;
}

void CacheController::TrackInsert(const Key& key) {
  cached_index_[key] = cached_keys_.size();
  cached_keys_.push_back(key);
}

void CacheController::TrackEvict(const Key& key) {
  auto it = cached_index_.find(key);
  if (it == cached_index_.end()) {
    return;
  }
  size_t pos = it->second;
  cached_index_.erase(it);
  if (pos != cached_keys_.size() - 1) {
    cached_keys_[pos] = cached_keys_.back();
    cached_index_[cached_keys_[pos]] = pos;
  }
  cached_keys_.pop_back();
}

void CacheController::RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                                      MetricsRegistry::Labels labels) const {
  const ControllerStats& s = stats_;
  registry.AddCounter(prefix + ".reports_received", &s.reports_received, labels);
  registry.AddCounter(prefix + ".reports_ignored", &s.reports_ignored, labels);
  registry.AddCounter(prefix + ".insertions", &s.insertions, labels);
  registry.AddCounter(prefix + ".insertion_failures", &s.insertion_failures, labels);
  registry.AddCounter(prefix + ".evictions", &s.evictions, labels);
  registry.AddCounter(prefix + ".defrag_moves", &s.defrag_moves, labels);
  registry.AddCounter(prefix + ".epochs", &s.epochs, labels);
  registry.AddCounter(prefix + ".reject_reinserts", &s.reject_reinserts, labels);
  registry.AddCounter(prefix + ".dirty_flushes", &s.dirty_flushes, labels);
  registry.AddCounter(prefix + ".threshold_raises", &s.threshold_raises, labels);
  registry.AddCounter(prefix + ".threshold_drops", &s.threshold_drops, labels);
  registry.AddGauge(
      prefix + ".cached_keys", [this] { return static_cast<double>(cached_keys_.size()); },
      labels);
  registry.AddGauge(
      prefix + ".work_queue", [this] { return static_cast<double>(work_.size()); }, labels);
}

}  // namespace netcache
