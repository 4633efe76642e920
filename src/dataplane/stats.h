// Query-statistics module in the switch data plane (paper Fig 7, §4.4.3).
//
//   sampled? --+--> cached key  --> per-key counter (16-bit register array)
//              +--> uncached key --> Count-Min sketch -> threshold -> Bloom
//                                                      -> report once
//
// The sampler sits in front of *both* paths, acting as a high-pass filter so
// 16-bit slots suffice. The controller reads/clears everything each epoch and
// can retune the sample rate and hot threshold at runtime.

#ifndef NETCACHE_DATAPLANE_STATS_H_
#define NETCACHE_DATAPLANE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "sketch/counter_array.h"
#include "sketch/heavy_hitter.h"

namespace netcache {

struct StatsConfig {
  size_t counter_slots = 64 * 1024;  // one per cache-lookup entry
  HeavyHitterConfig hh;
  double sample_rate = 1.0;  // applied before both counter and sketch
  uint64_t seed = 0x57415453;
};

class QueryStatistics {
 public:
  explicit QueryStatistics(const StatsConfig& config);

  // Cache-hit path: bump the cached item's counter. (Alg 1 line 5)
  void OnCachedRead(size_t key_index);

  // Miss path: feed the heavy-hitter detector. Returns true when the key
  // crossed the hot threshold for the first time this epoch and should be
  // reported to the controller. (Alg 1 lines 7-9) The digest overload is the
  // fast path; the key rides along for shadow ground-truth tracking. Defined
  // here so the switch's in-order burst pass inlines it for every miss.
  bool OnUncachedRead(const Key& key) { return OnUncachedRead(key, KeyDigest::Of(key)); }
  bool OnUncachedRead(const Key& key, const KeyDigest& digest) {
    if (!Sampled()) {
      return false;
    }
    bool report = hh_.Offer(key, digest);
    if (report) {
      ++activity_.reports;
    }
    return report;
  }

  // Burst-pipeline prefetch hooks: warm the cached-read counter slot or the
  // Count-Min rows before the corresponding On*Read call.
  void PrefetchCounter(size_t key_index) const { counters_.Prefetch(key_index); }
  void PrefetchUncached(const KeyDigest& digest) const { hh_.PrefetchUncached(digest); }

  uint32_t ReadCounter(size_t key_index) const { return counters_.Get(key_index); }
  void ClearCounter(size_t key_index) { counters_.Clear(key_index); }
  uint32_t SketchEstimate(const Key& key) const { return hh_.Estimate(key); }

  // Epoch reset: clears counters, sketch and Bloom filter (§4.4.3: "All
  // statistics data are cleared periodically by the controller").
  void ResetEpoch();

  void SetSampleRate(double rate) { sample_rate_ = rate; }
  void SetHotThreshold(uint32_t threshold) { hh_.set_hot_threshold(threshold); }
  double sample_rate() const { return sample_rate_; }
  uint32_t hot_threshold() const { return hh_.hot_threshold(); }

  size_t MemoryBits() const { return counters_.MemoryBits() + hh_.MemoryBits(); }

  struct Counters {
    uint64_t sampled = 0;
    uint64_t skipped = 0;
    uint64_t reports = 0;
  };
  const Counters& activity() const { return activity_; }

  // Registers the module's activity counters and tuning knobs under
  // `prefix` (e.g. "switch.stats.sampled"). `this` must outlive `registry`
  // use; counters survive ResetEpoch() (they are totals, not epoch values).
  void RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                       MetricsRegistry::Labels labels = {}) const;

  // ---- sketch-soundness verification (see sketch/heavy_hitter.h) ----
  // Turns on exact shadow tracking inside the heavy-hitter detector so
  // CheckSketchSoundness can prove the Fig-7 guarantees against ground truth.
  void EnableShadowTracking() { hh_.EnableShadowTracking(); }
  bool CheckSketchSoundness(std::vector<std::string>* problems) const {
    return hh_.CheckSoundness(problems);
  }
  const HeavyHitterDetector& detector() const { return hh_; }
  // Test-only: lets the seeded-corruption self-test break the sketch/Bloom
  // state underneath the shadow tracking.
  HeavyHitterDetector& TestOnlyDetector() { return hh_; }

 private:
  bool Sampled() {
    if (sample_rate_ >= 1.0 || rng_.NextBernoulli(sample_rate_)) {
      ++activity_.sampled;
      return true;
    }
    ++activity_.skipped;
    return false;
  }

  double sample_rate_;
  CounterArray counters_;
  HeavyHitterDetector hh_;
  Rng rng_;
  Counters activity_;
};

}  // namespace netcache

#endif  // NETCACHE_DATAPLANE_STATS_H_
