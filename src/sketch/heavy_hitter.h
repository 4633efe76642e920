// Heavy-hitter detector for uncached keys (paper Fig 7, §4.4.3).
//
// Pipeline per sampled query:
//   sample -> Count-Min update -> threshold compare -> Bloom dedup -> report
//
// The sampler acts as a high-pass filter so that 16-bit counters suffice; the
// Bloom filter guarantees each hot key is reported to the controller at most
// once per statistics epoch. The controller resets all state every epoch.

#ifndef NETCACHE_SKETCH_HEAVY_HITTER_H_
#define NETCACHE_SKETCH_HEAVY_HITTER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "sketch/bloom.h"
#include "sketch/count_min.h"

namespace netcache {

struct HeavyHitterConfig {
  size_t sketch_depth = 4;            // 4 register arrays (§6)
  size_t sketch_width = 64 * 1024;    // 64K 16-bit slots each (§6)
  size_t bloom_hashes = 3;            // 3 register arrays (§6)
  size_t bloom_bits = 256 * 1024;     // 256K 1-bit slots each (§6)
  uint32_t hot_threshold = 128;       // report keys whose sampled count passes this
  double sample_rate = 1.0;           // fraction of queries fed to the sketch
  uint64_t seed = 0x48485345;
};

class HeavyHitterDetector {
 public:
  explicit HeavyHitterDetector(const HeavyHitterConfig& config);

  // Feeds one uncached-read access. Returns true iff this access crosses the
  // hot threshold for the first time this epoch — i.e. the key should be
  // reported to the controller. The digest overload is the fast path; the
  // key is still needed alongside it for shadow ground-truth tracking.
  bool Offer(const Key& key) { return Offer(key, KeyDigest::Of(key)); }
  bool Offer(const Key& key, const KeyDigest& digest);

  // Warms the Count-Min rows a subsequent Offer will touch. The Bloom filter
  // is deliberately not prefetched: it is only probed once the estimate
  // crosses the hot threshold, which is rare on the steady-state miss path.
  void PrefetchUncached(const KeyDigest& digest) const {
    sketch_.PrefetchProbes(digest);
  }

  // Current sketch estimate for a key (sampled counts).
  uint32_t Estimate(const Key& key) const { return sketch_.Estimate(key); }

  // Epoch reset (controller clears statistics every cycle, §4.4.3).
  void Reset();

  // Runtime-tunable knobs (the controller configures both, §4.4.3).
  void set_hot_threshold(uint32_t t) { config_.hot_threshold = t; }
  void set_sample_rate(double r) { config_.sample_rate = r; }
  uint32_t hot_threshold() const { return config_.hot_threshold; }
  double sample_rate() const { return config_.sample_rate; }

  size_t MemoryBits() const { return sketch_.MemoryBits() + bloom_.MemoryBits(); }

  const CountMinSketch& sketch() const { return sketch_; }
  const BloomFilter& bloom() const { return bloom_; }

  // ---- soundness verification (sketch-soundness invariant checker) ----
  //
  // With shadow tracking enabled, the detector keeps exact ground truth next
  // to the probabilistic structures: the true per-key count of sampled
  // offers, the set of keys inserted into the Bloom filter, and the
  // (estimate, threshold) observed at each hot report. CheckSoundness then
  // proves the Fig-7 guarantees: the CM estimate never undercounts, the
  // Bloom filter never false-negatives, and every reported key's estimate
  // really crossed the threshold in force at report time. The shadow state
  // is cleared on Reset() with everything else.
  void EnableShadowTracking() { shadow_enabled_ = true; }
  bool shadow_enabled() const { return shadow_enabled_; }

  // Appends one human-readable message per broken guarantee to `problems`.
  // Returns true when everything is sound.
  bool CheckSoundness(std::vector<std::string>* problems) const;

  // Test-only mutable access, used by the seeded-corruption self-test to
  // break the structures underneath the shadow state.
  CountMinSketch& TestOnlySketch() { return sketch_; }
  BloomFilter& TestOnlyBloom() { return bloom_; }

 private:
  struct ReportRecord {
    uint32_t estimate = 0;   // CM estimate at the moment of the report
    uint32_t threshold = 0;  // hot threshold in force at the moment of the report
  };

  HeavyHitterConfig config_;
  CountMinSketch sketch_;
  BloomFilter bloom_;
  Rng rng_;

  bool shadow_enabled_ = false;
  std::unordered_map<Key, uint64_t, KeyHasher> shadow_counts_;
  std::unordered_set<Key, KeyHasher> shadow_bloom_;
  std::unordered_map<Key, ReportRecord, KeyHasher> shadow_reports_;
};

}  // namespace netcache

#endif  // NETCACHE_SKETCH_HEAVY_HITTER_H_
