#include "sketch/heavy_hitter.h"

#include <string>

namespace netcache {

HeavyHitterDetector::HeavyHitterDetector(const HeavyHitterConfig& config)
    : config_(config),
      sketch_(config.sketch_depth, config.sketch_width, config.seed),
      bloom_(config.bloom_hashes, config.bloom_bits, config.seed ^ 0xb100f117ull),
      rng_(config.seed ^ 0x5a3dull) {}

bool HeavyHitterDetector::Offer(const Key& key, const KeyDigest& digest) {
  // Sampling acts as a high-pass filter in front of the sketch (§4.4.3).
  if (config_.sample_rate < 1.0 && !rng_.NextBernoulli(config_.sample_rate)) {
    return false;
  }
  uint32_t estimate = sketch_.Update(digest);
  if (shadow_enabled_) {
    ++shadow_counts_[key];
  }
  if (estimate < config_.hot_threshold) {
    return false;
  }
  // Above threshold: report only if the Bloom filter has not seen it. The
  // filter stays set for the rest of the epoch, so each hot key is reported
  // once (§4.4.3).
  bool seen = bloom_.TestAndSet(digest);
  if (shadow_enabled_) {
    shadow_bloom_.insert(key);
    if (!seen) {
      shadow_reports_.emplace(key, ReportRecord{estimate, config_.hot_threshold});
    }
  }
  return !seen;
}

void HeavyHitterDetector::Reset() {
  sketch_.Reset();
  bloom_.Reset();
  shadow_counts_.clear();
  shadow_bloom_.clear();
  shadow_reports_.clear();
}

bool HeavyHitterDetector::CheckSoundness(std::vector<std::string>* problems) const {
  size_t before = problems->size();
  // CM sketch may only over-count: the estimate is >= the true sampled count
  // (capped at the 16-bit counter saturation point).
  constexpr uint64_t kSaturation = 0xffff;
  for (const auto& [key, count] : shadow_counts_) {
    uint64_t expected = count < kSaturation ? count : kSaturation;
    uint32_t estimate = sketch_.Estimate(key);
    if (estimate < expected) {
      problems->push_back("count-min undercount for key " + key.ToHex() + ": estimate " +
                          std::to_string(estimate) + " < true sampled count " +
                          std::to_string(expected));
    }
  }
  // Bloom filter never false-negatives on a key that was inserted.
  for (const Key& key : shadow_bloom_) {
    if (!bloom_.Test(key)) {
      problems->push_back("bloom false negative for inserted key " + key.ToHex());
    }
  }
  // Every reported hot key crossed the threshold in force when reported.
  for (const auto& [key, record] : shadow_reports_) {
    if (record.estimate < record.threshold) {
      problems->push_back("hot report below threshold for key " + key.ToHex() +
                          ": estimate " + std::to_string(record.estimate) + " < threshold " +
                          std::to_string(record.threshold));
    }
  }
  return problems->size() == before;
}

}  // namespace netcache
