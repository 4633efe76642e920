#include "dataplane/stats.h"

namespace netcache {

namespace {

HeavyHitterConfig DetectorConfig(const StatsConfig& config) {
  // The module-level sampler replaces the detector's internal one.
  HeavyHitterConfig hh = config.hh;
  hh.sample_rate = 1.0;
  return hh;
}

}  // namespace

QueryStatistics::QueryStatistics(const StatsConfig& config)
    : sample_rate_(config.sample_rate),
      counters_(config.counter_slots),
      hh_(DetectorConfig(config)),
      rng_(config.seed) {}

void QueryStatistics::OnCachedRead(size_t key_index) {
  if (Sampled()) {
    counters_.Increment(key_index);
  }
}

void QueryStatistics::ResetEpoch() {
  counters_.Reset();
  hh_.Reset();
}

void QueryStatistics::RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                                      MetricsRegistry::Labels labels) const {
  registry.AddCounter(prefix + ".sampled", &activity_.sampled, labels);
  registry.AddCounter(prefix + ".skipped", &activity_.skipped, labels);
  registry.AddCounter(prefix + ".reports", &activity_.reports, labels);
  registry.AddGauge(
      prefix + ".sample_rate", [this] { return sample_rate_; }, labels);
  registry.AddGauge(
      prefix + ".hot_threshold", [this] { return static_cast<double>(hh_.hot_threshold()); },
      labels);
}

}  // namespace netcache
