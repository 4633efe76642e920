#include "workload/generator.h"

#include "common/logging.h"

namespace netcache {

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config)
    : config_(config), popularity_(config.num_keys), rng_(config.seed) {
  NC_CHECK(config.num_keys > 0);
  NC_CHECK(config.write_ratio >= 0.0 && config.write_ratio <= 1.0);
  if (config.zipf_alpha > 0.0) {
    zipf_.emplace(config.num_keys, config.zipf_alpha);
  }
}

uint64_t WorkloadGenerator::SampleRank(Rng& rng) const {
  if (zipf_.has_value()) {
    return zipf_->Sample(rng);
  }
  return rng.NextBounded(config_.num_keys);
}

Value WorkloadGenerator::ValueFor(uint64_t key_id, size_t value_size, uint64_t version) {
  return Value::Filler(key_id * 0x9e3779b97f4a7c15ull + version, value_size);
}

Query WorkloadGenerator::Next() {
  Query q;
  bool is_write = rng_.NextBernoulli(config_.write_ratio);
  if (is_write && !config_.skewed_writes) {
    // Uniform writes touch the raw keyspace directly.
    q.key_id = rng_.NextBounded(config_.num_keys);
  } else {
    q.key_id = popularity_.KeyAtRank(SampleRank(rng_));
  }
  q.key = Key::FromUint64(q.key_id);
  if (is_write) {
    q.op = OpCode::kPut;
    q.value = ValueFor(q.key_id, config_.value_size, write_version_++);
  } else {
    q.op = OpCode::kGet;
  }
  return q;
}

}  // namespace netcache
