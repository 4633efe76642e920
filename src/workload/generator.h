// Query workload generator (§7.1): Zipf or uniform key popularity, a
// read/write mix where writes follow either a uniform or the same skewed
// distribution, and deterministic per-key filler values.
//
// Key ids are mapped to ranks through a mutable PopularityMap so the dynamic
// workloads (hot-in / random / hot-out) can permute popularity mid-run.

#ifndef NETCACHE_WORKLOAD_GENERATOR_H_
#define NETCACHE_WORKLOAD_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "common/zipf.h"
#include "proto/key.h"
#include "proto/packet.h"
#include "proto/value.h"
#include "workload/popularity.h"

namespace netcache {

struct WorkloadConfig {
  uint64_t num_keys = 1'000'000;
  // Zipf skew for reads; 0 means uniform.
  double zipf_alpha = 0.99;
  // Fraction of queries that are writes (Put).
  double write_ratio = 0.0;
  // Writes follow the same Zipf distribution as reads when true ("skewed
  // writes" in Fig 10(d)); uniform over the keyspace when false.
  bool skewed_writes = false;
  // Value size in bytes for writes and pre-population.
  size_t value_size = 128;
  uint64_t seed = 42;
};

struct Query {
  OpCode op = OpCode::kGet;
  uint64_t key_id = 0;
  Key key{};
  Value value{};  // set for Put
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadConfig& config);

  Query Next();

  // The value every key holds after pre-population; version bumps on writes
  // are tagged so tests can verify read-your-writes.
  static Value ValueFor(uint64_t key_id, size_t value_size, uint64_t version = 0);

  PopularityMap& popularity() { return popularity_; }
  const PopularityMap& popularity() const { return popularity_; }
  const WorkloadConfig& config() const { return config_; }

 private:
  uint64_t SampleRank(Rng& rng) const;

  WorkloadConfig config_;
  PopularityMap popularity_;
  std::optional<ZipfRejectionInversion> zipf_;
  Rng rng_;
  uint64_t write_version_ = 1;
};

}  // namespace netcache

#endif  // NETCACHE_WORKLOAD_GENERATOR_H_
