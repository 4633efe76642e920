// Tests for the capacity-model solvers (single rack + multi rack): sanity
// limits, monotonicity properties, and the qualitative shapes the paper's
// evaluation hinges on.

#include <gtest/gtest.h>

#include "core/multirack.h"
#include "core/saturation.h"

namespace netcache {
namespace {

SaturationConfig Base() {
  SaturationConfig cfg;
  cfg.num_partitions = 32;
  cfg.server_rate_qps = 1e6;
  cfg.num_keys = 1'000'000;
  cfg.zipf_alpha = 0.99;
  cfg.cache_size = 1000;
  cfg.exact_ranks = 65536;
  return cfg;
}

TEST(SaturationTest, UniformWorkloadReachesNearFullCapacity) {
  SaturationConfig cfg = Base();
  cfg.zipf_alpha = 0.0;
  cfg.cache_size = 0;
  SaturationResult r = SolveSaturation(cfg);
  double ideal = cfg.num_partitions * cfg.server_rate_qps;
  EXPECT_GT(r.total_qps, 0.85 * ideal);  // only hash imbalance below ideal
  EXPECT_LE(r.total_qps, ideal * 1.001);
  EXPECT_EQ(r.cache_qps, 0.0);
}

TEST(SaturationTest, SkewCollapsesNoCacheThroughput) {
  SaturationConfig cfg = Base();
  cfg.num_partitions = 128;  // paper scale: collapse is sharper with more servers
  cfg.cache_size = 0;
  SaturationResult skewed = SolveSaturation(cfg);
  cfg.zipf_alpha = 0.0;
  SaturationResult uniform = SolveSaturation(cfg);
  // Paper Fig 10(a): zipf-0.99 NoCache is ~15% of uniform.
  EXPECT_LT(skewed.total_qps, 0.35 * uniform.total_qps);
}

TEST(SaturationTest, CacheRestoresAndExceedsUniformThroughput) {
  SaturationConfig cfg = Base();
  SaturationResult with_cache = SolveSaturation(cfg);
  cfg.cache_size = 0;
  SaturationResult no_cache = SolveSaturation(cfg);
  // Fig 10(a): ~10x at zipf-0.99.
  EXPECT_GT(with_cache.total_qps, 4.0 * no_cache.total_qps);
  EXPECT_GT(with_cache.cache_qps, 0.0);
  EXPECT_GT(with_cache.cache_hit_fraction, 0.3);
  EXPECT_LT(with_cache.cache_hit_fraction, 0.9);
}

TEST(SaturationTest, ThroughputMonotoneInCacheSize) {
  SaturationConfig cfg = Base();
  double prev = 0;
  for (size_t cache : {0ul, 10ul, 100ul, 1000ul, 10000ul}) {
    cfg.cache_size = cache;
    SaturationResult r = SolveSaturation(cfg);
    EXPECT_GE(r.total_qps, prev * 0.999) << "cache=" << cache;
    prev = r.total_qps;
  }
}

TEST(SaturationTest, SmallCacheAlreadyBalances) {
  // Fig 10(e): ~1000 items balance 128 partitions.
  SaturationConfig cfg = Base();
  cfg.num_partitions = 128;
  cfg.cache_size = 1000;
  SaturationResult r = SolveSaturation(cfg);
  double server_ideal = cfg.num_partitions * cfg.server_rate_qps;
  EXPECT_GT(r.server_qps, 0.5 * server_ideal);
}

TEST(SaturationTest, PerServerLoadsBalancedWithCache) {
  SaturationConfig cfg = Base();
  cfg.cache_size = 10000;
  SaturationResult r = SolveSaturation(cfg);
  double min_load = r.per_server_qps[0];
  double max_load = r.per_server_qps[0];
  for (double l : r.per_server_qps) {
    min_load = std::min(min_load, l);
    max_load = std::max(max_load, l);
  }
  EXPECT_LT(max_load / min_load, 1.6);  // Fig 10(b) bottom: near-uniform
}

TEST(SaturationTest, UniformWritesDegradeLinearly) {
  SaturationConfig cfg = Base();
  SaturationResult w0 = SolveSaturation(cfg);
  cfg.write_ratio = 0.5;
  cfg.skewed_writes = false;
  SaturationResult w50 = SolveSaturation(cfg);
  EXPECT_LT(w50.total_qps, w0.total_qps);
  EXPECT_GT(w50.total_qps, 0.2 * w0.total_qps);
}

TEST(SaturationTest, SkewedWriteHeavyKillsCacheBenefit) {
  // Fig 10(d): with skewed writes at ratio >= 0.2, NetCache ~ NoCache.
  SaturationConfig cfg = Base();
  cfg.write_ratio = 0.4;
  cfg.skewed_writes = true;
  SaturationResult cached = SolveSaturation(cfg);
  cfg.cache_size = 0;
  SaturationResult no_cache = SolveSaturation(cfg);
  EXPECT_LT(cached.total_qps, 1.3 * no_cache.total_qps);
}

TEST(SaturationTest, ReadMostlySkewedWritesStillHelped) {
  SaturationConfig cfg = Base();
  cfg.write_ratio = 0.02;
  cfg.skewed_writes = true;
  SaturationResult cached = SolveSaturation(cfg);
  cfg.cache_size = 0;
  SaturationResult no_cache = SolveSaturation(cfg);
  EXPECT_GT(cached.total_qps, 2.0 * no_cache.total_qps);
}

TEST(SaturationTest, SwitchCapacityCanBind) {
  SaturationConfig cfg = Base();
  cfg.switch_capacity_qps = 1e5;  // absurdly small switch
  SaturationResult r = SolveSaturation(cfg);
  EXPECT_EQ(r.limited_by, "switch");
  EXPECT_LE(r.cache_qps, cfg.switch_capacity_qps * 1.001);
}

TEST(SaturationTest, HitFractionBelowHalfAtPaperScale) {
  // §1: NetCache is a load-balancing cache with medium hit ratio (<50%) at
  // zipf-0.99 with 10K cached items over a large keyspace.
  SaturationConfig cfg = Base();
  cfg.num_partitions = 128;
  cfg.cache_size = 10000;
  cfg.num_keys = 100'000'000;
  SaturationResult r = SolveSaturation(cfg);
  EXPECT_LT(r.cache_hit_fraction, 0.55);
  EXPECT_GT(r.cache_hit_fraction, 0.25);
}

TEST(SaturationTest, GoldenRegressionValues) {
  // Pinned outputs for the exact configurations the figure benches use;
  // guards the model against silent behavioural drift. Tolerance 0.5%.
  SaturationConfig cfg;
  cfg.num_partitions = 128;
  cfg.server_rate_qps = 10e6;
  cfg.num_keys = 100'000'000;
  cfg.zipf_alpha = 0.99;
  cfg.cache_size = 10'000;
  cfg.exact_ranks = 262'144;
  EXPECT_NEAR(SolveSaturation(cfg).total_qps, 2.458e9, 0.005 * 2.458e9);
  // Fig 1 (b): one server-class cache front (10 MQPS) is itself the
  // bottleneck, at 0.1x the NoCache total below.
  SaturationConfig front = cfg;
  front.switch_capacity_qps = 10e6;
  SaturationResult front_result = SolveSaturation(front);
  EXPECT_NEAR(front_result.total_qps, 2.03e7, 0.005 * 2.03e7);
  EXPECT_EQ(front_result.limited_by, "switch");
  cfg.cache_size = 0;
  EXPECT_NEAR(SolveSaturation(cfg).total_qps, 1.856e8, 0.005 * 1.856e8);
  cfg.zipf_alpha = 0.0;
  EXPECT_NEAR(SolveSaturation(cfg).total_qps, 1.28e9, 0.005 * 1.28e9);
}

TEST(SaturationTest, WriteBackRemovesSkewedWritePenalty) {
  SaturationConfig cfg = Base();
  cfg.write_ratio = 0.5;
  cfg.skewed_writes = true;
  SaturationResult wt = SolveSaturation(cfg);
  cfg.write_back = true;
  SaturationResult wb = SolveSaturation(cfg);
  EXPECT_GT(wb.total_qps, 5.0 * wt.total_qps);
}

// ------------------------------------------------------------- multi rack

MultiRackConfig MrBase(MultiRackMode mode) {
  MultiRackConfig cfg;
  cfg.num_racks = 8;
  cfg.servers_per_rack = 64;
  cfg.server_rate_qps = 1e6;
  cfg.tor_capacity_qps = 2e7;
  cfg.num_spines = 4;
  cfg.spine_capacity_qps = 5e7;
  cfg.cache_items_per_switch = 2000;
  cfg.num_keys = 10'000'000;
  cfg.exact_ranks = 65536;
  cfg.mode = mode;
  return cfg;
}

TEST(MultiRackTest, OrderingNoCacheLeafSpine) {
  MultiRackResult none = SolveMultiRack(MrBase(MultiRackMode::kNoCache));
  MultiRackResult leaf = SolveMultiRack(MrBase(MultiRackMode::kLeafCache));
  MultiRackResult spine = SolveMultiRack(MrBase(MultiRackMode::kLeafSpineCache));
  EXPECT_GT(leaf.total_qps, none.total_qps);
  EXPECT_GT(spine.total_qps, leaf.total_qps * 1.05);
  EXPECT_EQ(none.tor_qps, 0.0);
  EXPECT_EQ(none.spine_qps, 0.0);
  EXPECT_EQ(leaf.spine_qps, 0.0);
  EXPECT_GT(spine.spine_qps, 0.0);
}

TEST(MultiRackTest, NoCacheDoesNotScaleWithRacks) {
  MultiRackConfig cfg = MrBase(MultiRackMode::kNoCache);
  cfg.num_racks = 2;
  double small = SolveMultiRack(cfg).total_qps;
  cfg.num_racks = 16;
  double large = SolveMultiRack(cfg).total_qps;
  // Fig 10(f): bottlenecked by the hottest server either way.
  EXPECT_LT(large, 1.5 * small);
}

TEST(MultiRackTest, LeafSpineScalesNearLinearly) {
  MultiRackConfig cfg = MrBase(MultiRackMode::kLeafSpineCache);
  cfg.num_racks = 2;
  double small = SolveMultiRack(cfg).total_qps;
  cfg.num_racks = 16;
  cfg.num_spines = 16;  // spine layer scales with the fabric
  double large = SolveMultiRack(cfg).total_qps;
  EXPECT_GT(large, 4.0 * small);
}

TEST(MultiRackTest, LeafCacheLimitedByHotRackTor) {
  MultiRackConfig cfg = MrBase(MultiRackMode::kLeafCache);
  cfg.tor_capacity_qps = 1e6;  // tiny ToR budget
  MultiRackResult r = SolveMultiRack(cfg);
  EXPECT_EQ(r.limited_by, "tor");
}

}  // namespace
}  // namespace netcache
