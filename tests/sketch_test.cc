// Tests for the query-statistics data structures: Count-Min sketch, Bloom
// filter, counter array, and the composed heavy-hitter detector (Fig 7).

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "sketch/bloom.h"
#include "sketch/count_min.h"
#include "sketch/counter_array.h"
#include "sketch/heavy_hitter.h"

namespace netcache {
namespace {

Key K(uint64_t id) { return Key::FromUint64(id); }

// ------------------------------------------------------------ CountMin

TEST(CountMinTest, CountsSingleKey) {
  CountMinSketch cms(4, 1024, 1);
  for (int i = 0; i < 10; ++i) {
    cms.Update(K(1));
  }
  EXPECT_EQ(cms.Estimate(K(1)), 10u);
}

TEST(CountMinTest, NeverUndercounts) {
  // The defining CMS property: estimate >= true count.
  CountMinSketch cms(4, 512, 2);
  Rng rng(6);
  std::vector<uint32_t> truth(200, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = rng.NextBounded(200);
    ++truth[k];
    cms.Update(K(k));
  }
  for (uint64_t k = 0; k < 200; ++k) {
    EXPECT_GE(cms.Estimate(K(k)), truth[k]) << k;
  }
}

TEST(CountMinTest, OvercountBounded) {
  // With width >> distinct keys, estimates should be near-exact.
  CountMinSketch cms(4, 64 * 1024, 3);
  Rng rng(7);
  std::vector<uint32_t> truth(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    uint64_t k = rng.NextBounded(1000);
    ++truth[k];
    cms.Update(K(k));
  }
  uint64_t total_error = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    total_error += cms.Estimate(K(k)) - truth[k];
  }
  EXPECT_LT(total_error, 100u);  // essentially collision-free
}

TEST(CountMinTest, UpdateReturnsPostEstimate) {
  CountMinSketch cms(4, 1024, 4);
  EXPECT_EQ(cms.Update(K(9)), 1u);
  EXPECT_EQ(cms.Update(K(9)), 2u);
}

TEST(CountMinTest, ResetClears) {
  CountMinSketch cms(4, 256, 6);
  cms.Update(K(1));
  cms.Reset();
  EXPECT_EQ(cms.Estimate(K(1)), 0u);
}

TEST(CountMinTest, SaturatesAt16Bits) {
  CountMinSketch cms(1, 4, 7);
  for (int i = 0; i < 70000; ++i) {
    cms.Update(K(1));
  }
  EXPECT_EQ(cms.Estimate(K(1)), 65535u);  // saturating, no wraparound
}

TEST(CountMinTest, PrototypeDimensionsMemory) {
  // §6: 4 register arrays x 64K x 16-bit = 512 KB.
  CountMinSketch cms(4, 64 * 1024, 8);
  EXPECT_EQ(cms.MemoryBits(), 4u * 64 * 1024 * 16);
}

// ------------------------------------------------------------ Bloom

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bf(3, 4096, 1);
  for (uint64_t k = 0; k < 500; ++k) {
    bf.Insert(K(k));
  }
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_TRUE(bf.Test(K(k)));
  }
}

TEST(BloomTest, LowFalsePositiveWhenSparse) {
  BloomFilter bf(3, 256 * 1024, 2);
  for (uint64_t k = 0; k < 10000; ++k) {
    bf.Insert(K(k));
  }
  int fp = 0;
  for (uint64_t k = 1000000; k < 1010000; ++k) {
    fp += bf.Test(K(k)) ? 1 : 0;
  }
  // ~ (10000/262144)^3 ~ 5.5e-5 expected; allow generous slack.
  EXPECT_LT(fp, 20);
}

TEST(BloomTest, TestAndSetReportsPriorState) {
  BloomFilter bf(3, 1024, 3);
  EXPECT_FALSE(bf.TestAndSet(K(1)));
  EXPECT_TRUE(bf.TestAndSet(K(1)));
}

TEST(BloomTest, ResetClears) {
  BloomFilter bf(3, 1024, 4);
  bf.Insert(K(1));
  bf.Reset();
  EXPECT_FALSE(bf.Test(K(1)));
  EXPECT_DOUBLE_EQ(bf.FillRatio(0), 0.0);
}

TEST(BloomTest, FillRatioGrows) {
  BloomFilter bf(3, 1024, 5);
  for (uint64_t k = 0; k < 300; ++k) {
    bf.Insert(K(k));
  }
  EXPECT_GT(bf.FillRatio(0), 0.2);
  EXPECT_LT(bf.FillRatio(0), 0.35);
}

TEST(BloomTest, PrototypeDimensionsMemory) {
  // §6: 3 register arrays x 256K x 1-bit.
  BloomFilter bf(3, 256 * 1024, 6);
  EXPECT_EQ(bf.MemoryBits(), 3u * 256 * 1024);
}

// ------------------------------------------------------------ CounterArray

TEST(CounterArrayTest, IncrementAndClear) {
  CounterArray c(16);
  EXPECT_EQ(c.Increment(3), 1u);
  EXPECT_EQ(c.Increment(3), 2u);
  EXPECT_EQ(c.Get(3), 2u);
  c.Clear(3);
  EXPECT_EQ(c.Get(3), 0u);
}

TEST(CounterArrayTest, Saturates) {
  CounterArray c(1);
  for (int i = 0; i < 70000; ++i) {
    c.Increment(0);
  }
  EXPECT_EQ(c.Get(0), 65535u);
}

TEST(CounterArrayTest, ResetAll) {
  CounterArray c(8);
  c.Increment(0);
  c.Increment(7);
  c.Reset();
  EXPECT_EQ(c.Get(0), 0u);
  EXPECT_EQ(c.Get(7), 0u);
}

// ------------------------------------------------------------ HeavyHitter

HeavyHitterConfig SmallHH(uint32_t threshold) {
  HeavyHitterConfig cfg;
  cfg.sketch_depth = 4;
  cfg.sketch_width = 4096;
  cfg.bloom_hashes = 3;
  cfg.bloom_bits = 8192;
  cfg.hot_threshold = threshold;
  return cfg;
}

TEST(HeavyHitterTest, ReportsExactlyOnceAtThreshold) {
  HeavyHitterDetector hh(SmallHH(10));
  int reports = 0;
  for (int i = 0; i < 100; ++i) {
    reports += hh.Offer(K(1)) ? 1 : 0;
  }
  EXPECT_EQ(reports, 1);  // Bloom filter dedups subsequent crossings
}

TEST(HeavyHitterTest, ColdKeysNeverReported) {
  HeavyHitterDetector hh(SmallHH(50));
  int reports = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    reports += hh.Offer(K(k)) ? 1 : 0;  // each key touched once
  }
  EXPECT_EQ(reports, 0);
}

TEST(HeavyHitterTest, HotKeysAmongColdTrafficDetected) {
  HeavyHitterDetector hh(SmallHH(100));
  Rng rng(10);
  int hot_reports = 0;
  for (int i = 0; i < 60000; ++i) {
    uint64_t k = rng.NextBounded(10) == 0 ? 1 : 100 + rng.NextBounded(5000);
    bool r = hh.Offer(K(k));
    if (r && K(1) == K(k)) {
      ++hot_reports;
    }
  }
  EXPECT_EQ(hot_reports, 1);
}

TEST(HeavyHitterTest, ResetReenablesReporting) {
  HeavyHitterDetector hh(SmallHH(5));
  int reports = 0;
  for (int i = 0; i < 10; ++i) {
    reports += hh.Offer(K(1)) ? 1 : 0;
  }
  hh.Reset();
  for (int i = 0; i < 10; ++i) {
    reports += hh.Offer(K(1)) ? 1 : 0;
  }
  EXPECT_EQ(reports, 2);  // once per epoch
}

TEST(HeavyHitterTest, SamplingReducesCounts) {
  HeavyHitterConfig cfg = SmallHH(1000000);  // never report
  cfg.sample_rate = 0.1;
  HeavyHitterDetector hh(cfg);
  for (int i = 0; i < 10000; ++i) {
    hh.Offer(K(1));
  }
  uint32_t est = hh.Estimate(K(1));
  EXPECT_GT(est, 700u);
  EXPECT_LT(est, 1300u);  // ~10% of 10000
}

TEST(HeavyHitterTest, ThresholdTunableAtRuntime) {
  HeavyHitterDetector hh(SmallHH(1000));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(hh.Offer(K(2)));
  }
  hh.set_hot_threshold(10);
  EXPECT_TRUE(hh.Offer(K(2)));  // now above threshold -> first report
}

// ------------------------------------------------ batch bit-equivalence
//
// The burst pipeline's batched digest kernel (common/simd.h) must reproduce
// KeyDigest::Of bit-for-bit.

TEST(BatchEquivalenceTest, DigestGatherMatchesKeyDigestOf) {
  Rng rng(0xd16e58);
  constexpr size_t kKeys = 997;
  std::vector<Key> keys(kKeys);
  for (auto& k : keys) {
    for (auto& b : k.bytes) {
      b = static_cast<uint8_t>(rng.Next());
    }
  }
  // Gather through shuffled pointers so lane order != memory order.
  std::vector<const uint8_t*> ptrs(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    ptrs[i] = keys[(i * 7) % kKeys].bytes.data();
  }
  std::vector<uint64_t> h1(kKeys), h2(kKeys);
  simd::DigestGather16(ptrs.data(), kKeys, h1.data(), h2.data());
  for (size_t i = 0; i < kKeys; ++i) {
    KeyDigest want = KeyDigest::Of(keys[(i * 7) % kKeys]);
    ASSERT_EQ(h1[i], want.h1) << i;
    ASSERT_EQ(h2[i], want.h2) << i;
  }
}

}  // namespace
}  // namespace netcache
