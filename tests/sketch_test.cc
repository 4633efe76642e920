// Tests for the query-statistics data structures: Count-Min sketch, Bloom
// filter, counter array, and the composed heavy-hitter detector (Fig 7).

#include <algorithm>
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

TEST(CountMinTest, ConservativeNotAboveStandard) {
  CountMinSketch plain(4, 64, 5);
  CountMinSketch cons(4, 64, 5);
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    uint64_t k = rng.NextBounded(500);
    plain.Update(K(k));
    cons.UpdateConservative(K(k));
  }
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_LE(cons.Estimate(K(k)), plain.Estimate(K(k)));
  }
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
// The batched forms the burst pipeline uses must reproduce the per-digest
// sequence bit-for-bit. Each test runs the batched form against a reference
// driven one digest at a time; the batched digest kernel (common/simd.h) is
// held to KeyDigest::Of.

// 1e5 random digests over a keyspace small enough to force collisions,
// duplicates, and growing counters.
std::vector<KeyDigest> RandomDigests(size_t n, uint64_t seed, uint64_t keyspace) {
  Rng rng(seed);
  std::vector<KeyDigest> digests;
  digests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    digests.push_back(KeyDigest::Of(K(rng.NextBounded(keyspace))));
  }
  return digests;
}

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

TEST(BatchEquivalenceTest, CountMinUpdateBatchMatchesScalarSequence) {
  constexpr size_t kN = 100000;
  std::vector<KeyDigest> digests = RandomDigests(kN, 0x5eed, 5000);
  CountMinSketch batched(4, 4096, 9);
  CountMinSketch reference(4, 4096, 9);

  std::vector<uint32_t> batch_min(kN);
  constexpr size_t kBurst = 32;
  for (size_t i = 0; i < kN; i += kBurst) {
    size_t n = std::min(kBurst, kN - i);
    batched.UpdateBatch(digests.data() + i, n, batch_min.data() + i);
  }
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(batch_min[i], reference.Update(digests[i])) << i;
  }
  for (uint64_t k = 0; k < 5000; ++k) {
    KeyDigest d = KeyDigest::Of(K(k));
    ASSERT_EQ(batched.Estimate(d), reference.Estimate(d)) << k;
  }
}

TEST(BatchEquivalenceTest, CountMinEstimateBatchMatchesScalar) {
  constexpr size_t kN = 100000;
  std::vector<KeyDigest> digests = RandomDigests(kN, 0xe571, 3000);
  CountMinSketch cms(4, 2048, 11);
  cms.UpdateBatch(digests.data(), digests.size(), nullptr);

  std::vector<uint32_t> batch_est(kN);
  cms.EstimateBatch(digests.data(), kN, batch_est.data());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(batch_est[i], cms.Estimate(digests[i])) << i;
  }
}

TEST(BatchEquivalenceTest, CountMinConservativeBatchMatchesScalarSequence) {
  constexpr size_t kN = 100000;
  std::vector<KeyDigest> digests = RandomDigests(kN, 0xc0145, 4000);
  CountMinSketch batched(4, 2048, 13);
  CountMinSketch reference(4, 2048, 13);

  std::vector<uint32_t> batch_out(kN);
  batched.UpdateConservativeBatch(digests.data(), kN, batch_out.data());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(batch_out[i], reference.UpdateConservative(digests[i])) << i;
  }
  for (uint64_t k = 0; k < 4000; ++k) {
    KeyDigest d = KeyDigest::Of(K(k));
    ASSERT_EQ(batched.Estimate(d), reference.Estimate(d)) << k;
  }
}

TEST(BatchEquivalenceTest, CountMinBatchSaturatesExactlyLikeScalar) {
  // Drive one digest across the 16-bit saturation boundary in batches and
  // per-update: both must pin at 0xffff, never wrap.
  CountMinSketch batched(2, 64, 3);
  CountMinSketch reference(2, 64, 3);
  KeyDigest d = KeyDigest::Of(K(42));
  std::vector<KeyDigest> burst(100, d);
  std::vector<uint32_t> batch_min(burst.size());
  uint32_t last_batch = 0;
  for (int rep = 0; rep < 700; ++rep) {  // 70000 updates total
    batched.UpdateBatch(burst.data(), burst.size(), batch_min.data());
    last_batch = batch_min.back();
  }
  uint32_t last_scalar = 0;
  for (int i = 0; i < 70000; ++i) {
    last_scalar = reference.Update(d);
  }
  EXPECT_EQ(last_batch, 0xffffu);
  EXPECT_EQ(last_batch, last_scalar);
  EXPECT_EQ(batched.Estimate(d), reference.Estimate(d));
}

TEST(BatchEquivalenceTest, BloomTestAndSetBatchMatchesScalarSequence) {
  constexpr size_t kN = 100000;
  std::vector<KeyDigest> digests = RandomDigests(kN, 0xb100, 20000);
  BloomFilter batched(3, 4096, 17);
  BloomFilter reference(3, 4096, 17);

  std::vector<bool> already(kN);
  constexpr size_t kBurst = 32;
  for (size_t i = 0; i < kN; i += kBurst) {
    size_t n = std::min(kBurst, kN - i);
    // vector<bool> has no contiguous data(); stage through a small buffer.
    bool out[kBurst];
    batched.TestAndSetBatch(digests.data() + i, n, out);
    for (size_t j = 0; j < n; ++j) {
      already[i + j] = out[j];
    }
  }
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(already[i], reference.TestAndSet(digests[i])) << i;
  }
}

TEST(BatchEquivalenceTest, ColdPrefixCommitsOnlyProvablyColdMisses) {
  HeavyHitterConfig config = SmallHH(8);  // threshold 8
  HeavyHitterDetector batched(config);
  HeavyHitterDetector reference(config);

  // A burst of 6 distinct cold keys: estimates 0, bound 0 + 6 < 8, so the
  // whole run commits and matches six scalar Offers returning false.
  std::vector<Key> keys;
  std::vector<KeyDigest> digests;
  std::vector<const Key*> key_ptrs;
  for (uint64_t k = 0; k < 6; ++k) {
    keys.push_back(K(k));
  }
  for (const Key& k : keys) {
    digests.push_back(KeyDigest::Of(k));
  }
  for (const Key& k : keys) {
    key_ptrs.push_back(&k);
  }
  EXPECT_EQ(batched.OfferBatchColdPrefix(key_ptrs.data(), digests.data(), digests.size()),
            digests.size());
  for (const Key& k : keys) {
    EXPECT_FALSE(reference.Offer(k));
  }
  for (const Key& k : keys) {
    EXPECT_EQ(batched.Estimate(k), reference.Estimate(k));
  }

  // Warm one key to the edge: after 7 offers of K(0), a burst starting with
  // K(0) has pre-estimate 7 and bound 7 + n >= 8, so the prefix is empty and
  // the caller must run the scalar path (which does report).
  for (int i = 0; i < 7; ++i) {
    batched.Offer(K(100));
  }
  std::vector<Key> warm = {K(100), K(101)};
  std::vector<KeyDigest> warm_digests = {KeyDigest::Of(warm[0]), KeyDigest::Of(warm[1])};
  std::vector<const Key*> warm_ptrs = {&warm[0], &warm[1]};
  EXPECT_EQ(batched.OfferBatchColdPrefix(warm_ptrs.data(), warm_digests.data(), 2), 0u);
  EXPECT_TRUE(batched.Offer(warm[0]));  // 8th offer crosses the threshold
}

TEST(BatchEquivalenceTest, ColdPrefixRefusesToBatchWhenSampling) {
  HeavyHitterConfig config = SmallHH(8);
  config.sample_rate = 0.5;  // per-offer RNG draws: batching must bail
  HeavyHitterDetector hh(config);
  Key k = K(5);
  KeyDigest d = KeyDigest::Of(k);
  const Key* kp = &k;
  EXPECT_EQ(hh.OfferBatchColdPrefix(&kp, &d, 1), 0u);
}

}  // namespace
}  // namespace netcache
