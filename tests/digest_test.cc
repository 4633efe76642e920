// Tests for the per-packet KeyDigest (one-hash-per-packet fast path).
//
// The contract under test: every digest-taking overload on the sketch and
// table layers is *bit-identical* to the legacy Key-taking path, because the
// Key overloads are thin delegates through KeyDigest::Of. These equivalences
// are what let the switch hash each packet exactly once at ingress and reuse
// the digest for CountMin rows, Bloom partitions, match-table probes, and the
// server's core steering.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kvstore/flat_table.h"
#include "proto/key.h"
#include "proto/key_digest.h"
#include "sketch/bloom.h"
#include "sketch/count_min.h"
#include "sketch/counter_array.h"

namespace netcache {
namespace {

constexpr size_t kNumKeys = 100000;

// Random 16-byte keys (all bytes random, not just dense ids) so the digest
// equivalences are exercised across the whole key space.
std::vector<Key> RandomKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Key> keys(n);
  for (Key& k : keys) {
    uint64_t lo = rng.Next();
    uint64_t hi = rng.Next();
    std::memcpy(k.bytes.data(), &lo, sizeof(lo));
    std::memcpy(k.bytes.data() + 8, &hi, sizeof(hi));
  }
  return keys;
}

TEST(KeyDigestTest, H1MatchesKeyHash) {
  // Load-bearing identity: digest.h1 == Key::Hash(), so the digest doubles as
  // the precomputed hash for every KeyHasher-keyed FlatTable.
  for (const Key& key : RandomKeys(kNumKeys, 101)) {
    EXPECT_EQ(KeyDigest::Of(key).h1, key.Hash());
  }
}

TEST(KeyDigestTest, H2AlwaysOdd) {
  // Odd h2 is a unit mod 2^k, so Probe(seed) & mask cycles the full table for
  // every seed — the Kirsch-Mitzenmacher requirement under pow2 widths.
  for (const Key& key : RandomKeys(kNumKeys, 102)) {
    EXPECT_EQ(KeyDigest::Of(key).h2 & 1u, 1u);
  }
}

TEST(KeyDigestTest, DefaultIsEmpty) {
  EXPECT_TRUE(KeyDigest{}.Empty());
  EXPECT_FALSE(KeyDigest::Of(Key::FromUint64(1)).Empty());
}

TEST(KeyDigestTest, CountMinKeyAndDigestOverloadsIdentical) {
  CountMinSketch by_key(4, 4096, 42);
  CountMinSketch by_digest(4, 4096, 42);
  std::vector<Key> keys = RandomKeys(kNumKeys, 103);
  for (const Key& key : keys) {
    EXPECT_EQ(by_key.Update(key), by_digest.Update(KeyDigest::Of(key)));
  }
  for (const Key& key : keys) {
    EXPECT_EQ(by_key.Estimate(key), by_digest.Estimate(KeyDigest::Of(key)));
  }
}

TEST(KeyDigestTest, BloomKeyAndDigestOverloadsIdentical) {
  BloomFilter by_key(3, 1 << 16, 7);
  BloomFilter by_digest(3, 1 << 16, 7);
  std::vector<Key> keys = RandomKeys(kNumKeys, 105);
  for (const Key& key : keys) {
    EXPECT_EQ(by_key.TestAndSet(key), by_digest.TestAndSet(KeyDigest::Of(key)));
  }
  for (const Key& key : keys) {
    EXPECT_EQ(by_key.Test(key), by_digest.Test(KeyDigest::Of(key)));
  }
  // Bit-for-bit identical fill in every partition.
  for (size_t p = 0; p < by_key.num_hashes(); ++p) {
    EXPECT_DOUBLE_EQ(by_key.FillRatio(p), by_digest.FillRatio(p));
  }
}

TEST(KeyDigestTest, FlatTableFindWithHashMatchesFind) {
  FlatTable<Key, uint64_t, KeyHasher> table;
  std::vector<Key> keys = RandomKeys(kNumKeys, 106);
  for (size_t i = 0; i < keys.size(); i += 2) {  // insert every other key
    table.Upsert(keys[i], i);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    const KeyDigest d = KeyDigest::Of(keys[i]);
    const uint64_t* via_key = table.Find(keys[i]);
    const uint64_t* via_hash =
        table.FindWithHash(static_cast<size_t>(d.h1), keys[i]);
    EXPECT_EQ(via_key, via_hash);
    if (i % 2 == 0) {
      ASSERT_NE(via_hash, nullptr);
      EXPECT_EQ(*via_hash, i);
    } else {
      EXPECT_EQ(via_hash, nullptr);
    }
  }
}

TEST(KeyDigestTest, ProbeSequenceDistinctPerSeed) {
  // Distinct seeds must map to distinct probe streams (the multiplier
  // (2*seed+1) differs per seed); sanity-check on a handful of keys.
  for (const Key& key : RandomKeys(64, 107)) {
    const KeyDigest d = KeyDigest::Of(key);
    EXPECT_NE(d.Probe(0), d.Probe(1));
    EXPECT_NE(d.Probe(1), d.Probe(2));
  }
}

TEST(KeyDigestTest, CounterArrayPrefetchIsInvisible) {
  // CounterArray is slot-indexed (no hashing), so it gets no digest overload;
  // Prefetch must not change any counter or access statistic.
  CounterArray counters(128);
  counters.Increment(5);
  counters.Increment(5);
  CounterArray witness(128);
  witness.Increment(5);
  witness.Increment(5);
  for (size_t i = 0; i < 256; ++i) {
    counters.Prefetch(i % 200);  // includes out-of-range: must be a no-op
  }
  for (size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(counters.Get(i), witness.Get(i)) << i;
  }
}

}  // namespace
}  // namespace netcache
