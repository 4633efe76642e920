// Tests for the TommyDS-style hash table and the KV store layers on top.

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kvstore/hash_table.h"
#include "kvstore/kv_store.h"
#include "workload/generator.h"

namespace netcache {
namespace {

TEST(HashDynTest, InsertFindErase) {
  HashDyn<int, std::string> t;
  EXPECT_TRUE(t.Upsert(1, "one"));
  EXPECT_TRUE(t.Upsert(2, "two"));
  EXPECT_FALSE(t.Upsert(1, "uno"));  // overwrite
  ASSERT_NE(t.Find(1), nullptr);
  EXPECT_EQ(*t.Find(1), "uno");
  EXPECT_EQ(t.Find(3), nullptr);
  EXPECT_TRUE(t.Erase(1));
  EXPECT_FALSE(t.Erase(1));
  EXPECT_EQ(t.size(), 1u);
}

TEST(HashDynTest, GrowsAndShrinks) {
  HashDyn<int, int> t;
  size_t initial_buckets = t.bucket_count();
  for (int i = 0; i < 10000; ++i) {
    t.Upsert(i, i * 2);
  }
  EXPECT_GT(t.bucket_count(), initial_buckets);
  size_t grown = t.bucket_count();
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(t.Erase(i));
  }
  EXPECT_EQ(t.size(), 0u);
  EXPECT_LT(t.bucket_count(), grown);
}

TEST(HashDynTest, ChainsStayShort) {
  HashDyn<Key, int, KeyHasher> t;
  for (uint64_t i = 0; i < 50000; ++i) {
    t.Upsert(Key::FromUint64(i), static_cast<int>(i));
  }
  // Load factor <= 1 with a good hash: max chain is O(log n / log log n).
  EXPECT_LE(t.MaxChainLength(), 12u);
}

// Runs a random Upsert/Erase/Find mix against std::unordered_map.
void ExpectMatchesReferenceUnderRandomOps(HashDyn<uint64_t, uint64_t>& t) {
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    uint64_t k = rng.NextBounded(2000);
    switch (rng.NextBounded(3)) {
      case 0: {
        uint64_t v = rng.Next();
        t.Upsert(k, v);
        ref[k] = v;
        break;
      }
      case 1: {
        EXPECT_EQ(t.Erase(k), ref.erase(k) > 0);
        break;
      }
      default: {
        auto it = ref.find(k);
        uint64_t* found = t.Find(k);
        if (it == ref.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    EXPECT_EQ(t.size(), ref.size());
  }
  EXPECT_TRUE(t.CheckIntegrity());
}

TEST(HashDynTest, MatchesReferenceUnderRandomOps) {
  HashDyn<uint64_t, uint64_t> t;
  ExpectMatchesReferenceUnderRandomOps(t);
}

TEST(HashDynTest, ReservedTableMatchesReferenceUnderRandomOps) {
  HashDyn<uint64_t, uint64_t> t;
  t.Reserve(4096);
  ExpectMatchesReferenceUnderRandomOps(t);
}

TEST(HashDynTest, ReserveSizesOnceForNInserts) {
  // {n, the power of two >= n}
  for (auto [n, buckets] : {std::pair<size_t, size_t>{4096, 4096}, {5000, 8192}}) {
    HashDyn<Key, uint64_t, KeyHasher> t;
    t.Reserve(n);
    EXPECT_EQ(t.bucket_count(), buckets) << n;
    for (uint64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(t.Upsert(Key::FromUint64(i), i));
    }
    EXPECT_EQ(t.bucket_count(), buckets) << n;
    EXPECT_EQ(t.size(), n);
    EXPECT_TRUE(t.CheckIntegrity());
  }
}

TEST(HashDynTest, ReserveKeepsItemsAndNeverShrinks) {
  HashDyn<uint64_t, uint64_t> t;
  for (uint64_t i = 0; i < 1000; ++i) {
    t.Upsert(i, i * 3);
  }
  size_t grown = t.bucket_count();
  EXPECT_EQ(grown, 1024u);
  t.Reserve(10);
  EXPECT_EQ(t.bucket_count(), grown);
  t.Reserve(grown);
  EXPECT_EQ(t.bucket_count(), grown);

  t.Reserve(3000);  // one rehash of the live items
  EXPECT_EQ(t.bucket_count(), 4096u);
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_TRUE(t.CheckIntegrity());
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(t.Find(i), nullptr);
    EXPECT_EQ(*t.Find(i), i * 3);
  }
}

TEST(HashDynTest, ForEachVisitsAll) {
  HashDyn<int, int> t;
  for (int i = 0; i < 100; ++i) {
    t.Upsert(i, i);
  }
  int sum = 0;
  t.ForEach([&sum](const int& k, int& v) {
    EXPECT_EQ(k, v);
    sum += v;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(HashDynTest, ClearResets) {
  HashDyn<int, int> t;
  for (int i = 0; i < 1000; ++i) {
    t.Upsert(i, i);
  }
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Find(5), nullptr);
}

TEST(KvStoreTest, GetPutDelete) {
  KvStore store;
  Key k = Key::FromUint64(1);
  EXPECT_FALSE(store.Get(k).ok());
  store.Put(k, Value::FromString("hello"));
  Result<Value> v = store.Get(k);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsStringView(), "hello");
  EXPECT_TRUE(store.Delete(k).ok());
  EXPECT_EQ(store.Delete(k).code(), StatusCode::kNotFound);
  EXPECT_FALSE(store.Get(k).ok());
}

TEST(KvStoreTest, OverwriteKeepsSingleEntry) {
  KvStore store;
  Key k = Key::FromUint64(2);
  store.Put(k, Value::FromString("a"));
  store.Put(k, Value::FromString("b"));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Get(k)->AsStringView(), "b");
}

TEST(KvStoreTest, StatsTrackOperations) {
  KvStore store;
  Key k = Key::FromUint64(3);
  store.Put(k, Value::FromString("x"));
  store.Get(k);
  store.Get(Key::FromUint64(4));  // miss
  store.Delete(k);
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.stats().gets, 2u);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().deletes, 1u);
}

TEST(KvStoreTest, ReserveCountsNoOperation) {
  KvStore store;
  store.Reserve(100);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.stats().puts, 0u);
  for (uint64_t i = 0; i < 100; ++i) {
    store.Put(Key::FromUint64(i), WorkloadGenerator::ValueFor(i, 16));
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.stats().puts, 100u);
  EXPECT_EQ(*store.Peek(Key::FromUint64(42)), WorkloadGenerator::ValueFor(42, 16));
}

TEST(KvStoreTest, ForEachEnumerates) {
  KvStore store;
  for (uint64_t i = 0; i < 10; ++i) {
    store.Put(Key::FromUint64(i), WorkloadGenerator::ValueFor(i, 32));
  }
  size_t n = 0;
  store.ForEach([&n](const Key&, const Value& v) {
    EXPECT_EQ(v.size(), 32u);
    ++n;
  });
  EXPECT_EQ(n, 10u);
}

}  // namespace
}  // namespace netcache
