// Tests for the TommyDS-style hash table and the KV store layers on top.

#include <set>
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

// A value that books every construction and destruction by address, so a
// test sees each constructed value destroyed exactly once.
class Tracked {
 public:
  explicit Tracked(int v) : v_(v) { Born(); }
  Tracked(const Tracked& other) : v_(other.v_) { Born(); }
  Tracked(Tracked&& other) noexcept : v_(other.v_) { Born(); }
  Tracked& operator=(const Tracked&) = default;
  Tracked& operator=(Tracked&&) = default;
  ~Tracked() { EXPECT_EQ(Live().erase(this), 1u) << "destroyed twice or never constructed"; }

  int v() const { return v_; }
  // Every Tracked constructed and not yet destroyed.
  static std::set<const Tracked*>& Live() {
    static std::set<const Tracked*> live;
    return live;
  }

 private:
  void Born() { EXPECT_TRUE(Live().insert(this).second); }
  int v_;
};

TEST(HashDynSlabTest, EveryValueIsDestroyedExactlyOnce) {
  ASSERT_TRUE(Tracked::Live().empty());
  {
    HashDyn<int, Tracked> t;
    for (int i = 0; i < 300; ++i) {  // grows through several chunks
      t.Upsert(i, Tracked(i));
    }
    EXPECT_EQ(Tracked::Live().size(), 300u);
    for (int i = 0; i < 50; ++i) {  // overwrite
      EXPECT_FALSE(t.Upsert(i, Tracked(-i)));
    }
    EXPECT_EQ(Tracked::Live().size(), 300u);
    for (int i = 0; i < 280; ++i) {  // erase, shrinking twice
      EXPECT_TRUE(t.Erase(i));
      ASSERT_EQ(Tracked::Live().size(), t.size()) << i;
    }
    EXPECT_TRUE(t.CheckIntegrity());
    t.Clear();
    EXPECT_TRUE(Tracked::Live().empty());

    for (int i = 0; i < 100; ++i) {
      t.Upsert(i, Tracked(i));
    }
    HashDyn<int, Tracked> moved(std::move(t));
    EXPECT_EQ(Tracked::Live().size(), 100u);
    ASSERT_NE(moved.Find(7), nullptr);
    EXPECT_EQ(moved.Find(7)->v(), 7);
    EXPECT_TRUE(moved.CheckIntegrity());

    HashDyn<int, Tracked> target;
    for (int i = 0; i < 40; ++i) {
      target.Upsert(1000 + i, Tracked(i));
    }
    target = std::move(moved);  // destroys target's own 40
    EXPECT_EQ(Tracked::Live().size(), 100u);
    EXPECT_EQ(target.size(), 100u);
    EXPECT_EQ(target.Find(1000), nullptr);
    EXPECT_TRUE(target.CheckIntegrity());

    t.Clear();  // a moved-from table is usable again after Clear
    EXPECT_TRUE(t.Upsert(1, Tracked(1)));
    EXPECT_TRUE(t.CheckIntegrity());
    EXPECT_EQ(Tracked::Live().size(), 101u);
  }
  EXPECT_TRUE(Tracked::Live().empty());
}

TEST(HashDynSlabTest, InsertsAfterEraseReuseTheErasedSlots) {
  HashDyn<Key, Value, KeyHasher> t;
  for (uint64_t id = 0; id < 100; ++id) {
    t.Upsert(Key::FromUint64(id), Value::Filler(id, 64));
  }
  std::set<const Value*> erased;
  for (uint64_t id = 10; id < 20; ++id) {
    erased.insert(t.Find(Key::FromUint64(id)));
    ASSERT_TRUE(t.Erase(Key::FromUint64(id)));
  }
  std::set<const Value*> reused;
  for (uint64_t id = 500; id < 510; ++id) {
    t.Upsert(Key::FromUint64(id), Value::Filler(id, 64));
    reused.insert(t.Find(Key::FromUint64(id)));
    EXPECT_TRUE(t.CheckIntegrity());
  }
  EXPECT_EQ(reused, erased);
  // The free list is empty again, so the next insert takes a fresh slot.
  t.Upsert(Key::FromUint64(600), Value::Filler(600, 64));
  EXPECT_EQ(erased.count(t.Find(Key::FromUint64(600))), 0u);
  EXPECT_EQ(*t.Find(Key::FromUint64(505)), Value::Filler(505, 64));
}

TEST(HashDynSlabTest, ForEachOrderMatchesRecordedChains) {
  // Insert, erase, grow, shrink, Reserve and shrink again; then the chain
  // layout, and so ForEach order, must equal the one recorded from the
  // per-node-allocation table this slab replaced.
  HashDyn<Key, uint64_t, KeyHasher> t;
  auto put = [&t](uint64_t id) { t.Upsert(Key::FromUint64(id), id); };
  auto erase = [&t](uint64_t id) { t.Erase(Key::FromUint64(id)); };
  for (uint64_t id = 0; id < 100; ++id) {
    put(id);
  }
  for (uint64_t id = 0; id < 100; id += 3) {
    erase(id);
  }
  EXPECT_TRUE(t.CheckIntegrity());
  for (uint64_t id = 100; id < 300; ++id) {
    put(id);
  }
  EXPECT_EQ(t.bucket_count(), 512u);
  for (uint64_t id = 0; id < 280; ++id) {
    erase(id);
  }
  EXPECT_EQ(t.bucket_count(), 128u);
  EXPECT_TRUE(t.CheckIntegrity());
  t.Reserve(300);
  for (uint64_t id = 1000; id < 1030; ++id) {
    put(id);
  }
  for (uint64_t id = 285; id < 290; ++id) {
    erase(id);
  }
  for (uint64_t id = 2000; id < 2005; ++id) {
    put(id);
  }
  t.Upsert(Key::FromUint64(1000), 7);
  EXPECT_EQ(t.bucket_count(), 256u);
  EXPECT_TRUE(t.CheckIntegrity());

  const std::vector<uint64_t> recorded = {
      1019, 1012, 1025, 281,  1009, 297,  1029, 1013, 1002, 1004, 295,  2001, 1006,
      1015, 1008, 299,  1028, 1027, 2002, 2003, 1024, 1018, 2000, 1000, 296,  1011,
      1020, 1017, 283,  1022, 1001, 1026, 1021, 284,  2004, 298,  1010, 1005, 1016,
      291,  290,  282,  294,  1023, 1014, 280,  1007, 293,  1003, 292};
  std::vector<uint64_t> order;
  t.ForEach([&order](const Key& k, const uint64_t&) { order.push_back(k.AsUint64()); });
  EXPECT_EQ(order, recorded);
}

// A key whose == calls are counted.
struct CountedKey {
  uint64_t id;
  static inline int compares = 0;
  bool operator==(const CountedKey& other) const {
    ++compares;
    return id == other.id;
  }
};
// Ids below 2^16 all land in bucket 0 of a table of at most 2^16 buckets,
// yet no two share a stored hash.
struct SameBucketHash {
  size_t operator()(const CountedKey& k) const { return k.id << 16; }
};
// All ids share the low 32 bits of their hash, so only the key tells them
// apart.
struct SameLow32Hash {
  size_t operator()(const CountedKey& k) const { return (k.id << 32) | 5; }
};

TEST(HashDynSlabTest, StoredHashScreensKeyCompares) {
  HashDyn<CountedKey, int, SameBucketHash> t;
  for (uint64_t id = 1; id <= 16; ++id) {
    EXPECT_TRUE(t.Upsert(CountedKey{id}, static_cast<int>(id)));
  }
  ASSERT_EQ(t.bucket_count(), 16u);
  EXPECT_EQ(t.MaxChainLength(), 16u);
  CountedKey::compares = 0;
  for (uint64_t id = 1; id <= 16; ++id) {
    ASSERT_NE(t.Find(CountedKey{id}), nullptr);
    EXPECT_EQ(*t.Find(CountedKey{id}), static_cast<int>(id));
  }
  EXPECT_EQ(t.Find(CountedKey{99}), nullptr);
  EXPECT_TRUE(t.Erase(CountedKey{9}));
  EXPECT_FALSE(t.Upsert(CountedKey{3}, 30));
  // One compare per hit (two Finds each), the erase and the overwrite;
  // none for the miss.
  EXPECT_EQ(CountedKey::compares, 16 * 2 + 2);
  EXPECT_TRUE(t.CheckIntegrity());
}

TEST(HashDynSlabTest, KeysSharingTheStoredHashStayDistinct) {
  HashDyn<CountedKey, int, SameLow32Hash> t;
  for (uint64_t id = 0; id < 12; ++id) {
    EXPECT_TRUE(t.Upsert(CountedKey{id}, static_cast<int>(id)));
  }
  EXPECT_EQ(t.MaxChainLength(), 12u);
  for (uint64_t id = 0; id < 12; ++id) {
    ASSERT_NE(t.Find(CountedKey{id}), nullptr);
    EXPECT_EQ(*t.Find(CountedKey{id}), static_cast<int>(id));
  }
  EXPECT_EQ(t.Find(CountedKey{12}), nullptr);
  EXPECT_TRUE(t.Erase(CountedKey{4}));
  EXPECT_EQ(t.Find(CountedKey{4}), nullptr);
  EXPECT_EQ(t.size(), 11u);
  EXPECT_TRUE(t.CheckIntegrity());
}

TEST(HashDynSlabTest, ReserveBeyondTwoToThe32BucketsAborts) {
  HashDyn<uint64_t, uint64_t> t;
  EXPECT_DEATH(t.Reserve((size_t{1} << 32) + 1), "more than 2\\^32 buckets");
}

// The table shapes the lookup hints must leave alone. Each recipe is a
// sequence of reserve/put/erase calls on key ids, so it builds a HashDyn and
// a KvStore with the same bucket array.
enum class HintShape { kEmpty, kMinBuckets, kReserved, kJustShrunk };
constexpr HintShape kHintShapes[] = {HintShape::kEmpty, HintShape::kMinBuckets,
                                     HintShape::kReserved, HintShape::kJustShrunk};

template <typename Reserve, typename Put, typename Erase>
void BuildHintShape(HintShape shape, Reserve reserve, Put put, Erase erase) {
  switch (shape) {
    case HintShape::kEmpty:
      return;
    case HintShape::kMinBuckets:
      for (uint64_t id = 0; id < 10; ++id) {
        put(id);
      }
      return;
    case HintShape::kReserved:
      reserve(4000);
      for (uint64_t id = 0; id < 100; ++id) {
        put(id);
      }
      return;
    case HintShape::kJustShrunk:
      // 1000 items grow the array to 1024 buckets; the erase that leaves
      // 127 (< 1024 / 8) halves it.
      for (uint64_t id = 0; id < 1000; ++id) {
        put(id);
      }
      for (uint64_t id = 0; id < 873; ++id) {
        erase(id);
      }
      return;
  }
}

// Hashes of present and absent keys, plus arbitrary values: a hint must be
// safe for any hash.
std::vector<uint64_t> HintHashes() {
  std::vector<uint64_t> hashes = {0, ~0ull, 0x9e3779b97f4a7c15ull};
  for (uint64_t id = 0; id < 2000; ++id) {
    hashes.push_back(Key::FromUint64(id).Hash());
  }
  return hashes;
}

// Every (key, value) in visiting order, which also pins the chain layout.
template <typename Table>
std::vector<std::pair<Key, Value>> Contents(const Table& t) {
  std::vector<std::pair<Key, Value>> items;
  t.ForEach([&items](const Key& k, const Value& v) { items.emplace_back(k, v); });
  return items;
}

TEST(HashDynTest, LookupHintsChangeNothing) {
  for (HintShape shape : kHintShapes) {
    SCOPED_TRACE(static_cast<int>(shape));
    HashDyn<Key, Value, KeyHasher> t;
    BuildHintShape(
        shape, [&t](size_t n) { t.Reserve(n); },
        [&t](uint64_t id) { t.Upsert(Key::FromUint64(id), Value::Filler(id, 64)); },
        [&t](uint64_t id) { t.Erase(Key::FromUint64(id)); });
    if (shape == HintShape::kJustShrunk) {
      ASSERT_EQ(t.bucket_count(), 512u);
    }
    const size_t size = t.size();
    const size_t buckets = t.bucket_count();
    const std::vector<std::pair<Key, Value>> before = Contents(t);
    for (uint64_t h : HintHashes()) {
      t.PrefetchBucket(h);
      t.PrefetchChain(h);
    }
    EXPECT_EQ(t.size(), size);
    EXPECT_EQ(t.bucket_count(), buckets);
    EXPECT_EQ(Contents(t), before);
    EXPECT_TRUE(t.CheckIntegrity());
  }
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

TEST(KvStoreTest, LookupHintsCountNoOperation) {
  for (HintShape shape : kHintShapes) {
    SCOPED_TRACE(static_cast<int>(shape));
    KvStore store;
    BuildHintShape(
        shape, [&store](size_t n) { store.Reserve(n); },
        [&store](uint64_t id) { store.Put(Key::FromUint64(id), Value::Filler(id, 64)); },
        [&store](uint64_t id) { store.Delete(Key::FromUint64(id)).ok(); });
    store.Get(Key::FromUint64(999)).ok();  // a hit in the shapes that hold 999
    store.Get(Key::FromUint64(5000)).ok();  // a miss in all of them
    const KvStore::Stats stats = store.stats();
    const size_t size = store.size();
    const std::vector<std::pair<Key, Value>> before = Contents(store);
    for (uint64_t h : HintHashes()) {
      store.PrefetchBucket(h);
      store.PrefetchChain(h);
    }
    EXPECT_EQ(store.stats().gets, stats.gets);
    EXPECT_EQ(store.stats().hits, stats.hits);
    EXPECT_EQ(store.stats().puts, stats.puts);
    EXPECT_EQ(store.stats().deletes, stats.deletes);
    EXPECT_EQ(store.size(), size);
    EXPECT_EQ(Contents(store), before);
  }
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
