// Tests for the robin-hood open-addressing table, including a randomized
// cross-check against std::unordered_map and against HashDyn.

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kvstore/flat_table.h"
#include "kvstore/hash_table.h"
#include "proto/key.h"

namespace netcache {
namespace {

TEST(FlatTableTest, InsertFindErase) {
  FlatTable<int, std::string> t;
  EXPECT_TRUE(t.Upsert(1, "one"));
  EXPECT_TRUE(t.Upsert(2, "two"));
  EXPECT_FALSE(t.Upsert(1, "uno"));
  ASSERT_NE(t.Find(1), nullptr);
  EXPECT_EQ(*t.Find(1), "uno");
  EXPECT_EQ(t.Find(3), nullptr);
  EXPECT_TRUE(t.Erase(1));
  EXPECT_FALSE(t.Erase(1));
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlatTableTest, GrowsUnderLoad) {
  FlatTable<int, int> t;
  size_t initial = t.capacity();
  for (int i = 0; i < 10000; ++i) {
    t.Upsert(i, i * 3);
  }
  EXPECT_GT(t.capacity(), initial);
  EXPECT_EQ(t.size(), 10000u);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_NE(t.Find(i), nullptr);
    EXPECT_EQ(*t.Find(i), i * 3);
  }
}

TEST(FlatTableTest, ProbeLengthsStayShort) {
  FlatTable<Key, int, KeyHasher> t;
  for (uint64_t i = 0; i < 50000; ++i) {
    t.Upsert(Key::FromUint64(i), static_cast<int>(i));
  }
  // Robin hood at 7/8 load: expected max probe length is small.
  EXPECT_LE(t.MaxProbeLength(), 24u);
}

TEST(FlatTableTest, EraseBackwardShiftKeepsTableConsistent) {
  FlatTable<int, int> t;
  for (int i = 0; i < 1000; ++i) {
    t.Upsert(i, i);
  }
  for (int i = 0; i < 1000; i += 2) {
    ASSERT_TRUE(t.Erase(i));
  }
  for (int i = 0; i < 1000; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(t.Find(i), nullptr);
    } else {
      ASSERT_NE(t.Find(i), nullptr) << i;
      EXPECT_EQ(*t.Find(i), i);
    }
  }
  EXPECT_EQ(t.size(), 500u);
}

TEST(FlatTableTest, ClearResets) {
  FlatTable<int, int> t;
  for (int i = 0; i < 100; ++i) {
    t.Upsert(i, i);
  }
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Find(5), nullptr);
  EXPECT_TRUE(t.Upsert(5, 10));
}

TEST(FlatTableTest, ForEachVisitsAll) {
  FlatTable<int, int> t;
  for (int i = 0; i < 64; ++i) {
    t.Upsert(i, 1);
  }
  int total = 0;
  t.ForEach([&total](const int&, int& v) { total += v; });
  EXPECT_EQ(total, 64);
}

class FlatTablePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatTablePropertyTest, MatchesReferenceUnderRandomOps) {
  FlatTable<uint64_t, uint64_t> t;
  HashDyn<uint64_t, uint64_t> chained;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(GetParam());
  for (int i = 0; i < 60000; ++i) {
    uint64_t k = rng.NextBounded(3000);
    switch (rng.NextBounded(3)) {
      case 0: {
        uint64_t v = rng.Next();
        EXPECT_EQ(t.Upsert(k, v), ref.count(k) == 0);
        chained.Upsert(k, v);
        ref[k] = v;
        break;
      }
      case 1: {
        bool expected = ref.erase(k) > 0;
        EXPECT_EQ(t.Erase(k), expected);
        EXPECT_EQ(chained.Erase(k), expected);
        break;
      }
      default: {
        auto it = ref.find(k);
        uint64_t* flat = t.Find(k);
        uint64_t* chain = chained.Find(k);
        if (it == ref.end()) {
          EXPECT_EQ(flat, nullptr);
          EXPECT_EQ(chain, nullptr);
        } else {
          ASSERT_NE(flat, nullptr);
          ASSERT_NE(chain, nullptr);
          EXPECT_EQ(*flat, it->second);
          EXPECT_EQ(*chain, it->second);
        }
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatTablePropertyTest, ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------- high-load probes
//
// Robin-hood chains are longest near the 7/8 growth ceiling, where a walk
// that stops a slot early or forgets to wrap at the end of the slot array
// loses keys that light-load tables never place out of reach. Each test
// builds a dense layout, asserts the table's load, and checks every probe
// against a reference.

// Load in whole percent of capacity.
template <typename Table>
size_t LoadPct(const Table& t) {
  return t.size() * 100 / t.capacity();
}

// Identity hash pins home slots so tests can build adversarial layouts
// (wrap-around clusters) deterministically.
struct IdentityHash {
  size_t operator()(uint64_t v) const { return static_cast<size_t>(v); }
};

TEST(FlatTableHighLoadTest, WrapAroundClusterFound) {
  FlatTable<uint64_t, int, IdentityHash> t;
  // Capacity starts at 16 and grows past 14 entries. 13 keys (81% load)
  // build one probe cluster from home 10 that wraps past slot 15 into slots
  // 0..6, so walks from homes 13..15 continue across the wrap.
  std::vector<uint64_t> keys = {10, 11, 12, 13, 14, 15, 15 + 16, 15 + 32, 15 + 48,
                                14 + 16, 14 + 32, 13 + 16, 12 + 16};
  for (uint64_t k : keys) {
    t.Upsert(k, static_cast<int>(k));
  }
  ASSERT_EQ(t.capacity(), 16u);
  ASSERT_EQ(t.size(), 13u);
  for (uint64_t k : keys) {
    auto* v = t.Find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  // Absent keys homed inside the cluster (on both sides of the wrap) and
  // just before it: every walk must stop at the cluster's end.
  for (uint64_t k : {uint64_t{13 + 32}, uint64_t{15 + 64}, uint64_t{2 + 16}, uint64_t{9}}) {
    EXPECT_EQ(t.Find(k), nullptr) << k;
  }
}

TEST(FlatTableHighLoadTest, DeletionChurnMatchesReference) {
  FlatTable<uint64_t, uint64_t, IdentityHash> t;
  Rng rng(0xc4u);
  std::unordered_map<uint64_t, uint64_t> ref;
  // Heavy insert/erase churn exercises backward-shift deletion; identity
  // hashing over a narrow keyspace makes dense probe clusters. An
  // insert-heavy phase fills the table to ~80% load, an erase-heavy one
  // drains it to ~50%, so the checks cover clusters as they grow and as
  // deletions shift them back.
  size_t peak_load_pct = 0;
  for (int op = 0; op < 60000; ++op) {
    uint64_t k = rng.NextBounded(512);
    const uint64_t erase_in = op < 30000 ? 5 : 2;  // erase 1/5, then 1/2
    if (rng.NextBounded(erase_in) == 0) {
      EXPECT_EQ(t.Erase(k), ref.erase(k) > 0) << "op " << op;
    } else {
      uint64_t v = rng.Next();
      t.Upsert(k, v);
      ref[k] = v;
    }
    if (op % 997 == 0) {
      peak_load_pct = std::max(peak_load_pct, LoadPct(t));
      for (uint64_t probe = 0; probe < 512; ++probe) {
        auto* v = t.Find(probe);
        auto it = ref.find(probe);
        if (it == ref.end()) {
          ASSERT_EQ(v, nullptr) << "op " << op << " key " << probe;
        } else {
          ASSERT_NE(v, nullptr) << "op " << op << " key " << probe;
          ASSERT_EQ(*v, it->second);
        }
      }
    }
  }
  EXPECT_GE(peak_load_pct, 75u);
}

TEST(FlatTableHighLoadTest, NearFullTableFound) {
  // Fill right up to the 7/8 growth threshold so walks cross long occupied
  // runs with only a few empties to terminate on.
  FlatTable<uint64_t, int, IdentityHash> t;
  uint64_t k = 0;
  while ((t.size() + 1) * 8 <= t.capacity() * 7) {
    t.Upsert(k * 7919, static_cast<int>(k));  // spread homes via odd stride
    ++k;
  }
  ASSERT_GE(LoadPct(t), 87u);  // one more insert would grow the table
  for (uint64_t i = 0; i < k; ++i) {
    auto* v = t.Find(i * 7919);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, static_cast<int>(i));
  }
  EXPECT_EQ(t.Find(k * 7919 + 1), nullptr);
}

// A 32768-slot table at 61%, 64% and 87.5% load (the 7/8 growth ceiling)
// must find every present key and miss every absent one.
TEST(FlatTableHighLoadTest, KeyHashedTableFoundUpToGrowthCeiling) {
  FlatTable<Key, uint64_t, KeyHasher> t;
  for (uint64_t fill : {20000u, 21000u, 28672u}) {
    for (uint64_t i = t.size(); i < fill; ++i) {
      t.Upsert(Key::FromUint64(i), i);
    }
    ASSERT_EQ(t.capacity(), 32768u);
    ASSERT_EQ(t.size(), fill);
    for (uint64_t i = 0; i < fill + 5000; ++i) {
      auto* v = t.Find(Key::FromUint64(i));
      if (i < fill) {
        ASSERT_NE(v, nullptr) << i;
        ASSERT_EQ(*v, i);
      } else {
        ASSERT_EQ(v, nullptr) << i;
      }
    }
  }
}

}  // namespace
}  // namespace netcache
