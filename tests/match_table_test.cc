// Tests for the exact-match match-action table.

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataplane/match_table.h"

namespace netcache {
namespace {

struct TestAction {
  int port = 0;
};

Key K(uint64_t id) { return Key::FromUint64(id); }

TEST(MatchTableTest, InsertAndMatch) {
  ExactMatchTable<TestAction> t(4);
  EXPECT_TRUE(t.InsertEntry(K(1), TestAction{7}).ok());
  const TestAction* a = t.Match(K(1));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->port, 7);
  EXPECT_EQ(t.Match(K(2)), nullptr);
}

TEST(MatchTableTest, CapacityEnforced) {
  ExactMatchTable<TestAction> t(2);
  EXPECT_TRUE(t.InsertEntry(K(1), {}).ok());
  EXPECT_TRUE(t.InsertEntry(K(2), {}).ok());
  Status st = t.InsertEntry(K(3), {});
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(t.size(), 2u);
}

TEST(MatchTableTest, DuplicateInsertRejected) {
  ExactMatchTable<TestAction> t(4);
  EXPECT_TRUE(t.InsertEntry(K(1), {}).ok());
  EXPECT_EQ(t.InsertEntry(K(1), {}).code(), StatusCode::kAlreadyExists);
}

TEST(MatchTableTest, ModifyExisting) {
  ExactMatchTable<TestAction> t(4);
  ASSERT_TRUE(t.InsertEntry(K(1), TestAction{1}).ok());
  EXPECT_TRUE(t.ModifyEntry(K(1), TestAction{9}).ok());
  EXPECT_EQ(t.Match(K(1))->port, 9);
  EXPECT_EQ(t.ModifyEntry(K(2), {}).code(), StatusCode::kNotFound);
}

TEST(MatchTableTest, RemoveFreesCapacity) {
  ExactMatchTable<TestAction> t(1);
  ASSERT_TRUE(t.InsertEntry(K(1), {}).ok());
  EXPECT_TRUE(t.RemoveEntry(K(1)).ok());
  EXPECT_EQ(t.RemoveEntry(K(1)).code(), StatusCode::kNotFound);
  EXPECT_TRUE(t.InsertEntry(K(2), {}).ok());
}

TEST(MatchTableTest, ForEachEntryVisitsAll) {
  ExactMatchTable<TestAction> t(8);
  for (uint64_t i = 0; i < 5; ++i) {
    t.InsertEntry(K(i), TestAction{static_cast<int>(i)});
  }
  int sum = 0;
  t.ForEachEntry([&sum](const Key&, const TestAction& a) { sum += a.port; });
  EXPECT_EQ(sum, 10);
}

// The match table's FlatTable substrate probes with the grouped control-byte
// scan once it is at least 62% full and walks slot by slot below that
// (FlatTable::kGroupProbeMinLoadPct). Every lookup is checked against a
// reference, through insert/remove churn (backward-shift deletion) and the
// burst path's hash-carrying peek.

// 2048 ids, 3/4 inserts: the table climbs from empty through the walked
// regime and settles near 1536 entries in 2048 slots (75%, grouped).
TEST(MatchTableGroupProbeTest, PeekMatchesReferenceUnderChurn) {
  ExactMatchTable<TestAction> t(4096);
  Rng rng(0x6e);
  std::vector<bool> present(2048, false);
  for (int op = 0; op < 30000; ++op) {
    uint64_t id = rng.NextBounded(2048);
    if (rng.NextBounded(4) == 0) {
      Status st = t.RemoveEntry(K(id));
      EXPECT_EQ(st.ok(), static_cast<bool>(present[id])) << op;
      present[id] = false;
    } else {
      t.InsertEntry(K(id), TestAction{static_cast<int>(id)});
      present[id] = true;
    }
    if (op % 499 == 0) {
      for (uint64_t probe = 0; probe < 2048; ++probe) {
        Key k = K(probe);
        const TestAction* a = t.PeekWithHash(k, KeyHasher()(k));
        ASSERT_EQ(a != nullptr, static_cast<bool>(present[probe]))
            << "op " << op << " key " << probe;
        if (a != nullptr) {
          ASSERT_EQ(a->port, static_cast<int>(probe));
        }
      }
    }
  }
}

// Fills a 5200-entry table and checks every lookup at three fill levels:
// 3000 entries (4096 slots, 73%: grouped), 4096 (8192 slots, 50%: walked)
// and 5200 (8192 slots, 63%: grouped).
TEST(MatchTableGroupProbeTest, MatchFoundAtEveryFillLevel) {
  constexpr size_t kCapacity = 5200;
  ExactMatchTable<TestAction> t(kCapacity);
  for (size_t fill : {3000u, 4096u, 5200u}) {
    for (uint64_t i = t.size(); i < fill; ++i) {
      ASSERT_TRUE(t.InsertEntry(K(i), TestAction{static_cast<int>(i)}).ok()) << i;
    }
    ASSERT_EQ(t.size(), fill);
    for (uint64_t i = 0; i < fill + 512; ++i) {
      const TestAction* a = t.Match(K(i));
      ASSERT_EQ(a != nullptr, i < fill) << "fill " << fill << " key " << i;
      if (a != nullptr) {
        ASSERT_EQ(a->port, static_cast<int>(i));
      }
    }
  }
}

}  // namespace
}  // namespace netcache
