// Tests for the exact-match match-action table.

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
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

// The match table's FlatTable substrate dispatches between the grouped
// control-byte probe and the scalar loop at call time (common/simd.h), so
// the same table can be queried through both and must return the same entry
// pointer — including through insert/remove churn (backward-shift deletion)
// and the burst path's hash-carrying peek.
TEST(MatchTableGroupProbeTest, PeekAgreesAcrossDispatchPathsUnderChurn) {
  ExactMatchTable<TestAction> t(4096);
  t.set_group_probe_min_load(0);  // cover the grouped path at any fill
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
        size_t h = KeyHasher()(k);
        const TestAction* grouped = t.PeekWithHash(k, h);
        const TestAction* legacy;
        {
          ScopedScalarSimd scalar;
          legacy = t.PeekWithHash(k, h);
        }
        ASSERT_EQ(grouped, legacy) << "op " << op << " key " << probe;
        ASSERT_EQ(grouped != nullptr, static_cast<bool>(present[probe]))
            << "op " << op << " key " << probe;
      }
    }
  }
}

TEST(MatchTableGroupProbeTest, FullTableAgreesAcrossDispatchPaths) {
  constexpr size_t kCapacity = 4096;
  ExactMatchTable<TestAction> t(kCapacity);
  t.set_group_probe_min_load(0);  // cover the grouped path at any fill
  for (uint64_t i = 0; i < kCapacity; ++i) {
    ASSERT_TRUE(t.InsertEntry(K(i), TestAction{static_cast<int>(i)}).ok()) << i;
  }
  ASSERT_EQ(t.size(), kCapacity);
  for (uint64_t i = 0; i < kCapacity + 512; ++i) {
    const TestAction* grouped = t.Match(K(i));
    const TestAction* legacy;
    {
      ScopedScalarSimd scalar;
      legacy = t.Match(K(i));
    }
    ASSERT_EQ(grouped, legacy) << i;
    ASSERT_EQ(grouped != nullptr, i < kCapacity) << i;
  }
}

}  // namespace
}  // namespace netcache
