// Tests for the workload substrate: partitioning, popularity permutations
// (hot-in / random / hot-out), and the query generator's mix semantics.

#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "workload/generator.h"
#include "workload/partition.h"
#include "workload/popularity.h"
#include "workload/ycsb.h"

namespace netcache {
namespace {

TEST(PartitionTest, DeterministicAndInRange) {
  HashPartitioner part(128);
  Key k = Key::FromUint64(7);
  size_t p = part.PartitionOf(k);
  EXPECT_EQ(part.PartitionOf(k), p);
  EXPECT_LT(p, 128u);
}

TEST(PartitionTest, RoughlyBalanced) {
  HashPartitioner part(16);
  std::vector<int> counts(16, 0);
  for (uint64_t i = 0; i < 160000; ++i) {
    ++counts[part.PartitionOf(Key::FromUint64(i))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(PopularityTest, IdentityAtStart) {
  PopularityMap pop(100);
  for (uint64_t r = 0; r < 100; ++r) {
    EXPECT_EQ(pop.KeyAtRank(r), r);
  }
}

TEST(PopularityTest, HotInMovesColdestToTop) {
  PopularityMap pop(10);
  pop.HotIn(3);
  // Coldest keys 7,8,9 jump to ranks 0,1,2; everyone else shifts down.
  EXPECT_EQ(pop.KeyAtRank(0), 7u);
  EXPECT_EQ(pop.KeyAtRank(1), 8u);
  EXPECT_EQ(pop.KeyAtRank(2), 9u);
  EXPECT_EQ(pop.KeyAtRank(3), 0u);
  EXPECT_EQ(pop.KeyAtRank(9), 6u);
}

TEST(PopularityTest, HotOutMovesHottestToBottom) {
  PopularityMap pop(10);
  pop.HotOut(2);
  EXPECT_EQ(pop.KeyAtRank(0), 2u);
  EXPECT_EQ(pop.KeyAtRank(7), 9u);
  EXPECT_EQ(pop.KeyAtRank(8), 0u);
  EXPECT_EQ(pop.KeyAtRank(9), 1u);
}

TEST(PopularityTest, MutationsPreservePermutation) {
  PopularityMap pop(1000);
  Rng rng(3);
  pop.HotIn(100);
  pop.RandomReplace(50, 200, rng);
  pop.HotOut(70);
  std::set<uint64_t> seen;
  for (uint64_t r = 0; r < 1000; ++r) {
    seen.insert(pop.KeyAtRank(r));
  }
  EXPECT_EQ(seen.size(), 1000u);  // still a permutation
}

TEST(PopularityTest, RandomReplaceSwapsHotAndCold) {
  PopularityMap pop(100);
  Rng rng(4);
  pop.RandomReplace(10, 20, rng);
  // Exactly 10 of the top-20 ranks now hold keys with original rank >= 20.
  int newcomers = 0;
  for (uint64_t r = 0; r < 20; ++r) {
    if (pop.KeyAtRank(r) >= 20) {
      ++newcomers;
    }
  }
  EXPECT_EQ(newcomers, 10);
}

TEST(PopularityTest, TopKeysSnapshot) {
  PopularityMap pop(10);
  pop.HotIn(2);
  std::vector<uint64_t> top = pop.TopKeys(3);
  EXPECT_EQ(top, (std::vector<uint64_t>{8, 9, 0}));
}

// Two rankings agree on every rank, on TopKeys and on num_keys.
void ExpectSameRanking(const PopularityMap& got, const PopularityMap& want) {
  ASSERT_EQ(got.num_keys(), want.num_keys());
  for (uint64_t r = 0; r < want.num_keys(); ++r) {
    ASSERT_EQ(got.KeyAtRank(r), want.KeyAtRank(r)) << "rank " << r;
  }
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{7}, want.num_keys()}) {
    EXPECT_EQ(got.TopKeys(n), want.TopKeys(n)) << "top " << n;
  }
}

// The identity ranking stays implicit until the first mutation. This one
// has its table built by HotIn(n) then HotOut(n), which leave it the
// explicit identity: the reference for an implicit one.
PopularityMap ExplicitIdentity(uint64_t num_keys) {
  PopularityMap map(num_keys);
  map.HotIn(num_keys / 2);
  map.HotOut(num_keys / 2);
  return map;
}

// Applies `mutate(map, rng)` to an implicit and to an explicit identity
// over 100 keys, each with its own Rng(7), and compares the results.
template <typename Mutate>
void ExpectSameAfter(Mutate mutate) {
  PopularityMap got(100);
  PopularityMap want = ExplicitIdentity(100);
  Rng got_rng(7);
  Rng want_rng(7);
  mutate(got, got_rng);
  mutate(want, want_rng);
  ExpectSameRanking(got, want);
}

TEST(PopularityTest, ImplicitIdentityMatchesExplicitTable) {
  std::vector<uint64_t> iota(100);
  std::iota(iota.begin(), iota.end(), 0ull);
  EXPECT_EQ(ExplicitIdentity(100).TopKeys(100), iota);
  ExpectSameRanking(PopularityMap(100), ExplicitIdentity(100));

  ExpectSameAfter([](PopularityMap& map, Rng&) { map.HotIn(10); });
  ExpectSameAfter([](PopularityMap& map, Rng&) { map.HotOut(10); });
  ExpectSameAfter([](PopularityMap& map, Rng& rng) { map.RandomReplace(5, 20, rng); });
  ExpectSameAfter([](PopularityMap& map, Rng& rng) {
    map.RandomReplace(4, 10, rng);
    map.HotIn(7);
    map.HotOut(3);
    map.RandomReplace(2, 50, rng);
    map.HotIn(1);
  });
}

TEST(GeneratorTest, ReadOnlyProducesGets) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.write_ratio = 0.0;
  WorkloadGenerator gen(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gen.Next().op, OpCode::kGet);
  }
}

TEST(GeneratorTest, WriteRatioRespected) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.write_ratio = 0.3;
  WorkloadGenerator gen(cfg);
  int writes = 0;
  for (int i = 0; i < 10000; ++i) {
    if (gen.Next().op == OpCode::kPut) {
      ++writes;
    }
  }
  EXPECT_NEAR(writes / 10000.0, 0.3, 0.03);
}

TEST(GeneratorTest, ZipfSkewShowsInSamples) {
  WorkloadConfig cfg;
  cfg.num_keys = 100000;
  cfg.zipf_alpha = 0.99;
  WorkloadGenerator gen(cfg);
  int hottest = 0;
  for (int i = 0; i < 50000; ++i) {
    if (gen.Next().key_id == 0) {
      ++hottest;  // rank 0 maps to key 0 before any churn
    }
  }
  // zipf-0.99 over 100K keys: rank 0 carries ~7.5% of the mass.
  EXPECT_GT(hottest, 2500);
  EXPECT_LT(hottest, 5500);
}

TEST(GeneratorTest, UniformWhenAlphaZero) {
  WorkloadConfig cfg;
  cfg.num_keys = 100;
  cfg.zipf_alpha = 0.0;
  WorkloadGenerator gen(cfg);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[gen.Next().key_id];
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(GeneratorTest, SkewedWritesFollowZipf) {
  WorkloadConfig cfg;
  cfg.num_keys = 100000;
  cfg.zipf_alpha = 0.99;
  cfg.write_ratio = 1.0;
  cfg.skewed_writes = true;
  WorkloadGenerator gen(cfg);
  int hottest = 0;
  for (int i = 0; i < 20000; ++i) {
    Query q = gen.Next();
    EXPECT_EQ(q.op, OpCode::kPut);
    if (q.key_id == 0) {
      ++hottest;
    }
  }
  EXPECT_GT(hottest, 800);  // skewed, not uniform (uniform would be ~0.2)
}

TEST(GeneratorTest, UniformWritesIgnoreZipf) {
  WorkloadConfig cfg;
  cfg.num_keys = 100000;
  cfg.zipf_alpha = 0.99;
  cfg.write_ratio = 1.0;
  cfg.skewed_writes = false;
  WorkloadGenerator gen(cfg);
  int hottest = 0;
  for (int i = 0; i < 20000; ++i) {
    if (gen.Next().key_id == 0) {
      ++hottest;
    }
  }
  EXPECT_LT(hottest, 5);
}

TEST(GeneratorTest, WritesCarrySizedValues) {
  WorkloadConfig cfg;
  cfg.num_keys = 100;
  cfg.write_ratio = 1.0;
  cfg.value_size = 64;
  WorkloadGenerator gen(cfg);
  Query q = gen.Next();
  EXPECT_EQ(q.value.size(), 64u);
}

TEST(GeneratorTest, ChurnRedirectsTraffic) {
  WorkloadConfig cfg;
  cfg.num_keys = 10000;
  cfg.zipf_alpha = 0.99;
  WorkloadGenerator gen(cfg);
  gen.popularity().HotIn(10);
  // Rank 0 now maps to previously-coldest key 9990.
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (gen.Next().key_id == 9990) {
      ++hits;
    }
  }
  EXPECT_GT(hits, 1000);
}

TEST(GeneratorTest, DeterministicForSeed) {
  WorkloadConfig cfg;
  cfg.num_keys = 1000;
  cfg.write_ratio = 0.2;
  cfg.seed = 77;
  WorkloadGenerator a(cfg);
  WorkloadGenerator b(cfg);
  for (int i = 0; i < 100; ++i) {
    Query qa = a.Next();
    Query qb = b.Next();
    EXPECT_EQ(qa.key_id, qb.key_id);
    EXPECT_EQ(qa.op, qb.op);
  }
}

// The first keys of a fixed-seed generator, uniform and zipf-0.99, as the
// explicit-table ranking produced them: the implicit identity must draw
// exactly the same keys.
TEST(GeneratorTest, FirstKeysMatchRecordedSequence) {
  const std::vector<uint64_t> uniform = {
      52443, 29490, 24355, 42165, 74819, 80829, 97852, 66296, 9500,  38237, 59037,
      81671, 53840, 49751, 35467, 86830, 36152, 26537, 90840, 72631, 66531, 48471,
      60613, 26274, 45687, 36005, 249,   50435, 44904, 76282, 63460, 65333};
  const std::vector<uint64_t> zipf = {
      209, 3267, 5979, 723,  12,   5,    0,     38,  33641, 1157, 93,
      5,   176,  290,  1609, 2,    1483, 4627,  1,   17,    36,   338,
      76,  4772, 473,  1510, 97197, 267, 520,   10,  54,    42};
  for (auto [alpha, want] : {std::pair{0.0, uniform}, std::pair{0.99, zipf}}) {
    WorkloadConfig cfg;
    cfg.num_keys = 100000;
    cfg.zipf_alpha = alpha;
    cfg.seed = 2024;
    WorkloadGenerator gen(cfg);
    std::vector<uint64_t> got;
    for (size_t i = 0; i < want.size(); ++i) {
      got.push_back(gen.Next().key_id);
    }
    EXPECT_EQ(got, want) << "alpha " << alpha;
  }
}

TEST(YcsbTest, PresetsMatchSpec) {
  Result<WorkloadConfig> a = YcsbConfig(YcsbWorkload::kA, 1000);
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(a->write_ratio, 0.5);
  EXPECT_TRUE(a->skewed_writes);
  EXPECT_DOUBLE_EQ(a->zipf_alpha, 0.99);

  Result<WorkloadConfig> c = YcsbConfig(YcsbWorkload::kC, 1000);
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c->write_ratio, 0.0);

  Result<WorkloadConfig> d = YcsbConfig(YcsbWorkload::kD, 1000);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->skewed_writes);
}

TEST(YcsbTest, ScansRejected) {
  Result<WorkloadConfig> e = YcsbConfig(YcsbWorkload::kE, 1000);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
}

TEST(YcsbTest, PresetDrivesGenerator) {
  Result<WorkloadConfig> b = YcsbConfig(YcsbWorkload::kB, 10000, 5);
  ASSERT_TRUE(b.ok());
  WorkloadGenerator gen(*b);
  int writes = 0;
  for (int i = 0; i < 10000; ++i) {
    writes += gen.Next().op == OpCode::kPut ? 1 : 0;
  }
  EXPECT_NEAR(writes / 10000.0, 0.05, 0.01);
}

}  // namespace
}  // namespace netcache
