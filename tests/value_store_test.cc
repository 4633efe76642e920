// Tests for the variable-length on-chip value store (Fig 6(b)) and the
// underlying register arrays.

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.h"
#include "dataplane/register_array.h"
#include "dataplane/value_store.h"

namespace netcache {
namespace {

TEST(RegisterArrayTest, ReadWrite) {
  RegisterArray<uint16_t> arr(8);
  arr.Write(3, 42);
  EXPECT_EQ(arr.Read(3), 42);
  EXPECT_EQ(arr.Read(0), 0);
}

TEST(RegisterArrayTest, ApplyReadModifyWrite) {
  RegisterArray<uint16_t> arr(4);
  arr.Write(1, 10);
  uint16_t v = arr.Apply(1, [](uint16_t x) { return static_cast<uint16_t>(x + 5); });
  EXPECT_EQ(v, 15);
  EXPECT_EQ(arr.Read(1), 15);
}

TEST(RegisterArrayTest, AccessCounting) {
  RegisterArray<uint8_t> arr(4);
  arr.Read(0);
  arr.Read(1);
  arr.Write(2, 1);
  EXPECT_EQ(arr.reads(), 2u);
  EXPECT_EQ(arr.writes(), 1u);
  arr.ResetAccessCounts();
  EXPECT_EQ(arr.reads(), 0u);
}

TEST(RegisterArrayTest, MemoryBits) {
  RegisterArray<uint16_t> arr(1024);
  EXPECT_EQ(arr.MemoryBits(), 1024u * 16);
}

class ValueStoreRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(ValueStoreRoundTrip, WriteReadExact) {
  size_t size = GetParam();
  ValueStore vs(8, 64);
  Value v = Value::Filler(size * 131, size);
  size_t units = v.NumUnits();
  uint32_t bitmap = (1u << units) - 1;  // first `units` stages
  vs.WriteValue(bitmap, 7, v);
  EXPECT_EQ(vs.ReadValue(bitmap, 7, size), v);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ValueStoreRoundTrip,
                         ::testing::Values(1, 15, 16, 17, 31, 32, 48, 64, 100, 127, 128));

TEST(ValueStoreTest, NonContiguousBitmap) {
  // The bitmap need not be contiguous (Fig 6(b): key D uses arrays 0 and 2).
  ValueStore vs(8, 16);
  Value v = Value::Filler(9, 32);
  uint32_t bitmap = 0b00100100;  // stages 2 and 5
  vs.WriteValue(bitmap, 3, v);
  EXPECT_EQ(vs.ReadValue(bitmap, 3, 32), v);
  // Only stages 2 and 5 were touched.
  EXPECT_EQ(vs.stage_writes(2), 1u);
  EXPECT_EQ(vs.stage_writes(5), 1u);
  EXPECT_EQ(vs.stage_writes(0), 0u);
  EXPECT_EQ(vs.stage_writes(1), 0u);
}

TEST(ValueStoreTest, IndependentIndexes) {
  ValueStore vs(4, 8);
  Value a = Value::Filler(1, 16);
  Value b = Value::Filler(2, 16);
  vs.WriteValue(0b0001, 0, a);
  vs.WriteValue(0b0001, 1, b);
  EXPECT_EQ(vs.ReadValue(0b0001, 0, 16), a);
  EXPECT_EQ(vs.ReadValue(0b0001, 1, 16), b);
}

TEST(ValueStoreTest, SharedIndexDifferentStages) {
  // Two values can share a row by using disjoint stage sets (the essence of
  // the bin-packing memory layout).
  ValueStore vs(8, 4);
  Value a = Value::Filler(3, 48);  // 3 units
  Value b = Value::Filler(4, 64);  // 4 units
  vs.WriteValue(0b00000111, 2, a);
  vs.WriteValue(0b01111000, 2, b);
  EXPECT_EQ(vs.ReadValue(0b00000111, 2, 48), a);
  EXPECT_EQ(vs.ReadValue(0b01111000, 2, 64), b);
}

TEST(ValueStoreTest, OverwriteInPlace) {
  ValueStore vs(8, 4);
  vs.WriteValue(0b11, 1, Value::Filler(5, 32));
  Value fresh = Value::Filler(6, 20);  // smaller value, same slots
  vs.WriteValue(0b11, 1, fresh);
  EXPECT_EQ(vs.ReadValue(0b11, 1, 20), fresh);
}

TEST(ValueStoreTest, PrototypeMemoryFootprint) {
  // §6: 8 stages x 64K x 16 B = 8 MB.
  ValueStore vs(8, 64 * 1024);
  EXPECT_EQ(vs.MemoryBits(), 8ull * 64 * 1024 * 16 * 8);
}

TEST(ValueStoreDeathTest, ValueTooLargeForBitmap) {
  ValueStore vs(8, 4);
  Value big = Value::Filler(1, 64);  // 4 units
  EXPECT_DEATH(vs.WriteValue(0b1, 0, big), "does not fit");
}

// ---- StageGather + GatherValueSlots (the burst serve kernel) ----

// Every 8-stage bitmap shape (contiguous, sparse, high-only), slot counts
// 1..8, and ragged sizes that leave tail bytes in the last unit: the gather
// must reconstruct exactly what ReadValue returns.
TEST(GatherValueSlotsTest, MatchesReadValueAllBitmapShapes) {
  ValueStore vs(8, 4);
  for (uint32_t bitmap = 1; bitmap < 256; ++bitmap) {
    size_t units = static_cast<size_t>(std::popcount(bitmap));
    // Sizes that all require exactly `units` slots: full, one short, mid-unit,
    // and a single byte into the last unit.
    for (size_t size : {units * kValueUnitSize, units * kValueUnitSize - 1,
                        units * kValueUnitSize - 7, (units - 1) * kValueUnitSize + 1}) {
      Value v = Value::Filler(bitmap * 1009 + size, size);
      vs.WriteValue(bitmap, 1, v);

      const uint8_t* srcs[8];
      uint8_t* dsts[8];
      Value got;
      got.set_size(size);
      size_t n = vs.StageGather(bitmap, 1, size, got.data(), srcs, dsts, 0);
      ASSERT_EQ(n, units);
      GatherValueSlots(srcs, dsts, n);
      EXPECT_EQ(got, vs.ReadValue(bitmap, 1, size)) << "bitmap=" << bitmap << " size=" << size;
    }
  }
}

// Gather counts 0..9 cover the empty call, the one-at-a-time tail alone
// (1..3), one and two four-deep passes, and a pass plus every tail length.
// Each count gathers single-unit values spread over all stages; every value
// must equal ReadValue and the staging must book the same per-stage reads a
// ReadValueInto per value does.
TEST(GatherValueSlotsTest, EveryGatherCountMatchesPerStageReads) {
  constexpr size_t kStages = 8;
  for (size_t count = 0; count <= 9; ++count) {
    ValueStore gathered(kStages, 16);
    ValueStore reference(kStages, 16);
    std::vector<Value> want(count);
    for (size_t i = 0; i < count; ++i) {
      want[i] = Value::Filler(0xc0de + count * 31 + i, kValueUnitSize - (i % 3));
      gathered.WriteValue(1u << (i % kStages), i, want[i]);
      reference.WriteValue(1u << (i % kStages), i, want[i]);
    }
    const uint8_t* srcs[9];
    uint8_t* dsts[9];
    std::vector<Value> got(count);
    size_t cursor = 0;
    for (size_t i = 0; i < count; ++i) {
      got[i].set_size(want[i].size());
      cursor = gathered.StageGather(1u << (i % kStages), i, want[i].size(), got[i].data(), srcs,
                                    dsts, cursor);
    }
    ASSERT_EQ(cursor, count);
    GatherValueSlots(srcs, dsts, cursor);
    for (size_t i = 0; i < count; ++i) {
      Value read;
      reference.ReadValueInto(1u << (i % kStages), i, want[i].size(), &read);
      EXPECT_EQ(got[i], want[i]) << "count " << count << " value " << i;
      EXPECT_EQ(got[i], read) << "count " << count << " value " << i;
    }
    for (size_t stage = 0; stage < kStages; ++stage) {
      EXPECT_EQ(gathered.stage_reads(stage), reference.stage_reads(stage))
          << "count " << count << " stage " << stage;
    }
  }
}

// Cross-packet accumulation, the way ProcessGetRun uses it: one pointer-pair
// array spans many values, the kernel runs once over the whole run. Odd pair
// counts exercise the unroll tail.
TEST(GatherValueSlotsTest, BatchedRunMatchesPerValueReads) {
  constexpr size_t kValues = 37;  // odd total, mixed unit counts
  ValueStore vs(8, kValues + 1);
  std::vector<Value> want(kValues);
  std::vector<uint32_t> bitmaps(kValues);
  for (size_t i = 0; i < kValues; ++i) {
    size_t units = 1 + (i % 8);
    size_t size = units * kValueUnitSize - (i % kValueUnitSize);
    bitmaps[i] = (1u << units) - 1;
    want[i] = Value::Filler(0xfeed + i * 77, size);
    vs.WriteValue(bitmaps[i], i, want[i]);
  }
  std::vector<const uint8_t*> srcs(kValues * 8);
  std::vector<uint8_t*> dsts(kValues * 8);
  std::vector<Value> got(kValues);
  size_t cursor = 0;
  for (size_t i = 0; i < kValues; ++i) {
    got[i].set_size(want[i].size());
    cursor = vs.StageGather(bitmaps[i], i, want[i].size(), got[i].data(), srcs.data(),
                            dsts.data(), cursor);
  }
  GatherValueSlots(srcs.data(), dsts.data(), cursor);
  for (size_t i = 0; i < kValues; ++i) {
    EXPECT_EQ(got[i], want[i]) << "value " << i;
    EXPECT_EQ(got[i], vs.ReadValue(bitmaps[i], i, want[i].size()));
  }
}

}  // namespace
}  // namespace netcache
