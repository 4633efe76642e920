// Variable-length on-chip value store (paper §4.4.2, Fig 6(b)).
//
// One egress pipe holds kValueUnitSize-byte register arrays across
// `num_stages` stages. A cached value is described by (index, bitmap): the
// value's 16-byte units live at row `index` of each stage whose bit is set in
// `bitmap`, in ascending stage order — the pipeline "appends" each stage's
// slot to the packet's value field as it flows through (Fig 6(b)).
//
// The same index must be used in every participating stage; that constraint
// is what makes memory allocation a bin-packing problem (Alg 2, see
// slot_allocator.h).

#ifndef NETCACHE_DATAPLANE_VALUE_STORE_H_
#define NETCACHE_DATAPLANE_VALUE_STORE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "dataplane/register_array.h"
#include "proto/value.h"

namespace netcache {

// One register-array slot: 16 bytes (§6: "Each stage provides 64K 16-byte
// slots").
using ValueUnit = std::array<uint8_t, kValueUnitSize>;

class ValueStore {
 public:
  // num_stages: value stages in the egress pipe (prototype: 8).
  // num_indexes: rows per stage array (prototype: 64K).
  ValueStore(size_t num_stages, size_t num_indexes);

  // Writes `value` into row `index` of the stages set in `bitmap`, lowest
  // stage first. `size_bytes` of payload are stored; the value must fit:
  // popcount(bitmap) * 16 >= value.size(). Unused tail bytes of the last
  // unit are zero-filled.
  void WriteValue(uint32_t bitmap, size_t index, const Value& value);

  // Reassembles the value stored at (bitmap, index). `size_bytes` trims the
  // concatenated units to the value's exact length (the data plane carries
  // whole units; the exact length rides in the size register, see
  // netcache_switch.h).
  Value ReadValue(uint32_t bitmap, size_t index, size_t size_bytes) const;

  // Same, but assembles directly into `*out` — the data-plane read path fills
  // the packet's value field in place instead of returning a temporary that
  // would immediately be copied again.
  void ReadValueInto(uint32_t bitmap, size_t index, size_t size_bytes, Value* out) const;

  // Batched twin of ReadValueInto: instead of copying, writes one
  // (slot, dst + 16*k) pointer pair per participating unit — the lowest
  // ceil(size_bytes / 16) set bits of `bitmap`, ascending, exactly the units
  // ReadValueInto reads — at srcs/dsts[cursor...] for a later
  // GatherValueSlots pass over a whole burst; returns the advanced
  // cursor. The caller sizes the arrays (≤ kMaxValueSize / 16 pairs per
  // call). Books the same per-stage counted reads as ReadValueInto. The
  // gather copies WHOLE 16-byte units, so `dst` must have
  // ceil(size_bytes / 16) * 16 writable bytes (a Value's 128-byte buffer
  // always does); bytes past size_bytes are unobservable scratch.
  // Defined inline: the burst pipeline calls this once per served hit, and a
  // cross-TU call per packet showed up in the fig09 serve-stage profile.
  size_t StageGather(uint32_t bitmap, size_t index, size_t size_bytes, uint8_t* dst,
                     const uint8_t** srcs, uint8_t** dsts, size_t cursor) const {
    NC_CHECK(index < num_indexes_);
    size_t units_available = static_cast<size_t>(std::popcount(bitmap));
    NC_CHECK(size_bytes <= units_available * kValueUnitSize);
    size_t offset = 0;
    for (size_t stage = 0; stage < stages_.size() && offset < size_bytes; ++stage) {
      if ((bitmap & (1u << stage)) == 0) {
        continue;
      }
      srcs[cursor] = stages_[stage].Read(index).data();
      dsts[cursor] = dst + offset;
      ++cursor;
      offset += kValueUnitSize;
    }
    return cursor;
  }

  // Warms row `index` of every stage set in `bitmap` ahead of a
  // ReadValueInto — the burst pipeline's stage-2 prefetch. Does not count as
  // a stage access (see RegisterArray::Prefetch).
  void Prefetch(uint32_t bitmap, size_t index) const {
    for (size_t stage = 0; bitmap != 0 && stage < stages_.size(); ++stage) {
      if (bitmap & (1u << stage)) {
        stages_[stage].Prefetch(index);
        bitmap &= ~(1u << stage);
      }
    }
  }

  size_t num_stages() const { return stages_.size(); }
  size_t num_indexes() const { return num_indexes_; }

  // Total value SRAM in bits.
  size_t MemoryBits() const;

  // Per-stage access counts (tests assert stage locality).
  uint64_t stage_reads(size_t stage) const { return stages_[stage].reads(); }
  uint64_t stage_writes(size_t stage) const { return stages_[stage].writes(); }

 private:
  size_t num_indexes_;
  std::vector<RegisterArray<ValueUnit>> stages_;
};

// Copies one whole 16-byte unit per StageGather pair: dsts[i][0..15] =
// srcs[i][0..15]. The burst serve stage moves a whole Get run's values in one
// call instead of a per-packet stage loop. Precondition: no dst range
// overlaps any src range (register slots vs packet value fields). Both sides
// must have 16 readable/writable bytes; a value's tail bytes past its exact
// size land in Value scratch that nothing observes (Value::operator== and
// the wire codec stop at size()).
void GatherValueSlots(const uint8_t* const* srcs, uint8_t* const* dsts, size_t n);

}  // namespace netcache

#endif  // NETCACHE_DATAPLANE_VALUE_STORE_H_
