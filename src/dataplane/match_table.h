// Exact-match match-action table (§4.4.1, Fig 5(d) / Fig 6).
//
// Maps a packet header field (here: the 16-byte KEY) to per-entry action
// data. Entry count is bounded by the table's provisioned size, mirroring
// the SRAM allocated to the table at compile time; control-plane inserts
// beyond capacity fail with kResourceExhausted.
//
// The substrate is the open-addressing FlatTable (robin-hood linear probing)
// rather than the chained HashDyn: Match() is the first stop of every
// NetCache packet, and flat probing avoids the per-lookup pointer chase —
// the software stand-in for the hardware's single-cycle exact-match SRAM.

#ifndef NETCACHE_DATAPLANE_MATCH_TABLE_H_
#define NETCACHE_DATAPLANE_MATCH_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "kvstore/flat_table.h"
#include "proto/key.h"

namespace netcache {

template <typename Action>
class ExactMatchTable {
 public:
  explicit ExactMatchTable(size_t capacity) : capacity_(capacity) {}

  // Data-plane lookup. Returns the action data or nullptr on a table miss.
  const Action* Match(const Key& key) const { return entries_.Find(key); }

  // Lookup with a precomputed hash (== KeyHasher()(key), which the data
  // plane carries on the packet as KeyDigest::h1).
  const Action* PeekWithHash(const Key& key, size_t h) const {
    return entries_.FindWithHash(h, key);
  }

  // Warms the home bucket for a later *WithHash lookup.
  void Prefetch(size_t h) const { entries_.PrefetchHash(h); }

  // Control-plane entry management (via the switch driver, §3).
  Status InsertEntry(const Key& key, Action action) {
    if (entries_.Contains(key)) {
      return Status::AlreadyExists("match entry exists");
    }
    if (entries_.size() >= capacity_) {
      return Status::ResourceExhausted("match table full");
    }
    entries_.Upsert(key, std::move(action));
    return Status::Ok();
  }

  Status ModifyEntry(const Key& key, Action action) {
    if (!entries_.Contains(key)) {
      return Status::NotFound("no match entry");
    }
    entries_.Upsert(key, std::move(action));
    return Status::Ok();
  }

  Status RemoveEntry(const Key& key) {
    if (!entries_.Erase(key)) {
      return Status::NotFound("no match entry");
    }
    return Status::Ok();
  }

  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    entries_.ForEach([&fn](const Key& k, const Action& a) { fn(k, a); });
  }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  FlatTable<Key, Action, KeyHasher> entries_;
};

}  // namespace netcache

#endif  // NETCACHE_DATAPLANE_MATCH_TABLE_H_
