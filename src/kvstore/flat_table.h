// Open-addressing hash table with robin-hood probing and backward-shift
// deletion — an alternative store substrate to HashDyn, trading pointer
// chasing for cache-friendly linear probing (the direction the in-memory-KV
// literature the paper cites has moved: MemC3's cuckoo tables, MICA's
// lossy/lossless indexes). micro_datastructures benchmarks both.
//
// Properties:
//   - power-of-two capacity, max load factor 7/8, amortized O(1) ops;
//   - robin hood: an inserting element displaces residents closer to their
//     home slot, keeping probe-length variance (and worst-case lookups) low;
//   - backward-shift deletion: no tombstones, lookups never degrade;
//   - one probe: Locate walks slot by slot from the home slot and stops at
//     the first empty slot or the first resident closer to its own home
//     than the key would be (robin hood would have displaced it by then).

#ifndef NETCACHE_KVSTORE_FLAT_TABLE_H_
#define NETCACHE_KVSTORE_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace netcache {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatTable {
 public:
  FlatTable() { Rebuild(kMinCapacity); }

  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;
  FlatTable(FlatTable&&) = default;
  FlatTable& operator=(FlatTable&&) = default;

  // Inserts or overwrites; returns true when the key was new.
  bool Upsert(const K& key, V value) {
    MaybeGrow();
    return UpsertNoGrow(Slot{true, 0, hash_(key), key, std::move(value)});
  }

  V* Find(const K& key) {
    size_t idx;
    return Locate(hash_(key), key, &idx) ? &slots_[idx].value : nullptr;
  }
  const V* Find(const K& key) const {
    size_t idx;
    return const_cast<FlatTable*>(this)->Locate(hash_(key), key, &idx)
               ? &slots_[idx].value
               : nullptr;
  }
  bool Contains(const K& key) const { return Find(key) != nullptr; }

  // Precomputed-hash lookups for callers that already hold hash_(key) — the
  // burst pipeline carries it on the packet as KeyDigest::h1. `h` MUST equal
  // hash_(key); the slots store their hash, so a mismatched value simply
  // never matches.
  V* FindWithHash(size_t h, const K& key) {
    size_t idx;
    return Locate(h, key, &idx) ? &slots_[idx].value : nullptr;
  }
  const V* FindWithHash(size_t h, const K& key) const {
    size_t idx;
    return const_cast<FlatTable*>(this)->Locate(h, key, &idx)
               ? &slots_[idx].value
               : nullptr;
  }

  // Warms the home bucket for a later FindWithHash(h, ...). Robin-hood keeps
  // probe sequences short, so the home slot's line covers most lookups.
  void PrefetchHash(size_t h) const { __builtin_prefetch(&slots_[h & (slots_.size() - 1)]); }

  bool Erase(const K& key) {
    size_t idx;
    if (!Locate(hash_(key), key, &idx)) {
      return false;
    }
    // Backward shift: pull successors one slot closer to home until an
    // empty slot or an element already at home distance 0.
    size_t mask = slots_.size() - 1;
    size_t hole = idx;
    while (true) {
      size_t next = (hole + 1) & mask;
      if (!slots_[next].used || slots_[next].distance == 0) {
        slots_[hole] = Slot{};
        break;
      }
      slots_[hole] = std::move(slots_[next]);
      --slots_[hole].distance;
      hole = next;
    }
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  void Clear() {
    slots_.assign(kMinCapacity, Slot{});
    size_ = 0;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.used) {
        fn(s.key, s.value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) {
        fn(s.key, s.value);
      }
    }
  }

  // Longest probe sequence currently in the table (robin hood keeps this
  // small; tests assert it).
  size_t MaxProbeLength() const {
    size_t longest = 0;
    for (const Slot& s : slots_) {
      if (s.used) {
        longest = std::max(longest, static_cast<size_t>(s.distance));
      }
    }
    return longest;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    bool used = false;
    uint32_t distance = 0;  // probes from the home slot
    size_t hash = 0;
    K key{};
    V value{};
  };

  bool Locate(size_t h, const K& key, size_t* out) {
    size_t mask = slots_.size() - 1;
    size_t idx = h & mask;
    uint32_t distance = 0;
    while (true) {
      const Slot& s = slots_[idx];
      if (!s.used || s.distance < distance) {
        return false;  // would have displaced it by now
      }
      if (s.hash == h && s.key == key) {
        *out = idx;
        return true;
      }
      idx = (idx + 1) & mask;
      ++distance;
    }
  }

  bool UpsertNoGrow(Slot incoming) {
    size_t mask = slots_.size() - 1;
    size_t idx = incoming.hash & mask;
    bool inserted_new = true;
    bool counted = false;
    while (true) {
      Slot& s = slots_[idx];
      if (!s.used) {
        s = std::move(incoming);
        if (!counted) {
          ++size_;
        }
        return inserted_new;
      }
      if (!counted && s.hash == incoming.hash && s.key == incoming.key) {
        s.value = std::move(incoming.value);
        return false;  // overwrite
      }
      if (s.distance < incoming.distance) {
        std::swap(s, incoming);  // robin hood: rich slot yields to the poor
        if (!counted) {
          ++size_;
          counted = true;
          // From here on we are re-homing a displaced resident, not the new
          // key: equality checks no longer apply.
        }
      }
      idx = (idx + 1) & mask;
      ++incoming.distance;
    }
  }

  void MaybeGrow() {
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      Rebuild(slots_.size() * 2);
    }
  }

  void Rebuild(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    size_ = 0;
    for (Slot& s : old) {
      if (s.used) {
        s.distance = 0;
        UpsertNoGrow(std::move(s));
      }
    }
  }

  Hash hash_;
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace netcache

#endif  // NETCACHE_KVSTORE_FLAT_TABLE_H_
