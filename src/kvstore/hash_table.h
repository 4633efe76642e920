// A chained dynamic hash table in the spirit of TommyDS's tommy_hashdyn,
// which the paper's storage servers use (§6). Buckets are singly-linked
// chains of nodes; the bucket array doubles when the load factor exceeds 1
// and halves when it drops below 1/8, keeping chains O(1) expected.
//
// This is the storage-server substrate. A node is {next, the low 32 bits of
// the key's hash, key, value}, 160 bytes for the servers' Key/Value, and it
// lives in a per-table slab instead of a heap allocation of its own:
//   - Upsert takes a slot from the table's free list, or else the next slot
//     of its newest chunk. Chunks grow by half from a few slots and stay
//     below glibc's 128 KiB mmap threshold, so a table torn down and rebuilt
//     in one process reuses the same heap pages.
//   - Erase destroys the node and keeps its slot on the free list for the
//     next insert. Memory returns to the heap only at Clear, move-assign or
//     destruction.
// Buckets are selected by the stored 32-bit hash, so the bucket array never
// exceeds 2^32 entries.
//
// Thread safety: externally synchronized. Owners that share a table across
// threads hold it behind a Mutex and annotate the member NC_GUARDED_BY (see
// common/thread_annotations.h; storage_server.h is the annotated owner), so
// `clang -Wthread-safety` checks the discipline.

#ifndef NETCACHE_KVSTORE_HASH_TABLE_H_
#define NETCACHE_KVSTORE_HASH_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace netcache {

template <typename K, typename V, typename Hash = std::hash<K>>
class HashDyn {
 public:
  HashDyn() : buckets_(kMinBuckets) {}
  ~HashDyn() { DestroyNodes(); }

  HashDyn(const HashDyn&) = delete;
  HashDyn& operator=(const HashDyn&) = delete;
  // A moved-from table holds no buckets: only destruction, assignment or
  // Clear may follow.
  HashDyn(HashDyn&& other) noexcept { *this = std::move(other); }
  HashDyn& operator=(HashDyn&& other) noexcept {
    if (this != &other) {
      DestroyNodes();
      hash_ = std::move(other.hash_);
      buckets_ = std::exchange(other.buckets_, {});
      size_ = std::exchange(other.size_, 0);
      chunks_ = std::exchange(other.chunks_, {});
      next_slot_ = std::exchange(other.next_slot_, nullptr);
      chunk_end_ = std::exchange(other.chunk_end_, nullptr);
      next_chunk_slots_ = std::exchange(other.next_chunk_slots_, kFirstChunkSlots);
      free_ = std::exchange(other.free_, nullptr);
    }
    return *this;
  }

  // Inserts or overwrites. Returns true if the key was newly inserted.
  bool Upsert(const K& key, V value) {
    const uint32_t h = static_cast<uint32_t>(hash_(key));
    Node* node = FindNode(h, key);
    if (node != nullptr) {
      node->value = std::move(value);
      return false;
    }
    Node*& head = buckets_[BucketOf(h)];
    head = ::new (AllocateSlot()) Node{head, h, key, std::move(value)};
    ++size_;
    MaybeGrow();
    return true;
  }

  // Returns a pointer to the value, or nullptr if absent. The pointer is
  // invalidated by any mutation of the table.
  V* Find(const K& key) {
    Node* node = FindNode(static_cast<uint32_t>(hash_(key)), key);
    return node != nullptr ? &node->value : nullptr;
  }
  const V* Find(const K& key) const {
    const Node* node = FindNode(static_cast<uint32_t>(hash_(key)), key);
    return node != nullptr ? &node->value : nullptr;
  }

  // Precomputed-hash twin of Find: callers that already carry the key's hash
  // — a packet digest's h1 equals Key::Hash() by construction (see
  // proto/key_digest.h) — skip the hash pass over the key bytes. `h` MUST
  // equal Hash()(key) or lookups miss silently.
  const V* FindWithHash(size_t h, const K& key) const {
    const Node* node = FindNode(static_cast<uint32_t>(h), key);
    return node != nullptr ? &node->value : nullptr;
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  // Two hints for a later Find, Upsert or Erase of a key whose hash is `h`;
  // issued in order, one stage apart, they start its two dependent loads
  // early. Neither changes the table or keeps a pointer, so a rehash in
  // between makes a hint useless, never wrong.
  //
  // Starts loading the bucket slot `h` selects, without reading it.
  void PrefetchBucket(size_t h) const {
    __builtin_prefetch(static_cast<const void*>(&buckets_[BucketOf(static_cast<uint32_t>(h))]));
  }
  // Reads that slot (it stalls unless PrefetchBucket already warmed it) and
  // starts loading every line of the chain's first node.
  void PrefetchChain(size_t h) const {
    const Node* head = buckets_[BucketOf(static_cast<uint32_t>(h))];
    if (head == nullptr) {
      return;
    }
    constexpr uintptr_t kLine = 64;
    const uintptr_t begin = reinterpret_cast<uintptr_t>(head);
    for (uintptr_t line = begin & ~(kLine - 1); line < begin + sizeof(Node); line += kLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }

  // Removes the key. Returns true if it was present. Its slot goes on the
  // free list, where the next insert takes it.
  bool Erase(const K& key) {
    const uint32_t h = static_cast<uint32_t>(hash_(key));
    for (Node** link = &buckets_[BucketOf(h)]; *link != nullptr; link = &(*link)->next) {
      Node* node = *link;
      if (node->hash == h && node->key == key) {
        *link = node->next;
        RecycleSlot(node);
        --size_;
        MaybeShrink();
        return true;
      }
    }
    return false;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t bucket_count() const { return buckets_.size(); }

  // Grows the bucket array to the power of two >= n in one rehash, so a
  // table filled to n items never doubles on the way. Never shrinks: asking
  // for no more buckets than the table has is a no-op. Sizes buckets only;
  // node slots are still carved chunk by chunk as items arrive.
  void Reserve(size_t n) {
    if (n > buckets_.size()) {
      NC_CHECK(n <= kMaxBuckets) << "HashDyn::Reserve(" << n << ") needs more than 2^32 buckets";
      Rehash(std::bit_ceil(n));
    }
  }

  // Destroys every item and returns every chunk to the heap.
  void Clear() { *this = HashDyn(); }

  // Visits every (key, value) pair; `fn(const K&, V&)`.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Node* head : buckets_) {
      for (Node* node = head; node != nullptr; node = node->next) {
        fn(node->key, node->value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Node* head : buckets_) {
      for (const Node* node = head; node != nullptr; node = node->next) {
        fn(node->key, node->value);
      }
    }
  }

  // Structural audit: the size counter matches the live node count, every
  // node's stored 32-bit hash is current, and every node sits in the bucket
  // its hash selects. Diagnostics for invariant checkers and soak tests.
  bool CheckIntegrity() const {
    size_t counted = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      for (const Node* node = buckets_[b]; node != nullptr; node = node->next) {
        ++counted;
        if (node->hash != static_cast<uint32_t>(hash_(node->key))) {
          return false;
        }
        if (BucketOf(node->hash) != b) {
          return false;
        }
      }
    }
    return counted == size_;
  }

  // Length of the longest chain (diagnostics; tests assert it stays small).
  size_t MaxChainLength() const {
    size_t longest = 0;
    for (const Node* head : buckets_) {
      size_t len = 0;
      for (const Node* node = head; node != nullptr; node = node->next) {
        ++len;
      }
      longest = longest < len ? len : longest;
    }
    return longest;
  }

 private:
  struct Node {
    Node* next;
    uint32_t hash;  // the low 32 bits of Hash()(key)
    K key;
    V value;
  };
  // What an erased slot holds while it waits on the free list.
  struct FreeSlot {
    FreeSlot* next;
  };

  static constexpr size_t kMinBuckets = 16;
  static constexpr size_t kMaxBuckets = size_t{1} << 32;
  // Chunk sizes grow by half from kFirstChunkSlots slots up to
  // kMaxChunkSlots. Growing by half rather than doubling leaves less of a
  // small table's newest chunk unused (the fabric's 156-key stores). 32 KiB
  // keeps every chunk far below glibc's 128 KiB mmap threshold and small
  // enough to fill the heap holes that a bulk load's growing vectors leave:
  // on the 1M-key rack, a 120 KiB cap read 1.6 MiB more peak RSS.
  static constexpr size_t kFirstChunkSlots = 4;
  static constexpr size_t kMaxChunkBytes = 32 * 1024;
  static constexpr size_t kMaxChunkSlots = std::max<size_t>(1, kMaxChunkBytes / sizeof(Node));
  static_assert(alignof(Node) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  size_t BucketOf(uint32_t h) const { return h & (buckets_.size() - 1); }

  Node* FindNode(uint32_t h, const K& key) const {
    for (Node* node = buckets_[BucketOf(h)]; node != nullptr; node = node->next) {
      if (node->hash == h && node->key == key) {
        return node;
      }
    }
    return nullptr;
  }

  void MaybeGrow() {
    if (size_ > buckets_.size()) {
      Rehash(buckets_.size() * 2);
    }
  }

  void MaybeShrink() {
    if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 8) {
      Rehash(buckets_.size() / 2);
    }
  }

  // Relinks every node into a fresh bucket array, walking the old buckets in
  // order and pushing each node onto its new chain's head.
  void Rehash(size_t new_bucket_count) {
    NC_CHECK(new_bucket_count <= kMaxBuckets) << "HashDyn needs more than 2^32 buckets";
    std::vector<Node*> fresh(new_bucket_count, nullptr);
    for (Node* node : buckets_) {
      while (node != nullptr) {
        Node* next = node->next;
        Node*& head = fresh[node->hash & (new_bucket_count - 1)];
        node->next = head;
        head = node;
        node = next;
      }
    }
    buckets_ = std::move(fresh);
  }

  // A slot for one node: the most recently freed one, else the next unused
  // slot of the newest chunk.
  void* AllocateSlot() {
    if (free_ != nullptr) {
      FreeSlot* slot = free_;
      free_ = slot->next;
      return slot;
    }
    if (next_slot_ == chunk_end_) {
      const size_t bytes = next_chunk_slots_ * sizeof(Node);
      chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(bytes));
      next_slot_ = chunks_.back().get();
      chunk_end_ = next_slot_ + bytes;
      next_chunk_slots_ = std::min(next_chunk_slots_ + next_chunk_slots_ / 2, kMaxChunkSlots);
    }
    void* slot = next_slot_;
    next_slot_ += sizeof(Node);
    return slot;
  }

  void RecycleSlot(Node* node) {
    node->~Node();
    free_ = ::new (static_cast<void*>(node)) FreeSlot{free_};
  }

  // Runs every live node's destructor. The chunks stay; the caller drops
  // them.
  void DestroyNodes() {
    if constexpr (!std::is_trivially_destructible_v<Node>) {
      for (Node* node : buckets_) {
        while (node != nullptr) {
          Node* next = node->next;
          node->~Node();
          node = next;
        }
      }
    }
  }

  Hash hash_;
  std::vector<Node*> buckets_;
  size_t size_ = 0;
  // The slab: every chunk, the unused tail of the newest one, and the free
  // list of erased slots.
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* next_slot_ = nullptr;
  std::byte* chunk_end_ = nullptr;
  size_t next_chunk_slots_ = kFirstChunkSlots;
  FreeSlot* free_ = nullptr;
};

}  // namespace netcache

#endif  // NETCACHE_KVSTORE_HASH_TABLE_H_
