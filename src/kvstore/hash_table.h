// A chained dynamic hash table in the spirit of TommyDS's tommy_hashdyn,
// which the paper's storage servers use (§6). Buckets are singly-linked
// chains of heap nodes; the bucket array doubles when the load factor
// exceeds 1 and halves when it drops below 1/8, keeping chains O(1) expected.
//
// This is the storage-server substrate: simple and allocation-per-node (like
// TommyDS objects).
//
// Thread safety: externally synchronized. Owners that share a table across
// threads hold it behind a Mutex and annotate the member NC_GUARDED_BY (see
// common/thread_annotations.h; storage_server.h is the annotated owner), so
// `clang -Wthread-safety` checks the discipline.

#ifndef NETCACHE_KVSTORE_HASH_TABLE_H_
#define NETCACHE_KVSTORE_HASH_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace netcache {

template <typename K, typename V, typename Hash = std::hash<K>>
class HashDyn {
 public:
  HashDyn() : buckets_(kMinBuckets) {}

  HashDyn(const HashDyn&) = delete;
  HashDyn& operator=(const HashDyn&) = delete;
  HashDyn(HashDyn&&) = default;
  HashDyn& operator=(HashDyn&&) = default;

  // Inserts or overwrites. Returns true if the key was newly inserted.
  bool Upsert(const K& key, V value) {
    size_t h = hash_(key);
    Node* node = FindNode(h, key);
    if (node != nullptr) {
      node->value = std::move(value);
      return false;
    }
    size_t b = h & (buckets_.size() - 1);
    auto fresh = std::make_unique<Node>(Node{key, std::move(value), h, std::move(buckets_[b])});
    buckets_[b] = std::move(fresh);
    ++size_;
    MaybeGrow();
    return true;
  }

  // Returns a pointer to the value, or nullptr if absent. The pointer is
  // invalidated by any mutation of the table.
  V* Find(const K& key) {
    Node* node = FindNode(hash_(key), key);
    return node != nullptr ? &node->value : nullptr;
  }
  const V* Find(const K& key) const {
    const Node* node = const_cast<HashDyn*>(this)->FindNode(hash_(key), key);
    return node != nullptr ? &node->value : nullptr;
  }

  // Precomputed-hash twin of Find: callers that already carry the key's hash
  // — a packet digest's h1 equals Key::Hash() by construction (see
  // proto/key_digest.h) — skip the hash pass over the key bytes. `h` MUST
  // equal Hash()(key) or lookups miss silently.
  const V* FindWithHash(size_t h, const K& key) const {
    const Node* node = const_cast<HashDyn*>(this)->FindNode(h, key);
    return node != nullptr ? &node->value : nullptr;
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  // Two hints for a later Find, Upsert or Erase of a key whose hash is `h`;
  // issued in order, one stage apart, they start its two dependent loads
  // early. Neither changes the table or keeps a pointer, so a rehash in
  // between makes a hint useless, never wrong.
  //
  // Starts loading the bucket slot `h` selects, without reading it.
  void PrefetchBucket(size_t h) const { __builtin_prefetch(&buckets_[h & (buckets_.size() - 1)]); }
  // Reads that slot (it stalls unless PrefetchBucket already warmed it) and
  // starts loading every line of the chain's first node.
  void PrefetchChain(size_t h) const {
    const Node* head = buckets_[h & (buckets_.size() - 1)].get();
    if (head == nullptr) {
      return;
    }
    constexpr uintptr_t kLine = 64;
    const uintptr_t begin = reinterpret_cast<uintptr_t>(head);
    for (uintptr_t line = begin & ~(kLine - 1); line < begin + sizeof(Node); line += kLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }

  // Removes the key. Returns true if it was present.
  bool Erase(const K& key) {
    size_t h = hash_(key);
    size_t b = h & (buckets_.size() - 1);
    std::unique_ptr<Node>* link = &buckets_[b];
    while (*link != nullptr) {
      Node* node = link->get();
      if (node->hash == h && node->key == key) {
        *link = std::move(node->next);
        --size_;
        MaybeShrink();
        return true;
      }
      link = &node->next;
    }
    return false;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t bucket_count() const { return buckets_.size(); }

  // Grows the bucket array to the power of two >= n in one rehash, so a
  // table filled to n items never doubles on the way. Never shrinks: asking
  // for no more buckets than the table has is a no-op.
  void Reserve(size_t n) {
    if (n > buckets_.size()) {
      Rehash(std::bit_ceil(n));
    }
  }

  void Clear() {
    buckets_.clear();
    buckets_.resize(kMinBuckets);
    size_ = 0;
  }

  // Visits every (key, value) pair; `fn(const K&, V&)`.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& head : buckets_) {
      for (Node* node = head.get(); node != nullptr; node = node->next.get()) {
        fn(node->key, node->value);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& head : buckets_) {
      for (const Node* node = head.get(); node != nullptr; node = node->next.get()) {
        fn(node->key, node->value);
      }
    }
  }

  // Structural audit: the size counter matches the live node count, every
  // node's cached hash is current, and every node sits in the bucket its
  // hash selects. Diagnostics for invariant checkers and soak tests.
  bool CheckIntegrity() const {
    size_t counted = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      for (const Node* node = buckets_[b].get(); node != nullptr; node = node->next.get()) {
        ++counted;
        if (node->hash != hash_(node->key)) {
          return false;
        }
        if ((node->hash & (buckets_.size() - 1)) != b) {
          return false;
        }
      }
    }
    return counted == size_;
  }

  // Length of the longest chain (diagnostics; tests assert it stays small).
  size_t MaxChainLength() const {
    size_t longest = 0;
    for (const auto& head : buckets_) {
      size_t len = 0;
      for (const Node* node = head.get(); node != nullptr; node = node->next.get()) {
        ++len;
      }
      longest = longest < len ? len : longest;
    }
    return longest;
  }

 private:
  static constexpr size_t kMinBuckets = 16;

  struct Node {
    K key;
    V value;
    size_t hash;
    std::unique_ptr<Node> next;
  };

  Node* FindNode(size_t h, const K& key) {
    size_t b = h & (buckets_.size() - 1);
    for (Node* node = buckets_[b].get(); node != nullptr; node = node->next.get()) {
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

  void Rehash(size_t new_bucket_count) {
    std::vector<std::unique_ptr<Node>> fresh(new_bucket_count);
    for (auto& head : buckets_) {
      std::unique_ptr<Node> node = std::move(head);
      while (node != nullptr) {
        std::unique_ptr<Node> next = std::move(node->next);
        size_t b = node->hash & (new_bucket_count - 1);
        node->next = std::move(fresh[b]);
        fresh[b] = std::move(node);
        node = std::move(next);
      }
    }
    buckets_ = std::move(fresh);
  }

  Hash hash_;
  std::vector<std::unique_ptr<Node>> buckets_;
  size_t size_ = 0;
};

}  // namespace netcache

#endif  // NETCACHE_KVSTORE_HASH_TABLE_H_
