// Partitioned Bloom filter: k hash functions, each owning its own bit array,
// matching the prototype's 3 register arrays x 256K 1-bit slots (§6). Used to
// suppress duplicate heavy-hitter reports to the controller (§4.4.3).
//
// Indexing: bits_per_partition is rounded up to a power of two and probes use
// a mask instead of a modulo; partition hashes are derived from one KeyDigest
// via Kirsch-Mitzenmacher double hashing. The partitioned-Bloom false
// positive bound (1 - e^{-n/m})^k depends on bits m only through its size,
// and m is only ever rounded UP, so the FPR is never worse than the
// requested geometry; KM probes preserve the per-partition uniformity the
// bound assumes (the digest's odd h2 is a unit mod 2^k, so masking loses no
// entropy).

#ifndef NETCACHE_SKETCH_BLOOM_H_
#define NETCACHE_SKETCH_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "proto/key.h"
#include "proto/key_digest.h"

namespace netcache {

class BloomFilter {
 public:
  // num_hashes: number of partitions/hash functions; bits_per_partition:
  // size of each partition's bit array, rounded up to a power of two.
  BloomFilter(size_t num_hashes, size_t bits_per_partition, uint64_t seed);

  // Inserts the key; returns true if it was (possibly) already present
  // before the insert — i.e. all bits were already set.
  bool TestAndSet(const Key& key) { return TestAndSet(KeyDigest::Of(key)); }
  bool TestAndSet(const KeyDigest& digest);

  bool Test(const Key& key) const { return Test(KeyDigest::Of(key)); }
  bool Test(const KeyDigest& digest) const;

  void Insert(const Key& key) { Insert(KeyDigest::Of(key)); }
  void Insert(const KeyDigest& digest);

  void Reset();

  size_t num_hashes() const { return num_hashes_; }
  size_t bits_per_partition() const { return bits_per_partition_; }
  size_t MemoryBits() const { return num_hashes_ * bits_per_partition_; }

  // Fraction of set bits in partition p (diagnostics / ablation).
  double FillRatio(size_t p) const;

 private:
  size_t BitIndex(size_t partition, const KeyDigest& digest) const {
    return static_cast<size_t>(digest.Probe(seeds_[partition])) & mask_;
  }

  size_t num_hashes_;
  size_t bits_per_partition_;
  size_t mask_;
  std::vector<uint64_t> seeds_;
  std::vector<std::vector<bool>> partitions_;
};

}  // namespace netcache

#endif  // NETCACHE_SKETCH_BLOOM_H_
