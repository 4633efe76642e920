#include "sketch/bloom.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/rng.h"

namespace netcache {

BloomFilter::BloomFilter(size_t num_hashes, size_t bits_per_partition, uint64_t seed)
    : num_hashes_(num_hashes),
      bits_per_partition_(std::bit_ceil(bits_per_partition)),
      mask_(std::bit_ceil(bits_per_partition) - 1) {
  NC_CHECK(num_hashes > 0 && bits_per_partition > 0);
  uint64_t sm = seed;
  seeds_.reserve(num_hashes);
  partitions_.reserve(num_hashes);
  for (size_t i = 0; i < num_hashes; ++i) {
    seeds_.push_back(SplitMix64(sm));
    partitions_.emplace_back(bits_per_partition_, false);
  }
}

bool BloomFilter::TestAndSet(const KeyDigest& digest) {
  bool already = true;
  for (size_t p = 0; p < num_hashes_; ++p) {
    std::vector<bool>::reference bit = partitions_[p][BitIndex(p, digest)];
    if (!bit) {
      already = false;
      bit = true;
    }
  }
  return already;
}

bool BloomFilter::Test(const KeyDigest& digest) const {
  for (size_t p = 0; p < num_hashes_; ++p) {
    if (!partitions_[p][BitIndex(p, digest)]) {
      return false;
    }
  }
  return true;
}

void BloomFilter::Insert(const KeyDigest& digest) {
  for (size_t p = 0; p < num_hashes_; ++p) {
    partitions_[p][BitIndex(p, digest)] = true;
  }
}

void BloomFilter::TestAndSetBatch(const KeyDigest* digests, size_t n, bool* already) {
  std::fill(already, already + n, true);
  for (size_t p = 0; p < num_hashes_; ++p) {
    std::vector<bool>& part = partitions_[p];
    for (size_t i = 0; i < n; ++i) {
      std::vector<bool>::reference bit = part[BitIndex(p, digests[i])];
      if (!bit) {
        already[i] = false;
        bit = true;
      }
    }
  }
}

void BloomFilter::Reset() {
  for (auto& part : partitions_) {
    std::fill(part.begin(), part.end(), false);
  }
}

double BloomFilter::FillRatio(size_t p) const {
  if (p >= num_hashes_) {
    return 0.0;
  }
  size_t set = static_cast<size_t>(
      std::count(partitions_[p].begin(), partitions_[p].end(), true));
  return static_cast<double>(set) / static_cast<double>(bits_per_partition_);
}

}  // namespace netcache
