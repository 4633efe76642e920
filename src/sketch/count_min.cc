#include "sketch/count_min.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"

namespace netcache {

namespace {
constexpr uint16_t kMaxCounter = std::numeric_limits<uint16_t>::max();
}  // namespace

CountMinSketch::CountMinSketch(size_t depth, size_t width, uint64_t seed)
    : depth_(depth), width_(std::bit_ceil(width)), mask_(std::bit_ceil(width) - 1) {
  NC_CHECK(depth > 0 && width > 0);
  uint64_t sm = seed;
  row_seeds_.reserve(depth);
  rows_.reserve(depth);
  for (size_t d = 0; d < depth; ++d) {
    row_seeds_.push_back(SplitMix64(sm));
    rows_.emplace_back(width_, 0);
  }
}

uint32_t CountMinSketch::Update(const KeyDigest& digest) {
  uint32_t est = kMaxCounter;
  for (size_t d = 0; d < depth_; ++d) {
    uint16_t& slot = rows_[d][RowIndex(d, digest)];
    if (slot < kMaxCounter) {
      ++slot;
    }
    est = std::min<uint32_t>(est, slot);
  }
  return est;
}

uint32_t CountMinSketch::UpdateConservative(const KeyDigest& digest) {
  uint32_t current = Estimate(digest);
  uint32_t target = current < kMaxCounter ? current + 1 : current;
  for (size_t d = 0; d < depth_; ++d) {
    uint16_t& slot = rows_[d][RowIndex(d, digest)];
    if (slot < target) {
      slot = static_cast<uint16_t>(target);
    }
  }
  return target;
}

uint32_t CountMinSketch::Estimate(const KeyDigest& digest) const {
  uint32_t est = kMaxCounter;
  for (size_t d = 0; d < depth_; ++d) {
    est = std::min<uint32_t>(est, rows_[d][RowIndex(d, digest)]);
  }
  return est;
}

void CountMinSketch::UpdateBatch(const KeyDigest* digests, size_t n, uint32_t* min_out) {
  for (size_t d = 0; d < depth_; ++d) {
    uint16_t* row = rows_[d].data();
    for (size_t i = 0; i < n; ++i) {
      uint16_t& slot = row[RowIndex(d, digests[i])];
      if (slot < kMaxCounter) {
        ++slot;
      }
      if (min_out != nullptr) {
        min_out[i] = d == 0 ? slot : std::min<uint32_t>(min_out[i], slot);
      }
    }
  }
}

void CountMinSketch::EstimateBatch(const KeyDigest* digests, size_t n, uint32_t* out) const {
  for (size_t d = 0; d < depth_; ++d) {
    const uint16_t* row = rows_[d].data();
    for (size_t i = 0; i < n; ++i) {
      uint16_t v = row[RowIndex(d, digests[i])];
      out[i] = d == 0 ? v : std::min<uint32_t>(out[i], v);
    }
  }
}

void CountMinSketch::UpdateConservativeBatch(const KeyDigest* digests, size_t n,
                                             uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t target = UpdateConservative(digests[i]);
    if (out != nullptr) {
      out[i] = target;
    }
  }
}

void CountMinSketch::Reset() {
  for (auto& row : rows_) {
    std::fill(row.begin(), row.end(), 0);
  }
}

}  // namespace netcache
