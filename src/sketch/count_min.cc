#include "sketch/count_min.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/rng.h"

namespace netcache {

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

uint32_t CountMinSketch::Estimate(const KeyDigest& digest) const {
  uint32_t est = kMaxCounter;
  for (size_t d = 0; d < depth_; ++d) {
    est = std::min<uint32_t>(est, rows_[d][RowIndex(d, digest)]);
  }
  return est;
}

void CountMinSketch::Reset() {
  for (auto& row : rows_) {
    std::fill(row.begin(), row.end(), 0);
  }
}

}  // namespace netcache
