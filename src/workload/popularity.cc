#include "workload/popularity.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"

namespace netcache {

void PopularityMap::Materialize() {
  if (rank_to_key_.empty()) {
    rank_to_key_.resize(num_keys_);
    std::iota(rank_to_key_.begin(), rank_to_key_.end(), 0ull);
  }
}

void PopularityMap::HotIn(uint64_t n) {
  NC_CHECK(n <= num_keys_);
  Materialize();
  // Right-rotate by n: the last n entries (coldest) move to the front.
  std::rotate(rank_to_key_.begin(), rank_to_key_.end() - static_cast<ptrdiff_t>(n),
              rank_to_key_.end());
}

void PopularityMap::HotOut(uint64_t n) {
  NC_CHECK(n <= num_keys_);
  Materialize();
  // Left-rotate by n: the first n entries (hottest) move to the back.
  std::rotate(rank_to_key_.begin(), rank_to_key_.begin() + static_cast<ptrdiff_t>(n),
              rank_to_key_.end());
}

void PopularityMap::RandomReplace(uint64_t n, uint64_t m, Rng& rng) {
  NC_CHECK(m <= num_keys_);
  NC_CHECK(n <= m);
  NC_CHECK(n <= num_keys_ - m);
  Materialize();
  // Sample n distinct hot ranks in [0, m) and n distinct cold ranks in
  // [m, num_keys), then swap them pairwise.
  std::unordered_set<uint64_t> hot_ranks;
  while (hot_ranks.size() < n) {
    hot_ranks.insert(rng.NextBounded(m));
  }
  std::unordered_set<uint64_t> cold_ranks;
  while (cold_ranks.size() < n) {
    cold_ranks.insert(m + rng.NextBounded(num_keys_ - m));
  }
  auto hot_it = hot_ranks.begin();
  auto cold_it = cold_ranks.begin();
  for (uint64_t i = 0; i < n; ++i, ++hot_it, ++cold_it) {
    std::swap(rank_to_key_[*hot_it], rank_to_key_[*cold_it]);
  }
}

std::vector<uint64_t> PopularityMap::TopKeys(uint64_t n) const {
  NC_CHECK(n <= num_keys_);
  if (rank_to_key_.empty()) {
    std::vector<uint64_t> top(n);
    std::iota(top.begin(), top.end(), 0ull);
    return top;
  }
  return std::vector<uint64_t>(rank_to_key_.begin(), rank_to_key_.begin() + static_cast<ptrdiff_t>(n));
}

}  // namespace netcache
