// Mutable popularity ranking: a permutation from Zipf rank (0 = hottest) to
// key id, plus the three dynamic-workload mutations of §7.1:
//
//   Hot-in:  the N coldest keys jump to the top of the ranking.
//   Random:  N keys sampled from the top M are swapped with N random cold keys.
//   Hot-out: the N hottest keys fall to the bottom.
//
// The ranking starts as the identity, and most runs never mutate it, so it
// stays implicit until the first mutation builds the rank -> key table
// (8 bytes per key: 8 MB at 1M keys). Until then KeyAtRank(r) is r, which
// spares every query a random read of that table.

#ifndef NETCACHE_WORKLOAD_POPULARITY_H_
#define NETCACHE_WORKLOAD_POPULARITY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace netcache {

class PopularityMap {
 public:
  // Identity ranking over `num_keys` key ids: rank r -> key id r.
  explicit PopularityMap(uint64_t num_keys) : num_keys_(num_keys) {}

  uint64_t KeyAtRank(uint64_t rank) const {
    return rank_to_key_.empty() ? rank : rank_to_key_[rank];
  }
  uint64_t num_keys() const { return num_keys_; }

  // Moves the `n` coldest keys to the top; everything else shifts down by n.
  void HotIn(uint64_t n);

  // Moves the `n` hottest keys to the bottom; everything else shifts up by n.
  void HotOut(uint64_t n);

  // Picks `n` distinct ranks uniformly from the top `m`, and swaps each with
  // a distinct rank picked uniformly from outside the top `m`.
  void RandomReplace(uint64_t n, uint64_t m, Rng& rng);

  // Returns the key ids currently occupying the top `n` ranks.
  std::vector<uint64_t> TopKeys(uint64_t n) const;

 private:
  // Builds the explicit table from the identity, once, before a mutation.
  void Materialize();

  uint64_t num_keys_;
  std::vector<uint64_t> rank_to_key_;  // empty while the ranking is the identity
};

}  // namespace netcache

#endif  // NETCACHE_WORKLOAD_POPULARITY_H_
