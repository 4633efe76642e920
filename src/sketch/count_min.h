// Count-Min sketch (Cormode & Muthukrishnan) with saturating 16-bit counters,
// matching the prototype's dimensions: 4 register arrays x 64K slots x 16 bits
// (§6). Each row is an independent hash into its own array, exactly how the
// Tofino lays one register array per stage.
//
// Indexing: the requested width is rounded up to a power of two and probes use
// a mask instead of a modulo. Row hashes come from one KeyDigest via
// Kirsch-Mitzenmacher double hashing rather than a full seeded re-hash per
// row. The error bound is unchanged in form: for width w (only ever rounded
// UP, so never looser than requested), Estimate(key) overshoots the true
// count by more than (e/w)·N with probability at most e^-depth. KM-derived
// rows satisfy the pairwise-independence this bound needs (Kirsch &
// Mitzenmacher, ESA 2006), and the digest's h2 is odd — a unit mod 2^k — so
// masked probes lose no entropy to the power-of-two width.

#ifndef NETCACHE_SKETCH_COUNT_MIN_H_
#define NETCACHE_SKETCH_COUNT_MIN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "proto/key.h"
#include "proto/key_digest.h"

namespace netcache {

class CountMinSketch {
 public:
  // depth: number of rows (hash functions); width: slots per row, rounded up
  // to a power of two. seed: derives the per-row hash seeds.
  CountMinSketch(size_t depth, size_t width, uint64_t seed);

  // Adds one occurrence and returns the post-update estimate (min across
  // rows). This mirrors the data-plane behaviour where the increment and the
  // hot-key comparison happen in the same pipeline pass.
  uint32_t Update(const Key& key) { return Update(KeyDigest::Of(key)); }
  uint32_t Update(const KeyDigest& digest);

  // Conservative update: only increments rows currently at the minimum.
  // Not used by the paper's prototype; provided for the ablation bench.
  uint32_t UpdateConservative(const Key& key) {
    return UpdateConservative(KeyDigest::Of(key));
  }
  uint32_t UpdateConservative(const KeyDigest& digest);

  // Point estimate without updating.
  uint32_t Estimate(const Key& key) const { return Estimate(KeyDigest::Of(key)); }
  uint32_t Estimate(const KeyDigest& digest) const;

  // Batched forms over a burst's digests, bit-identical to calling the
  // per-digest member on digests[0..n) in order (duplicates included: packet
  // i's post-update value in every row sees exactly the increments from
  // packets 0..i). Both walk row-major — one register array at a time, as
  // the pipeline stages do — which commutes with the packet-major scalar
  // order because rows are independent and the in-row packet order is
  // preserved. min_out may be null to discard estimates.
  void UpdateBatch(const KeyDigest* digests, size_t n, uint32_t* min_out);
  void EstimateBatch(const KeyDigest* digests, size_t n, uint32_t* out) const;
  // Conservative update has a cross-row dependency per packet (the estimate
  // gates the raise), so the batch form stays packet-major.
  void UpdateConservativeBatch(const KeyDigest* digests, size_t n, uint32_t* out);

  // Issues prefetches for every row slot the digest will touch, so a later
  // Update/Estimate hits warm cache lines. Used by the burst pipeline.
  void PrefetchProbes(const KeyDigest& digest) const {
    for (size_t d = 0; d < depth_; ++d) {
      __builtin_prefetch(&rows_[d][RowIndex(d, digest)]);
    }
  }

  // Clears all counters (the controller resets the sketch every second, §6).
  void Reset();

  size_t depth() const { return depth_; }
  size_t width() const { return width_; }

  // Total memory footprint in bits, for resource accounting.
  size_t MemoryBits() const { return depth_ * width_ * 16; }

 private:
  size_t RowIndex(size_t row, const KeyDigest& digest) const {
    return static_cast<size_t>(digest.Probe(row_seeds_[row])) & mask_;
  }

  size_t depth_;
  size_t width_;
  size_t mask_;
  std::vector<uint64_t> row_seeds_;
  std::vector<std::vector<uint16_t>> rows_;
};

}  // namespace netcache

#endif  // NETCACHE_SKETCH_COUNT_MIN_H_
