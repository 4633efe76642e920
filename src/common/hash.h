// Hash functions used across the project.
//
// Three families:
//   - Mix64 / HashBytes: high-quality general-purpose hashing (MurmurHash3
//     finalizer / a 64-bit FNV-1a + mix combination) for hash tables and key
//     partitioning.
//   - SeededHash: an explicitly seeded multiply-xor-shift family giving the
//     pairwise-independent rows needed by the Count-Min sketch and Bloom
//     filter. The Tofino prototype used "random XORing of bits of the key";
//     seeded mixing is the software equivalent.

#ifndef NETCACHE_COMMON_HASH_H_
#define NETCACHE_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace netcache {

// MurmurHash3 fmix64 finalizer: a fast bijective mixer over 64 bits.
constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// FNV-1a over arbitrary bytes followed by a finalizing mix. Good distribution
// for short keys (ours are 16 bytes).
uint64_t HashBytes(const void* data, size_t len);

// The raw FNV-1a accumulator state before the finalizing Mix64. The key
// digest (proto/key_digest.h) derives two independent 64-bit hashes from this
// one pass, so `Mix64(HashBytesUnmixed(p, n)) == HashBytes(p, n)` is a
// load-bearing identity: a digest's first hash can stand in for HashBytes
// wherever a KeyHasher-keyed table stores precomputed hashes.
uint64_t HashBytesUnmixed(const void* data, size_t len);

// A seeded hash: independent functions for distinct seeds. Suitable for
// sketch rows (approximately pairwise independent on fixed-length keys).
inline uint64_t SeededHash(uint64_t x, uint64_t seed) {
  return Mix64(x ^ (seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull));
}

uint64_t SeededHashBytes(const void* data, size_t len, uint64_t seed);

// Hasher functor for integer keys in the open-addressing tables. The identity
// hash libstdc++ uses for integers clusters catastrophically under a
// power-of-two mask; Mix64 spreads every input bit.
struct UintHasher {
  size_t operator()(uint64_t v) const { return static_cast<size_t>(Mix64(v)); }
};

}  // namespace netcache

#endif  // NETCACHE_COMMON_HASH_H_
