// Out-of-line kernels for common/simd.h.

#include "common/simd.h"

#include "common/hash.h"

namespace netcache {

const char* ActiveSimdLevelName() {
#if defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

namespace simd {

// KeyDigest::Of's arithmetic (HashBytesUnmixed's FNV-1a, then the two
// mixes); sketch_test holds it to KeyDigest::Of. The FNV loop is written
// out for the fixed 16-byte key rather than calling HashBytesUnmixed: fully
// unrolled, it lets the CPU overlap consecutive keys' serial multiply
// chains, which the per-call byte loop does not.
void DigestGather16(const uint8_t* const* keys, size_t n, uint64_t* h1, uint64_t* h2) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t fnv = 0xcbf29ce484222325ull;
    for (size_t b = 0; b < 16; ++b) {
      fnv = (fnv ^ keys[i][b]) * 0x100000001b3ull;
    }
    h1[i] = Mix64(fnv);
    h2[i] = Mix64(fnv ^ 0x9e3779b97f4a7c15ull) | 1;
  }
}

}  // namespace simd
}  // namespace netcache
