// Batch kernel for the switch burst hot path.
//
// The Tofino pipeline the paper models processes register arrays in hardware
// parallel; the software switch keeps a batch kernel only where it measured a
// win. One kernel lives here: the batched FNV/Mix64 key digest, portable code
// with exactly KeyDigest::Of's arithmetic. The tree uses no raw intrinsics
// (enforced by the `simd-intrinsics` lint rule), so there is no per-target
// body and no runtime dispatch.

#ifndef NETCACHE_COMMON_SIMD_H_
#define NETCACHE_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace netcache {

// Names the target's baseline vector ISA: "sse2" on x86-64 builds, "scalar"
// elsewhere. Provenance only: no code path depends on it. Bench and
// netcache_sim metrics JSON record it as config.simd_level, so a result
// names the build it came from.
const char* ActiveSimdLevelName();

namespace simd {

// Digests `n` 16-byte keys gathered through a pointer array (keys[i] points
// at one key): one FNV-1a accumulation per key, then
//   h1[i] = Mix64(fnv_i)
//   h2[i] = Mix64(fnv_i ^ 0x9e3779b97f4a7c15) | 1
// exactly KeyDigest::Of's arithmetic (proto/key_digest.h). The burst stage
// hands the kernel each packet's in-place key bytes, so no key is copied.
// Declared on raw u64 arrays so the kernel layer stays below proto/.
void DigestGather16(const uint8_t* const* keys, size_t n, uint64_t* h1, uint64_t* h2);

}  // namespace simd
}  // namespace netcache

#endif  // NETCACHE_COMMON_SIMD_H_
