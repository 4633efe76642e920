// Batch kernels for the switch burst hot path.
//
// The Tofino pipeline the paper models processes register arrays in hardware
// parallel; the software switch keeps vector code only where it measured a
// win. Two kernels live here: the batched FNV/Mix64 key digest (portable
// code, exactly KeyDigest::Of's arithmetic) and the 16-way control-byte group
// scan the cache-lookup FlatTable probes with (SSE2, baseline x86-64, or a
// portable loop elsewhere). Raw intrinsics are confined to src/common/simd*
// (enforced by the `simd-intrinsics` lint rule); callers only ever see the
// entry points declared here.
//
// There is no runtime dispatch: which body runs is fixed at compile time by
// the target architecture, and every body produces the same result.

#ifndef NETCACHE_COMMON_SIMD_H_
#define NETCACHE_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace netcache {

// "sse2" on x86-64 builds (the group scan's vector body), "scalar"
// elsewhere; recorded in bench JSON and netcache_sim metrics config so a
// result names the build's vector level.
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

// ---- 16-way control-byte group scan (inline; SSE2 is x86-64 baseline) ----

// Width of one FlatTable control-byte group; the table mirrors
// kCtrlGroupWidth-1 leading control bytes past its end so a group load never
// needs a wrap branch.
inline constexpr size_t kCtrlGroupWidth = 16;

struct Group16 {
  uint32_t match_mask = 0;  // bit i set: ctrl[i] == tag
  uint32_t empty_mask = 0;  // bit i set: ctrl[i] == 0 (empty slot)
};

// Compares 16 control bytes against `tag` and against empty in two vector
// ops. `tag` is nonzero by construction (bit 7 set), so the masks never
// overlap.
inline Group16 ScanGroup16(const uint8_t* ctrl, uint8_t tag) {
  Group16 g;
#if defined(__SSE2__)
  __m128i group = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
  g.match_mask = static_cast<uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(tag)))));
  g.empty_mask = static_cast<uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(group, _mm_setzero_si128())));
#else
  for (size_t i = 0; i < kCtrlGroupWidth; ++i) {
    if (ctrl[i] == tag) {
      g.match_mask |= 1u << i;
    }
    if (ctrl[i] == 0) {
      g.empty_mask |= 1u << i;
    }
  }
#endif
  return g;
}

}  // namespace simd
}  // namespace netcache

#endif  // NETCACHE_COMMON_SIMD_H_
