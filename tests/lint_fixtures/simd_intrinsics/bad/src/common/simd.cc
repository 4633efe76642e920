// Fixture: raw intrinsic inside src/common/simd*, the kernel layer
// (simd-intrinsics). The rule exempts no path: a lint change that adds a
// carve-out fails the selftest.
#include <emmintrin.h>
namespace netcache::simd {
uint32_t MatchMask16(const uint8_t* ctrl, uint8_t tag) {
  __m128i group = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
  return static_cast<uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(tag)))));
}
}  // namespace netcache::simd
