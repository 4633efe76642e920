// Fixture: raw intrinsic in a fast-path file (simd-intrinsics).
#include <immintrin.h>
namespace netcache {
void AddRows(int* a, const int* b) {
  __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(a), _mm256_add_epi32(va, vb));
}
}  // namespace netcache
