// Fixture: fast-path code using the SIMD layer (simd-intrinsics compliant
// twin) — kernels come from common/simd.h, no raw intrinsics.
namespace netcache {
void DigestAll(const uint8_t* const* keys, size_t n, uint64_t* h1, uint64_t* h2) {
  simd::DigestGather16(keys, n, h1, h2);
}
}  // namespace netcache
