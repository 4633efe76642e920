// Simulated-time units. The simulator clock is a uint64_t count of
// nanoseconds; these constants keep call sites readable.

#ifndef NETCACHE_COMMON_TIME_UNITS_H_
#define NETCACHE_COMMON_TIME_UNITS_H_

#include <cstdint>

namespace netcache {

using SimTime = uint64_t;      // absolute simulated time, ns
using SimDuration = uint64_t;  // simulated duration, ns

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;

inline constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / 1e9; }

}  // namespace netcache

#endif  // NETCACHE_COMMON_TIME_UNITS_H_
