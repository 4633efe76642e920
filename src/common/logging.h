// Minimal leveled logging with a stream interface and a fatal CHECK macro.
//
// Usage:
//   NC_LOG(INFO) << "cache insert key=" << key;
//   NC_CHECK(index < size) << "index out of range: " << index;
//
// The log level is process-global and defaults to WARN so library code stays
// quiet in benchmarks. The NETCACHE_LOG_LEVEL environment variable sets it at
// start-up (a level name such as "debug", or its numeric value 0-4).

#ifndef NETCACHE_COMMON_LOGGING_H_
#define NETCACHE_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace netcache {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kFatal = 4,
};

LogLevel GetLogLevel();

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();  // flushes; aborts on kFatal

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// A no-op sink so disabled log statements still type-check their operands.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace netcache

#define NC_LOG_DEBUG ::netcache::LogLevel::kDebug
#define NC_LOG_INFO ::netcache::LogLevel::kInfo
#define NC_LOG_WARN ::netcache::LogLevel::kWarn
#define NC_LOG_ERROR ::netcache::LogLevel::kError
#define NC_LOG_FATAL ::netcache::LogLevel::kFatal

#define NC_LOG(severity)                                             \
  if (NC_LOG_##severity < ::netcache::GetLogLevel()) {               \
  } else                                                             \
    ::netcache::LogMessage(NC_LOG_##severity, __FILE__, __LINE__).stream()

#define NC_CHECK(cond)                                                            \
  if (cond) {                                                                     \
  } else                                                                          \
    ::netcache::LogMessage(::netcache::LogLevel::kFatal, __FILE__, __LINE__)      \
        .stream()                                                                 \
        << "Check failed: " #cond " "

#endif  // NETCACHE_COMMON_LOGGING_H_
