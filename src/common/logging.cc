#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace netcache {

namespace {

// Initial level comes from NETCACHE_LOG_LEVEL when set: a level name
// (debug/info/warn/error/fatal, case-insensitive) or its numeric value 0-4.
// Unset or unparseable values keep the library-quiet default, WARN.
int InitialLevel() {
  const char* env = std::getenv("NETCACHE_LOG_LEVEL");
  if (env == nullptr || *env == '\0') {
    return static_cast<int>(LogLevel::kWarn);
  }
  std::string value(env);
  for (char& c : value) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (value == "debug" || value == "0") return static_cast<int>(LogLevel::kDebug);
  if (value == "info" || value == "1") return static_cast<int>(LogLevel::kInfo);
  if (value == "warn" || value == "warning" || value == "2")
    return static_cast<int>(LogLevel::kWarn);
  if (value == "error" || value == "3") return static_cast<int>(LogLevel::kError);
  if (value == "fatal" || value == "4") return static_cast<int>(LogLevel::kFatal);
  return static_cast<int>(LogLevel::kWarn);
}

std::atomic<int> g_level{InitialLevel()};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() { return static_cast<LogLevel>(g_level.load()); }

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  // Flush the whole line with a single write so lines from interleaved
  // emitters (tests running in parallel, sanitizer reports) stay readable.
  std::string line = stream_.str();
  std::fwrite(line.data(), 1, line.size(), stderr);
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace netcache
