#include "common/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace netcache {

ArgParser::ArgParser(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

std::string ArgParser::GetString(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

int64_t ArgParser::GetInt(const std::string& name, int64_t def, int64_t min) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return def;
  }
  char* end = nullptr;
  errno = 0;
  int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("--" + name + " expects an integer, got '" + it->second + "'");
    return def;
  }
  if (errno == ERANGE) {
    // strtoll saturated: the value is beyond every int64_t.
    errors_.push_back("--" + name + " is out of range, got '" + it->second + "'");
    return def;
  }
  if (v < min) {
    errors_.push_back("--" + name +
                      (min == 0 ? std::string(" must not be negative")
                                : " must be at least " + std::to_string(min)) +
                      ", got '" + it->second + "'");
    return def;
  }
  return v;
}

double ArgParser::GetDouble(const std::string& name, double def, double min, double max) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return def;
  }
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("--" + name + " expects a number, got '" + it->second + "'");
    return def;
  }
  // NaN fails both comparisons; the default range excludes the infinities.
  if (!(v >= min && v <= max)) {
    std::ostringstream want;
    if (!std::isfinite(v)) {
      want << " must be a finite number";
    } else if (min == kPositive) {
      want << " must be positive";
    } else {
      want << " must lie in [" << min << ", " << max << "]";
    }
    errors_.push_back("--" + name + want.str() + ", got '" + it->second + "'");
    return def;
  }
  return v;
}

bool ArgParser::GetBool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return def;
  }
  return it->second != "false" && it->second != "0" && it->second != "no";
}

}  // namespace netcache
