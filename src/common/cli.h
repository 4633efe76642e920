// Minimal command-line flag parsing for the tools and benches.
//
// Accepts `--name=value`, `--name value`, and bare `--name` (boolean true);
// everything else is positional. Typed getters record an error instead of
// aborting so tools can print usage. GetInt rejects values outside int64_t
// and values below `min`, 0 unless given: every integer flag is a count, a
// size, a duration or a seed, and callers cast the result to an unsigned
// type. A count the program cannot run with at 0 asks for min 1. GetDouble
// rejects NaN, infinities and values outside [min, max]; a rate or a
// duration asks for min kPositive.

#ifndef NETCACHE_COMMON_CLI_H_
#define NETCACHE_COMMON_CLI_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace netcache {

class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  bool Has(const std::string& name) const { return flags_.count(name) != 0; }

  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def, int64_t min = 0);
  // The smallest positive double: as GetDouble's min, it asks for a value
  // above 0.
  static constexpr double kPositive = std::numeric_limits<double>::denorm_min();
  double GetDouble(const std::string& name, double def,
                   double min = std::numeric_limits<double>::lowest(),
                   double max = std::numeric_limits<double>::max());
  bool GetBool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
};

}  // namespace netcache

#endif  // NETCACHE_COMMON_CLI_H_
