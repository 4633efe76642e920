// Tests for the command-line argument parser used by tools/netcache_sim.

#include <limits>

#include <gtest/gtest.h>

#include "common/cli.h"

namespace netcache {
namespace {

ArgParser Parse(std::vector<const char*> argv) {
  return ArgParser(static_cast<int>(argv.size()),
                   const_cast<char**>(const_cast<const char**>(argv.data())));
}

TEST(ArgParserTest, EqualsSyntax) {
  ArgParser args = Parse({"prog", "--servers=16", "--zipf=0.95"});
  EXPECT_EQ(args.GetInt("servers", 0), 16);
  EXPECT_DOUBLE_EQ(args.GetDouble("zipf", 0), 0.95);
  EXPECT_TRUE(args.ok());
}

TEST(ArgParserTest, SpaceSyntax) {
  ArgParser args = Parse({"prog", "--servers", "8", "--mode", "leaf"});
  EXPECT_EQ(args.GetInt("servers", 0), 8);
  EXPECT_EQ(args.GetString("mode", ""), "leaf");
}

TEST(ArgParserTest, BareFlagIsTrue) {
  ArgParser args = Parse({"prog", "--no-cache"});
  EXPECT_TRUE(args.GetBool("no-cache", false));
  EXPECT_FALSE(args.GetBool("other", false));
}

TEST(ArgParserTest, BoolFalseSpellings) {
  for (const char* spelling : {"--x=false", "--x=0", "--x=no"}) {
    ArgParser args = Parse({"prog", spelling});
    EXPECT_FALSE(args.GetBool("x", true)) << spelling;
  }
}

TEST(ArgParserTest, PositionalArguments) {
  ArgParser args = Parse({"prog", "rack", "--servers=4", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "rack");
  EXPECT_EQ(args.positional()[1], "extra");
}

TEST(ArgParserTest, DefaultsWhenAbsent) {
  ArgParser args = Parse({"prog"});
  EXPECT_EQ(args.GetInt("servers", 42), 42);
  EXPECT_DOUBLE_EQ(args.GetDouble("zipf", 0.9), 0.9);
  EXPECT_EQ(args.GetString("mode", "dflt"), "dflt");
}

TEST(ArgParserTest, BadIntegerRecordsError) {
  // A negative count would wrap to nearly 2^64 in the callers' unsigned
  // casts; a value beyond int64_t would saturate to INT64_MAX.
  for (const char* bad : {"--servers=banana", "--servers=-1", "--servers=99999999999999999999"}) {
    ArgParser args = Parse({"prog", bad});
    EXPECT_EQ(args.GetInt("servers", 7), 7) << bad;
    EXPECT_FALSE(args.ok()) << bad;
    ASSERT_EQ(args.errors().size(), 1u) << bad;
  }
}

TEST(ArgParserTest, IntegerBelowMinimumRecordsError) {
  ArgParser args = Parse({"prog", "--servers=0", "--cache=0"});
  EXPECT_EQ(args.GetInt("servers", 7, 1), 7);
  EXPECT_EQ(args.GetInt("cache", 7), 0);
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_NE(args.errors()[0].find("--servers must be at least 1"), std::string::npos)
      << args.errors()[0];
}

TEST(ArgParserTest, BadDoubleRecordsError) {
  ArgParser args = Parse({"prog", "--zipf=xx"});
  EXPECT_DOUBLE_EQ(args.GetDouble("zipf", 1.5), 1.5);
  EXPECT_FALSE(args.ok());
}

TEST(ArgParserTest, DoubleOutsideRangeRecordsError) {
  // NaN and the infinities are never a value; a rate or a duration must be
  // positive; a ratio must lie in [0, 1]. Each error names the flag and the
  // getter returns the default.
  struct Case {
    const char* arg;
    double min;
    double max;
    const char* want;
  };
  constexpr double kLowest = std::numeric_limits<double>::lowest();
  constexpr double kMax = std::numeric_limits<double>::max();
  for (const Case& c : {Case{"--x=nan", kLowest, kMax, "--x must be a finite number"},
                        Case{"--x=inf", kLowest, kMax, "--x must be a finite number"},
                        Case{"--x=-inf", ArgParser::kPositive, kMax, "--x must be a finite number"},
                        Case{"--x=0", ArgParser::kPositive, kMax, "--x must be positive"},
                        Case{"--x=-5", ArgParser::kPositive, kMax, "--x must be positive"},
                        Case{"--x=2", 0.0, 1.0, "--x must lie in [0, 1]"},
                        Case{"--x=-0.5", 0.0, 1.0, "--x must lie in [0, 1]"}}) {
    ArgParser args = Parse({"prog", c.arg});
    EXPECT_DOUBLE_EQ(args.GetDouble("x", 0.25, c.min, c.max), 0.25) << c.arg;
    ASSERT_EQ(args.errors().size(), 1u) << c.arg;
    EXPECT_NE(args.errors()[0].find(c.want), std::string::npos) << args.errors()[0];
  }
  ArgParser ok = Parse({"prog", "--rate=1e-9", "--ratio=1", "--zero=0"});
  EXPECT_DOUBLE_EQ(ok.GetDouble("rate", 5, ArgParser::kPositive), 1e-9);
  EXPECT_DOUBLE_EQ(ok.GetDouble("ratio", 5, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ok.GetDouble("zero", 5, 0.0, 1.0), 0.0);
  EXPECT_TRUE(ok.ok());
}

TEST(ArgParserTest, ScientificNotationDouble) {
  ArgParser args = Parse({"prog", "--rate=1e7"});
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0), 1e7);
  EXPECT_TRUE(args.ok());
}

}  // namespace
}  // namespace netcache
