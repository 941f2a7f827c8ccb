// Regression tests for the two CLI parsing bug classes the strict parser
// closes: full-token numeric validation (--threads abc silently became 0
// via atoll; --batch -1 wrapped to ~1.8e19) and unknown-flag rejection
// (--thread 4 used to absorb both tokens and mine with the default).
#include "common/cli_args.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ufim::cli {
namespace {

Args ParseOk(const std::vector<const char*>& argv_tail,
             const std::vector<std::string_view>& switches = {"closed",
                                                              "maximal"}) {
  std::vector<const char*> argv = {"ufim_cli"};
  argv.insert(argv.end(), argv_tail.begin(), argv_tail.end());
  std::string error;
  auto args =
      Args::Parse(static_cast<int>(argv.size()), argv.data(), switches, &error);
  EXPECT_TRUE(args.has_value()) << error;
  return args.value_or(Args{});
}

TEST(CliArgsTest, ParsesPositionalsFlagsAndSwitches) {
  Args args = ParseOk({"mine", "data.udb", "--algorithm", "UApriori",
                       "--closed", "--min-esup", "0.01"});
  ASSERT_EQ(args.positional.size(), 2u);
  EXPECT_EQ(args.positional[0], "mine");
  EXPECT_EQ(args.positional[1], "data.udb");
  EXPECT_STREQ(args.Get("algorithm"), "UApriori");
  EXPECT_STREQ(args.Get("closed"), "1");  // switch: no value consumed
  EXPECT_STREQ(args.Get("min-esup"), "0.01");
  EXPECT_EQ(args.Get("absent"), nullptr);
}

TEST(CliArgsTest, ValueFlagAtEndOfLineFails) {
  const char* argv[] = {"ufim_cli", "mine", "--threads"};
  std::string error;
  EXPECT_FALSE(Args::Parse(3, argv, {}, &error).has_value());
  EXPECT_NE(error.find("--threads"), std::string::npos);
}

TEST(CliArgsTest, GetSizeParsesAndFallsBack) {
  Args args = ParseOk({"--threads", "8"});
  std::size_t value = 0;
  std::string error;
  EXPECT_TRUE(args.GetSize("threads", 1, &value, &error));
  EXPECT_EQ(value, 8u);
  EXPECT_TRUE(args.GetSize("batch", 7, &value, &error));
  EXPECT_EQ(value, 7u);  // absent -> fallback
}

TEST(CliArgsTest, GetSizeRejectsGarbage) {
  // The old atoll path silently returned 0 here.
  Args args = ParseOk({"--threads", "abc"});
  std::size_t value = 123;
  std::string error;
  EXPECT_FALSE(args.GetSize("threads", 1, &value, &error));
  EXPECT_NE(error.find("abc"), std::string::npos);
  EXPECT_EQ(value, 123u);  // untouched on failure
}

TEST(CliArgsTest, GetSizeRejectsNegative) {
  // The old static_cast<size_t>(atoll("-1")) wrapped to ~1.8e19.
  Args args = ParseOk({"--batch", "-1"});
  std::size_t value = 0;
  std::string error;
  EXPECT_FALSE(args.GetSize("batch", 1, &value, &error));
  EXPECT_NE(error.find("-1"), std::string::npos);
}

TEST(CliArgsTest, GetSizeRejectsPartialTokensAndOverflow) {
  std::size_t value = 0;
  std::string error;
  EXPECT_FALSE(ParseOk({"--n", "12x"}).GetSize("n", 1, &value, &error));
  EXPECT_FALSE(ParseOk({"--n", "+3"}).GetSize("n", 1, &value, &error));
  EXPECT_FALSE(ParseOk({"--n", ""}).GetSize("n", 1, &value, &error));
  EXPECT_FALSE(ParseOk({"--n", "99999999999999999999999999"})
                   .GetSize("n", 1, &value, &error));
  EXPECT_TRUE(ParseOk({"--n", "042"}).GetSize("n", 1, &value, &error));
  EXPECT_EQ(value, 42u);
}

TEST(CliArgsTest, GetDoubleParsesFullTokensOnly) {
  double value = 0.0;
  std::string error;
  EXPECT_TRUE(ParseOk({"--pft", "0.9"}).GetDouble("pft", 0.5, &value, &error));
  EXPECT_EQ(value, 0.9);
  EXPECT_TRUE(
      ParseOk({"--pft", "1e-3"}).GetDouble("pft", 0.5, &value, &error));
  EXPECT_EQ(value, 1e-3);
  // atof accepted all of these silently (as 0.5, 0.0, 0.0).
  EXPECT_FALSE(
      ParseOk({"--pft", "0.5x"}).GetDouble("pft", 0.5, &value, &error));
  EXPECT_FALSE(
      ParseOk({"--pft", "zero"}).GetDouble("pft", 0.5, &value, &error));
  EXPECT_FALSE(ParseOk({"--pft", ""}).GetDouble("pft", 0.5, &value, &error));
  EXPECT_FALSE(
      ParseOk({"--pft", "nan"}).GetDouble("pft", 0.5, &value, &error));
  // Absent -> fallback.
  EXPECT_TRUE(ParseOk({}).GetDouble("pft", 0.5, &value, &error));
  EXPECT_EQ(value, 0.5);
}

TEST(CliArgsTest, ValidateRejectsUnknownFlags) {
  // The old parser dropped `--thread 4` (flag and value) on the floor.
  Args args = ParseOk({"mine", "data.udb", "--thread", "4"});
  const FlagSpec mine_spec{
      .value_flags = {"algorithm", "min-esup", "threads"},
      .switches = {"closed"}};
  std::string error;
  EXPECT_FALSE(args.Validate(mine_spec, &error));
  EXPECT_NE(error.find("--thread"), std::string::npos);

  Args good = ParseOk({"mine", "data.udb", "--threads", "4", "--closed"});
  EXPECT_TRUE(good.Validate(mine_spec, &error)) << error;
}

}  // namespace
}  // namespace ufim::cli
