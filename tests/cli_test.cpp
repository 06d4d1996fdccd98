#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace rfc::support {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v = {"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(CliArgs, EqualsSyntax) {
  const auto args = make({"--n=128", "--gamma=2.5"});
  EXPECT_EQ(args.get_uint("n", 0), 128u);
  EXPECT_DOUBLE_EQ(args.get_double("gamma", 0), 2.5);
}

TEST(CliArgs, SpaceSyntax) {
  const auto args = make({"--n", "64"});
  EXPECT_EQ(args.get_uint("n", 0), 64u);
}

TEST(CliArgs, BareFlagIsTrue) {
  const auto args = make({"--full"});
  EXPECT_TRUE(args.get_bool("full"));
  EXPECT_TRUE(args.has("full"));
}

TEST(CliArgs, BoolParsing) {
  EXPECT_TRUE(make({"--x=true"}).get_bool("x"));
  EXPECT_TRUE(make({"--x=1"}).get_bool("x"));
  EXPECT_TRUE(make({"--x=yes"}).get_bool("x"));
  EXPECT_FALSE(make({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=0"}).get_bool("x", true));
}

TEST(CliArgs, DefaultsWhenAbsent) {
  const auto args = make({});
  EXPECT_EQ(args.get("name", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("k", -3), -3);
  EXPECT_EQ(args.get_uint("k", 9), 9u);
  EXPECT_DOUBLE_EQ(args.get_double("k", 1.5), 1.5);
  EXPECT_FALSE(args.get_bool("k"));
  EXPECT_FALSE(args.has("k"));
}

TEST(CliArgs, RejectUnreadNamesEveryFlagNeverRead) {
  const auto args =
      make({"--n=8", "--netwrok=drop=0.5", "--full", "--block-labels=16"});
  EXPECT_EQ(args.get_uint("n", 0), 8u);
  EXPECT_TRUE(args.has("full"));
  EXPECT_EQ(args.get_uint("seed", 3), 3u);  // Absent: nothing to reject.
  try {
    args.reject_unread();
    ADD_FAILURE() << "unread flags were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown flag(s) for this binary: --block-labels, --netwrok");
  }
  // Reading the rest (any getter counts) clears the rejection.
  EXPECT_EQ(args.get("netwrok", ""), "drop=0.5");
  EXPECT_EQ(args.get_uint("block-labels", 0), 16u);
  EXPECT_NO_THROW(args.reject_unread());
  EXPECT_NO_THROW(make({}).reject_unread());
}

TEST(CliArgs, PositionalArguments) {
  const auto args = make({"input.txt", "--n=4", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "extra");
}

TEST(CliArgs, NegativeIntegers) {
  const auto args = make({"--delta=-12"});
  EXPECT_EQ(args.get_int("delta", 0), -12);
}

TEST(CliArgs, FlagFollowedByFlagIsBoolean) {
  const auto args = make({"--a", "--b=2"});
  EXPECT_TRUE(args.get_bool("a"));
  EXPECT_EQ(args.get_uint("b", 0), 2u);
}

TEST(CliArgs, MalformedIntThrowsInsteadOfDefaulting) {
  // A typo must not silently run the experiment with the default value.
  EXPECT_THROW(make({"--n=abc"}).get_int("n", 7), std::invalid_argument);
  EXPECT_THROW(make({"--n="}).get_int("n", 7), std::invalid_argument);
  EXPECT_THROW(make({"--n=12x"}).get_int("n", 7), std::invalid_argument);
  EXPECT_THROW(make({"--n=99999999999999999999"}).get_int("n", 7),
               std::invalid_argument);
}

TEST(CliArgs, MalformedUintThrowsInsteadOfDefaulting) {
  EXPECT_THROW(make({"--n=abc"}).get_uint("n", 7), std::invalid_argument);
  EXPECT_THROW(make({"--n=1.5"}).get_uint("n", 7), std::invalid_argument);
  // strtoull would silently wrap a negative value; we must not.
  EXPECT_THROW(make({"--n=-3"}).get_uint("n", 7), std::invalid_argument);
}

TEST(CliArgs, MalformedDoubleThrowsInsteadOfDefaulting) {
  EXPECT_THROW(make({"--gamma=abc"}).get_double("gamma", 1.0),
               std::invalid_argument);
  EXPECT_THROW(make({"--gamma=1.5x"}).get_double("gamma", 1.0),
               std::invalid_argument);
  EXPECT_THROW(make({"--gamma="}).get_double("gamma", 1.0),
               std::invalid_argument);
}

TEST(CliArgs, MalformedErrorNamesFlagAndValue) {
  try {
    make({"--n=abc"}).get_uint("n", 7);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--n"), std::string::npos);
    EXPECT_NE(what.find("abc"), std::string::npos);
  }
}

TEST(CliArgs, WellFormedNumericValuesStillParse) {
  const auto args = make({"--a=-5", "--b=0", "--c=2.5e3"});
  EXPECT_EQ(args.get_int("a", 0), -5);
  EXPECT_EQ(args.get_uint("b", 9), 0u);
  EXPECT_DOUBLE_EQ(args.get_double("c", 0), 2500.0);
}

}  // namespace
}  // namespace rfc::support
