// Tests for the command-line argument parser behind the utilrisk tool.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "cli/args.hpp"

namespace utilrisk::cli {
namespace {

ArgParser make_parser() {
  ArgParser parser("utilrisk test", "test parser");
  parser.option("jobs", "N", "job count", "100")
      .option("model", "M", "economic model", "commodity")
      .option("needed", "X", "a required option", "", /*required=*/true)
      .flag("verbose", "chatty output")
      .positional("input", "input file", /*required=*/false);
  return parser;
}

TEST(ArgParserTest, DefaultsApplyWhenAbsent) {
  ArgParser parser = make_parser();
  parser.parse({"--needed", "v"});
  EXPECT_EQ(parser.get("jobs"), "100");
  EXPECT_EQ(parser.get_int("jobs", 1), 100);
  EXPECT_EQ(parser.get("model"), "commodity");
  EXPECT_FALSE(parser.get_flag("verbose"));
  EXPECT_FALSE(parser.positional_value("input").has_value());
}

TEST(ArgParserTest, ParsesSeparateAndInlineValues) {
  ArgParser parser = make_parser();
  parser.parse({"--needed", "v", "--jobs", "250", "--model=bid"});
  EXPECT_EQ(parser.get_int("jobs", 1), 250);
  EXPECT_EQ(parser.get("model"), "bid");
  EXPECT_TRUE(parser.has("jobs"));
  EXPECT_FALSE(parser.has("verbose"));
}

TEST(ArgParserTest, FlagsAndPositionals) {
  ArgParser parser = make_parser();
  parser.parse({"--needed", "v", "--verbose", "trace.swf"});
  EXPECT_TRUE(parser.get_flag("verbose"));
  ASSERT_TRUE(parser.positional_value("input").has_value());
  EXPECT_EQ(*parser.positional_value("input"), "trace.swf");
}

TEST(ArgParserTest, HelpShortCircuits) {
  ArgParser parser = make_parser();
  parser.parse({"--help"});
  EXPECT_TRUE(parser.help_requested());
  // Missing required option is not an error under --help.
}

TEST(ArgParserTest, ErrorsAreSpecific) {
  {
    ArgParser parser = make_parser();
    EXPECT_THROW(parser.parse({"--needed", "v", "--bogus", "1"}), ArgError);
  }
  {
    ArgParser parser = make_parser();
    EXPECT_THROW(parser.parse({"--needed", "v", "--jobs"}), ArgError)
        << "option without a value";
  }
  {
    ArgParser parser = make_parser();
    EXPECT_THROW(parser.parse({"--jobs", "3"}), ArgError)
        << "missing required option";
  }
  {
    ArgParser parser = make_parser();
    EXPECT_THROW(parser.parse({"--needed", "v", "--verbose=1"}), ArgError)
        << "flags take no value";
  }
  {
    ArgParser parser = make_parser();
    EXPECT_THROW(parser.parse({"--needed", "v", "a", "b"}), ArgError)
        << "too many positionals";
  }
}

TEST(ArgParserTest, DuplicateSingleValuedOptionIsAnError) {
  {
    ArgParser parser = make_parser();
    try {
      parser.parse({"--needed", "v", "--jobs", "10", "--jobs", "20"});
      FAIL() << "duplicate --jobs must throw";
    } catch (const ArgError& e) {
      EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("more than once"),
                std::string::npos);
    }
  }
  {
    // Inline (=) and separate forms count as the same occurrence.
    ArgParser parser = make_parser();
    EXPECT_THROW(
        parser.parse({"--needed", "v", "--model=bid", "--model", "commodity"}),
        ArgError);
  }
  {
    // Repeating a flag stays idempotent, not an error.
    ArgParser parser = make_parser();
    parser.parse({"--needed", "v", "--verbose", "--verbose"});
    EXPECT_TRUE(parser.get_flag("verbose"));
  }
}

TEST(ArgParserTest, TypedAccessValidates) {
  ArgParser parser = make_parser();
  parser.parse({"--needed", "v", "--jobs", "12.5"});
  EXPECT_THROW((void)parser.get_int("jobs", 1), ArgError);
  EXPECT_DOUBLE_EQ(parser.get_double("jobs", 0), 12.5);
  ArgParser parser2 = make_parser();
  parser2.parse({"--needed", "v", "--jobs", "abc"});
  EXPECT_THROW((void)parser2.get_double("jobs", 0), ArgError);
}

/// The ArgError message of get_double(name, min, max) on `value`, or ""
/// when it does not throw.
std::string double_error(const std::string& value, double min,
                         double max = std::numeric_limits<double>::max()) {
  ArgParser parser = make_parser();
  parser.parse({"--needed", "v", "--jobs", value});
  try {
    (void)parser.get_double("jobs", min, max);
  } catch (const ArgError& e) {
    return e.what();
  }
  return "";
}

TEST(ArgParserTest, DoubleRangeIsInclusive) {
  EXPECT_EQ(double_error("0", 0, 100), "");
  EXPECT_EQ(double_error("100", 0, 100), "");
  EXPECT_EQ(double_error("0.001", 0.001, 86400), "");
  EXPECT_EQ(double_error("1e300", 0), "");
}

TEST(ArgParserTest, OutOfRangeDoubleNamesTheOptionAndRange) {
  EXPECT_EQ(double_error("100.5", 0, 100),
            "option --jobs: 100.5 is out of range [0, 100]");
  EXPECT_EQ(double_error("0", 0.001, 86400),
            "option --jobs: 0 is out of range [0.001, 86400]");
  EXPECT_EQ(double_error("-1", 0),
            "option --jobs: -1 is out of range (must be >= 0)");
  EXPECT_EQ(double_error("12x", 0), "option --jobs: '12x' is not a number");
}

TEST(ArgParserTest, NonFiniteDoubleIsOutOfRange) {
  // std::from_chars reads these; none may reach a config field.
  for (const std::string value :
       {"nan", "-nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1e999"}) {
    EXPECT_EQ(double_error(value, -1000, 1000),
              "option --jobs: " + value + " is out of range [-1000, 1000]");
    EXPECT_NE(double_error(value, 0), "") << value;
  }
}

/// The ArgError message of get_int(name, min, max) on `value`, or "" when
/// it does not throw.
std::string int_error(const std::string& value, long min, long max) {
  ArgParser parser = make_parser();
  parser.parse({"--needed", "v", "--jobs", value});
  try {
    (void)parser.get_int("jobs", min, max);
  } catch (const ArgError& e) {
    return e.what();
  }
  return "";
}

TEST(ArgParserTest, IntegerRangeIsInclusive) {
  EXPECT_EQ(int_error("1", 1, 65535), "");
  EXPECT_EQ(int_error("65535", 1, 65535), "");
  EXPECT_EQ(int_error("0", 0, 0), "");
  EXPECT_EQ(int_error("-5", -10, -1), "");
}

TEST(ArgParserTest, OutOfRangeIntegerNamesTheOptionAndRange) {
  EXPECT_EQ(int_error("-1", 1, 4294967295),
            "option --jobs: -1 is out of range [1, 4294967295]");
  EXPECT_EQ(int_error("70000", 0, 65535),
            "option --jobs: 70000 is out of range [0, 65535]");
  // Without an upper bound only the minimum is stated.
  EXPECT_EQ(int_error("-1", 0, std::numeric_limits<long>::max()),
            "option --jobs: -1 is out of range (must be >= 0)");
}

TEST(ArgParserTest, IntegerBeyondLongIsOutOfRangeNotWrapped) {
  EXPECT_EQ(int_error("99999999999999999999", 0, 10),
            "option --jobs: 99999999999999999999 is out of range [0, 10]");
  EXPECT_EQ(int_error("-99999999999999999999", 0, 10),
            "option --jobs: -99999999999999999999 is out of range [0, 10]");
  EXPECT_EQ(int_error("12x", 0, 100), "option --jobs: '12x' is not an integer");
  EXPECT_EQ(int_error("", 0, 100), "option --jobs: '' is not an integer");
}

TEST(ArgParserTest, UsageListsEverything) {
  const ArgParser parser = make_parser();
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("--jobs <N>"), std::string::npos);
  EXPECT_NE(usage.find("(default: 100)"), std::string::npos);
  EXPECT_NE(usage.find("[required]"), std::string::npos);
  EXPECT_NE(usage.find("<input>"), std::string::npos)
      << usage;
}

TEST(ArgParserTest, RequiredPositionalEnforced) {
  ArgParser parser("cmd", "s");
  parser.positional("file", "the file", /*required=*/true);
  EXPECT_THROW(parser.parse({}), ArgError);
}

TEST(SplitCsvTest, SplitsAndTrims) {
  EXPECT_EQ(split_csv("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv(" 0.25 ,0.5,  0.25"),
            (std::vector<std::string>{"0.25", "0.5", "0.25"}));
  EXPECT_EQ(split_csv("single"), (std::vector<std::string>{"single"}));
  EXPECT_EQ(split_csv("a,,b"), (std::vector<std::string>{"a", "", "b"}));
}

}  // namespace
}  // namespace utilrisk::cli
