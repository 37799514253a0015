#include "pscd/util/args.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace pscd {
namespace {

ArgParser makeParser() {
  ArgParser p("prog", "test program");
  p.addOption("name", "a string", "default");
  p.addOption("count", "an integer", "3");
  p.addOption("ratio", "a double", "0.5");
  p.addFlag("verbose", "talk more");
  return p;
}

bool parse(ArgParser& p, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, DefaultsApply) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.option("name"), "default");
  EXPECT_EQ(p.optionInt("count"), 3);
  EXPECT_DOUBLE_EQ(p.optionDouble("ratio"), 0.5);
  EXPECT_FALSE(p.flag("verbose"));
}

TEST(ArgsTest, SpaceSeparatedValues) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--name", "abc", "--count", "42"}));
  EXPECT_EQ(p.option("name"), "abc");
  EXPECT_EQ(p.optionInt("count"), 42);
}

TEST(ArgsTest, EqualsSeparatedValues) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--ratio=0.25", "--name=x=y"}));
  EXPECT_DOUBLE_EQ(p.optionDouble("ratio"), 0.25);
  EXPECT_EQ(p.option("name"), "x=y");
}

TEST(ArgsTest, FlagsParse) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--verbose"}));
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(ArgsTest, HelpReturnsFalseWithoutError) {
  auto p = makeParser();
  EXPECT_FALSE(parse(p, {"--help"}));
  EXPECT_TRUE(p.error().empty());
  EXPECT_NE(p.help().find("--count"), std::string::npos);
  EXPECT_NE(p.help().find("default: 3"), std::string::npos);
}

TEST(ArgsTest, ErrorsReported) {
  auto p = makeParser();
  EXPECT_FALSE(parse(p, {"--nope"}));
  EXPECT_NE(p.error().find("unknown option"), std::string::npos);
  EXPECT_FALSE(parse(p, {"--name"}));
  EXPECT_NE(p.error().find("missing value"), std::string::npos);
  EXPECT_FALSE(parse(p, {"positional"}));
  EXPECT_NE(p.error().find("positional"), std::string::npos);
  EXPECT_FALSE(parse(p, {"--verbose=1"}));
  EXPECT_NE(p.error().find("takes no value"), std::string::npos);
}

TEST(ArgsTest, TypeErrorsThrow) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--count", "abc", "--ratio", "x"}));
  EXPECT_THROW(p.optionInt("count"), std::invalid_argument);
  EXPECT_THROW(p.optionDouble("ratio"), std::invalid_argument);
}

TEST(ArgsTest, UndeclaredAccessThrows) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.option("missing"), std::logic_error);
  EXPECT_THROW(p.flag("name"), std::logic_error);    // option, not flag
  EXPECT_THROW(p.option("verbose"), std::logic_error);  // flag, not option
}

TEST(ArgsTest, MalformedInputRejectedWithNamedError) {
  auto p = makeParser();
  EXPECT_FALSE(parse(p, {"--"}));
  EXPECT_NE(p.error().find("missing option name"), std::string::npos);
  EXPECT_FALSE(parse(p, {"--=value"}));
  EXPECT_NE(p.error().find("missing option name"), std::string::npos);
  EXPECT_FALSE(parse(p, {nullptr}));
  EXPECT_NE(p.error().find("null argument"), std::string::npos);
}

TEST(ArgsTest, NonFiniteAndOverflowingDoublesThrow) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--ratio", "nan"}));
  EXPECT_THROW(p.optionDouble("ratio"), std::invalid_argument);
  ASSERT_TRUE(parse(p, {"--ratio", "inf"}));
  EXPECT_THROW(p.optionDouble("ratio"), std::invalid_argument);
  ASSERT_TRUE(parse(p, {"--ratio", "1e999"}));
  EXPECT_THROW(p.optionDouble("ratio"), std::invalid_argument);
  ASSERT_TRUE(parse(p, {"--ratio", "0x1p2"}));  // hexfloat stays accepted
  EXPECT_DOUBLE_EQ(p.optionDouble("ratio"), 4.0);
}

TEST(ArgsTest, EmbeddedJunkBytesAreJustStrings) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--name", "\x01\xff\x7f"}));
  EXPECT_EQ(p.option("name"), "\x01\xff\x7f");
  ASSERT_TRUE(parse(p, {"--count", "9223372036854775807"}));
  EXPECT_EQ(p.optionInt("count"), 9223372036854775807ll);
  ASSERT_TRUE(parse(p, {"--count", "9223372036854775808"}));  // overflow
  EXPECT_THROW(p.optionInt("count"), std::invalid_argument);
}

/// The message of the std::invalid_argument `read` throws ("" if none).
template <typename Read>
std::string rejection(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ArgsTest, RangedIntAcceptsItsBoundsAndRejectsBeyond) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.optionInt("count", 1, 10), 3);  // the default is range-checked
  EXPECT_NE(rejection([&] { p.optionInt("count", 4, 10); }), "");
  ASSERT_TRUE(parse(p, {"--count", "0"}));
  EXPECT_EQ(p.optionInt("count", 0, 65535), 0);
  ASSERT_TRUE(parse(p, {"--count", "65535"}));
  EXPECT_EQ(p.optionInt("count", 0, 65535), 65535);
  ASSERT_TRUE(parse(p, {"--count", "65536"}));
  EXPECT_EQ(rejection([&] { p.optionInt("count", 0, 65535); }),
            "option --count: out of range [0, 65535]: 65536");
  ASSERT_TRUE(parse(p, {"--count=70000"}));
  EXPECT_NE(rejection([&] { p.optionInt("count", 0, 65535); }), "");
  ASSERT_TRUE(parse(p, {"--count", "abc"}));  // malformed stays malformed
  EXPECT_EQ(rejection([&] { p.optionInt("count", 0, 65535); }),
            "option --count: not an integer: abc");
}

TEST(ArgsTest, RangedIntRejectsNegativesForUnsignedFields) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--count", "-1"}));
  EXPECT_EQ(p.optionInt("count"), -1);  // the unranged read is unchanged
  EXPECT_NE(rejection([&] { p.optionInt("count", 0, 65535); }), "");
  EXPECT_NE(rejection([&] {
              p.optionInt("count", 1,
                          std::numeric_limits<std::int64_t>::max());
            }),
            "");
  ASSERT_TRUE(parse(p, {"--count", "-9223372036854775808"}));
  EXPECT_NE(rejection([&] { p.optionInt("count", 0, 1); }), "");
}

TEST(ArgsTest, ParseIntNamesTheValueItRejects) {
  EXPECT_EQ(ArgParser::parseInt("port", "9", 1, 65535), 9);
  EXPECT_EQ(ArgParser::parseInt("port", "65535", 1, 65535), 65535);
  EXPECT_EQ(rejection([] { ArgParser::parseInt("port", "70001", 1, 65535); }),
            "port: out of range [1, 65535]: 70001");
  EXPECT_NE(rejection([] { ArgParser::parseInt("port", "0", 1, 65535); }), "");
  EXPECT_NE(rejection([] { ArgParser::parseInt("port", "-1", 1, 65535); }),
            "");
  EXPECT_EQ(rejection([] { ArgParser::parseInt("port", "", 1, 65535); }),
            "port: not an integer: ");
  EXPECT_NE(rejection([] { ArgParser::parseInt("port", "9x", 1, 65535); }),
            "");
}

TEST(ArgsTest, ReparseResetsState) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--verbose", "--name", "a"}));
  ASSERT_TRUE(parse(p, {}));
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_EQ(p.option("name"), "default");
}

}  // namespace
}  // namespace pscd
