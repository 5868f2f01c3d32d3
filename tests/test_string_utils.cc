/**
 * @file
 * Unit tests for util/string_utils.hh.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "util/env.hh"
#include "util/string_utils.hh"

namespace tlat
{
namespace
{

TEST(Trim, Variants)
{
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Split, PreservesEmptyFields)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("a,,c", ','),
              (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTopLevel, IgnoresNestedDelimiters)
{
    EXPECT_EQ(splitTopLevel("AHRT(512,12SR),PT(2^12,A2),", ','),
              (std::vector<std::string>{"AHRT(512,12SR)",
                                        "PT(2^12,A2)", ""}));
    EXPECT_EQ(splitTopLevel("a(b,(c,d)),e", ','),
              (std::vector<std::string>{"a(b,(c,d))", "e"}));
}

TEST(StartsEndsWith, Basics)
{
    EXPECT_TRUE(startsWith("AT(...)", "AT"));
    EXPECT_FALSE(startsWith("AT", "AT("));
    EXPECT_TRUE(endsWith("trace.tltr", ".tltr"));
    EXPECT_FALSE(endsWith("trace.txt", ".tltr"));
    EXPECT_TRUE(startsWith("x", ""));
    EXPECT_TRUE(endsWith("x", ""));
}

TEST(CaseConversion, Ascii)
{
    EXPECT_EQ(toUpper("abC12"), "ABC12");
    EXPECT_EQ(toLower("ABc12"), "abc12");
}

TEST(ParseSize, PlainNumbers)
{
    EXPECT_EQ(parseSize("0"), 0u);
    EXPECT_EQ(parseSize("512"), 512u);
    EXPECT_EQ(parseSize(" 512 "), 512u);
    EXPECT_FALSE(parseSize("").has_value());
    EXPECT_FALSE(parseSize("12a").has_value());
    EXPECT_FALSE(parseSize("-1").has_value());
}

TEST(ParseSize, PowerNotation)
{
    // Table 2 writes pattern table sizes as 2^12.
    EXPECT_EQ(parseSize("2^12"), 4096u);
    EXPECT_EQ(parseSize("2^0"), 1u);
    EXPECT_EQ(parseSize("10^3"), 1000u);
    EXPECT_FALSE(parseSize("2^").has_value());
    EXPECT_FALSE(parseSize("^3").has_value());
    EXPECT_FALSE(parseSize("2^64").has_value());
}

TEST(ParseSize, RejectsValuesAboveUint64Max)
{
    // Over-range numbers are rejected, never wrapped: 2^64 + 1 once
    // read as 1, and 4^32 as 0.
    EXPECT_EQ(parseSize("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_FALSE(parseSize("18446744073709551616").has_value());
    EXPECT_FALSE(parseSize("18446744073709551617").has_value());
    EXPECT_FALSE(parseSize("184467440737095516150").has_value());
    EXPECT_EQ(parseSize("2^63"), std::uint64_t{1} << 63);
    EXPECT_EQ(parseSize("3^40"), 12157665459056928801u);
    EXPECT_FALSE(parseSize("4^32").has_value());
    EXPECT_FALSE(parseSize("3^41").has_value());
    EXPECT_EQ(parseSize("0^5"), 0u);
}

TEST(EnvUnsigned, ParsesLikeParseSize)
{
    constexpr const char *kName = "TLAT_TEST_ENV_UNSIGNED";
    ::unsetenv(kName);
    EXPECT_FALSE(util::envUnsigned(kName).has_value());
    ::setenv(kName, "65536", 1);
    EXPECT_EQ(util::envUnsigned(kName), 65536u);
    ::setenv(kName, "2^10", 1);
    EXPECT_EQ(util::envUnsigned(kName), 1024u);
    ::setenv(kName, "18446744073709551615", 1);
    EXPECT_EQ(util::envUnsigned(kName),
              std::numeric_limits<std::uint64_t>::max());
    // strtoull read -1 as 2^64 - 1 and wrapped 2^64 + 1 to 1.
    for (const char *bad : {"-1", "18446744073709551617", "4^32", "12a",
                            ""}) {
        ::setenv(kName, bad, 1);
        EXPECT_FALSE(util::envUnsigned(kName).has_value()) << bad;
    }
    ::unsetenv(kName);
}

TEST(Join, Basics)
{
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"a"}, ","), "a");
    EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
}

TEST(Format, PrintfStyle)
{
    EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(format("%6.2f", 97.126), " 97.13");
    EXPECT_EQ(format("empty"), "empty");
}

} // namespace
} // namespace tlat
