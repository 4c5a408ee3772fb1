#include "util/string_util.h"

#include <gtest/gtest.h>

#include "util/saturating.h"

namespace pgm {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, AdjacentDelimitersYieldEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
}

TEST(SplitTest, LeadingAndTrailingDelimiters) {
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(SplitTest, EmptyInputIsSingleEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(SplitJoinTest, RoundTrip) {
  const std::string input = "x|y||z";
  EXPECT_EQ(Join(Split(input, '|'), "|"), input);
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(CaseTest, ToUpperAndLowerAreAsciiOnly) {
  EXPECT_EQ(ToUpper("acgt123"), "ACGT123");
  EXPECT_EQ(ToLower("ACGT123"), "acgt123");
}

TEST(EscapeJsonTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(EscapeJson("plain.name-1"), "plain.name-1");
  EXPECT_EQ(EscapeJson("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(EscapeJson("\n\t\r\x01\x1f"), "\\n\\t\\r\\u0001\\u001f");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("no args"), "no args");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_arg(5000, 'y');
  std::string formatted = StrFormat("[%s]", long_arg.c_str());
  EXPECT_EQ(formatted.size(), 5002u);
  EXPECT_EQ(formatted.front(), '[');
  EXPECT_EQ(formatted.back(), ']');
}

TEST(ParseInt64Test, ParsesValidIntegers) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-17"), -17);
  EXPECT_EQ(*ParseInt64("  99  "), 99);
  EXPECT_EQ(*ParseInt64("0"), 0);
}

TEST(ParseInt64Test, RejectsGarbage) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("x12").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("  ").ok());
}

TEST(ParseInt64Test, RejectsOverflow) {
  StatusOr<std::int64_t> result = ParseInt64("99999999999999999999999");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(ParseDoubleTest, ParsesValidDoubles) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble(" 0.003 "), 0.003);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.5z").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(ThousandsTest, InsertsSeparators) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandsSeparators(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSeparators(1000000000ULL), "1,000,000,000");
}

TEST(FormatCountTest, SmallCountsExact) {
  EXPECT_EQ(FormatCount(1234), "1,234");
}

TEST(FormatCountTest, HugeCountsScientific) {
  EXPECT_EQ(FormatCount(100'000'000'000ULL), "1.000e+11");
}

TEST(FormatCountTest, SaturatedCountsFlagged) {
  EXPECT_EQ(FormatCount(kSaturatedCount), "2^64-sat");
}

}  // namespace
}  // namespace pgm
