/**
 * @file
 * Tests for the string helpers, most importantly the checked
 * formatting primitive the R3 lint rule points every fixed-buffer
 * snprintf at: truncation must panic, never pass silently (the
 * PR 4 peak-power cache-key bug class).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fastcap {
namespace {

TEST(CheckedSnprintf, FormatsAndReturnsLength)
{
    char buf[32];
    const int n = checkedSnprintf(buf, sizeof(buf), "%.6g", 0.25);
    EXPECT_EQ(n, 4);
    EXPECT_STREQ(buf, "0.25");
}

TEST(CheckedSnprintf, ExactFitIsStillAFullBuffer)
{
    // 5 characters + terminator exactly fills a 6-byte buffer.
    char buf[6];
    EXPECT_EQ(checkedSnprintf(buf, sizeof(buf), "%d", 12345), 5);
    EXPECT_STREQ(buf, "12345");
}

TEST(CheckedSnprintf, TruncationPanics)
{
    char buf[8];
    EXPECT_THROW(checkedSnprintf(buf, sizeof(buf), "%.6f", 1e300),
                 PanicError);
    // One byte short: would need 8 chars + NUL.
    EXPECT_THROW(checkedSnprintf(buf, sizeof(buf), "%08d", 7),
                 PanicError);
}

TEST(Trimmed, StripsAsciiWhitespace)
{
    EXPECT_EQ(trimmed("  a b\t\r"), "a b");
    EXPECT_EQ(trimmed("\t \r"), "");
    EXPECT_EQ(trimmed("x"), "x");
}

TEST(ParseDouble, StrictFullStringParse)
{
    double v = 0.0;
    EXPECT_TRUE(parseDouble("2.5e-3", v));
    EXPECT_EQ(v, 2.5e-3);
    EXPECT_FALSE(parseDouble("", v));
    EXPECT_FALSE(parseDouble("1.0x", v));
    EXPECT_FALSE(parseDouble("nan", v));
    EXPECT_FALSE(parseDouble("inf", v));
}

TEST(ParseInt, DecimalAndHexNeverOctal)
{
    int v = 0;
    EXPECT_TRUE(parseInt("010", v));
    EXPECT_EQ(v, 10);
    EXPECT_TRUE(parseInt("08", v));
    EXPECT_EQ(v, 8);
    EXPECT_TRUE(parseInt("0x10", v));
    EXPECT_EQ(v, 16);
    EXPECT_TRUE(parseInt("0XfF", v));
    EXPECT_EQ(v, 255);
    EXPECT_TRUE(parseInt("-0x10", v));
    EXPECT_EQ(v, -16);
    EXPECT_TRUE(parseInt("+7", v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(parseInt("0", v));
    EXPECT_EQ(v, 0);
}

TEST(ParseInt, RejectsJunkAndLeavesOutAlone)
{
    int v = 42;
    for (const char *bad : {"", " ", "-", "+", "0x", "0xg", "12abc",
                            "1.5", "1e3", "16 ", "0x1p3", "--1", "abc",
                            "nan", "1,2"}) {
        EXPECT_FALSE(parseInt(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 42) << "'" << bad << "'";
    }
}

TEST(ParseInt, OverflowPerType)
{
    std::int8_t i8 = 0;
    EXPECT_TRUE(parseInt("127", i8));
    EXPECT_TRUE(parseInt("-128", i8));
    EXPECT_EQ(i8, -128);
    EXPECT_FALSE(parseInt("128", i8));
    EXPECT_FALSE(parseInt("-129", i8));

    int i = 0;
    EXPECT_TRUE(parseInt("2147483647", i));
    EXPECT_TRUE(parseInt("-2147483648", i));
    EXPECT_EQ(i, -2147483647 - 1);
    EXPECT_FALSE(parseInt("2147483648", i));
    EXPECT_FALSE(parseInt("-2147483649", i));
    // 2^32 + 4 must not wrap to 4.
    EXPECT_FALSE(parseInt("4294967300", i));

    std::int64_t i64 = 0;
    EXPECT_TRUE(parseInt("-9223372036854775808", i64));
    EXPECT_EQ(i64, INT64_MIN);
    EXPECT_TRUE(parseInt("0x7fffffffffffffff", i64));
    EXPECT_EQ(i64, INT64_MAX);
    EXPECT_FALSE(parseInt("9223372036854775808", i64));
    EXPECT_FALSE(parseInt("-9223372036854775809", i64));

    std::uint32_t u32 = 0;
    EXPECT_TRUE(parseInt("4294967295", u32));
    EXPECT_EQ(u32, 4294967295u);
    EXPECT_FALSE(parseInt("4294967296", u32));

    std::uint64_t u64 = 0;
    EXPECT_TRUE(parseInt("18446744073709551615", u64));
    EXPECT_EQ(u64, UINT64_MAX);
    EXPECT_TRUE(parseInt("0xFFFFFFFFFFFFFFFF", u64));
    EXPECT_EQ(u64, UINT64_MAX);
    EXPECT_FALSE(parseInt("18446744073709551616", u64));
    EXPECT_FALSE(parseInt("0x10000000000000000", u64));
}

TEST(ParseInt, UnsignedRejectsMinusSign)
{
    std::uint64_t u = 5;
    // strtoull would accept "-1" as 2^64 - 1.
    EXPECT_FALSE(parseInt("-1", u));
    EXPECT_FALSE(parseInt("-0", u));
    EXPECT_FALSE(parseInt("-0x1", u));
    EXPECT_EQ(u, 5u);
    EXPECT_TRUE(parseInt("+1", u));
    EXPECT_EQ(u, 1u);
}

TEST(ParseOrFatal, NamesOwnerFieldAndContext)
{
    EXPECT_EQ(parseOrFatal<int>("0x20", "Spec", "count", "n=0x20"), 32);
    EXPECT_EQ(parseOrFatal<double>("2.5", "Spec", "rate", "r=2.5"), 2.5);
    try {
        parseOrFatal<int>("nan", "Spec", "count", "n=nan");
        ADD_FAILURE() << "nan accepted as an int";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "Spec: bad count 'nan' in 'n=nan'");
    }
    EXPECT_THROW(parseOrFatal<double>("inf", "Spec", "rate", "r=inf"),
                 FatalError);
}

} // namespace
} // namespace fastcap
