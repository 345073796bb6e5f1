/**
 * @file
 * Tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/args.hpp"
#include "util/logging.hpp"

namespace fastcap {
namespace {

ArgParser
makeParser()
{
    ArgParser args("prog", "test program");
    args.addString("workload", "MIX3", "workload name");
    args.addDouble("budget", 0.6, "budget fraction");
    args.addInt("cores", 16, "core count");
    args.addFlag("trace", "emit trace");
    return args;
}

TEST(Args, DefaultsWithoutArguments)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_EQ(args.getString("workload"), "MIX3");
    EXPECT_DOUBLE_EQ(args.getDouble("budget"), 0.6);
    EXPECT_EQ(args.getInt("cores"), 16);
    EXPECT_FALSE(args.getFlag("trace"));
    EXPECT_FALSE(args.provided("budget"));
}

TEST(Args, SpaceSeparatedValues)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--workload", "MEM1", "--budget",
                          "0.75", "--cores", "64"};
    ASSERT_TRUE(args.parse(7, argv));
    EXPECT_EQ(args.getString("workload"), "MEM1");
    EXPECT_DOUBLE_EQ(args.getDouble("budget"), 0.75);
    EXPECT_EQ(args.getInt("cores"), 64);
    EXPECT_TRUE(args.provided("budget"));
}

TEST(Args, EqualsSeparatedValues)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--budget=0.5", "--workload=ILP2"};
    ASSERT_TRUE(args.parse(3, argv));
    EXPECT_DOUBLE_EQ(args.getDouble("budget"), 0.5);
    EXPECT_EQ(args.getString("workload"), "ILP2");
}

TEST(Args, BooleanFlagForms)
{
    ArgParser a = makeParser();
    const char *argv1[] = {"prog", "--trace"};
    ASSERT_TRUE(a.parse(2, argv1));
    EXPECT_TRUE(a.getFlag("trace"));

    ArgParser b = makeParser();
    const char *argv2[] = {"prog", "--trace=0"};
    ASSERT_TRUE(b.parse(2, argv2));
    EXPECT_FALSE(b.getFlag("trace"));
}

TEST(Args, ScientificNotationDoubles)
{
    ArgParser args("p", "d");
    args.addDouble("instructions", 1e6, "count");
    const char *argv[] = {"p", "--instructions", "5e7"};
    ASSERT_TRUE(args.parse(3, argv));
    EXPECT_DOUBLE_EQ(args.getDouble("instructions"), 5e7);
}

TEST(Args, RejectsUnknownOption)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--bogus", "1"};
    EXPECT_FALSE(args.parse(3, argv));
}

TEST(Args, RejectsBadNumericValue)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--budget", "sixty"};
    EXPECT_FALSE(args.parse(3, argv));

    ArgParser args2 = makeParser();
    const char *argv2[] = {"prog", "--cores", "3.5"};
    EXPECT_FALSE(args2.parse(3, argv2));
}

TEST(Args, RejectsMissingValue)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--budget"};
    EXPECT_FALSE(args.parse(2, argv));
}

TEST(Args, RejectsPositionalArgument)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "stray"};
    EXPECT_FALSE(args.parse(2, argv));
}

TEST(Args, HelpReturnsFalseAndLists)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(args.parse(2, argv));
    const std::string help = args.helpText();
    EXPECT_NE(help.find("--workload"), std::string::npos);
    EXPECT_NE(help.find("--budget"), std::string::npos);
    EXPECT_NE(help.find("default: 0.6"), std::string::npos);
}

TEST(Args, WrongTypeAccessPanics)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_THROW(args.getDouble("workload"), PanicError);
    EXPECT_THROW(args.getString("nonexistent"), PanicError);
}

TEST(Args, DuplicateDeclarationPanics)
{
    ArgParser args("p", "d");
    args.addInt("n", 1, "x");
    EXPECT_THROW(args.addDouble("n", 2.0, "y"), PanicError);
}

TEST(Args, NarrowingRejectsValuesOutsideInt)
{
    // 4294967300 = 2^32 + 4 would wrap to 4 through a plain cast; an
    // Int option rejects it at parse(), before any work starts.
    for (const char *bad : {"4294967300", "2147483648", "-2147483649"}) {
        ArgParser args = makeParser();
        const char *argv[] = {"prog", "--cores", bad};
        EXPECT_FALSE(args.parse(3, argv)) << bad;
    }

    ArgParser ok = makeParser();
    const char *argv_ok[] = {"prog", "--cores", "2147483647"};
    ASSERT_TRUE(ok.parse(3, argv_ok));
    EXPECT_EQ(ok.getInt("cores"), 2147483647);

    ArgParser neg = makeParser();
    const char *argv_neg[] = {"prog", "--cores", "-7"};
    ASSERT_TRUE(neg.parse(3, argv_neg));
    EXPECT_EQ(neg.getInt("cores"), -7);
}

TEST(Args, UnsignedRejectsNegativeValues)
{
    const auto parser = [] {
        ArgParser args("prog", "test program");
        args.addUnsigned("seed", 16, "seed");
        return args;
    };
    // -1 would wrap to 18446744073709551615 through a plain cast.
    for (const char *bad : {"-1", "-0", "18446744073709551616", "1.5"}) {
        ArgParser args = parser();
        const char *argv[] = {"prog", "--seed", bad};
        EXPECT_FALSE(args.parse(3, argv)) << bad;
    }

    ArgParser zero = parser();
    const char *argv_zero[] = {"prog", "--seed", "0"};
    ASSERT_TRUE(zero.parse(3, argv_zero));
    EXPECT_EQ(zero.getUnsigned("seed"), 0u);

    ArgParser top = parser();
    const char *argv_top[] = {"prog", "--seed=18446744073709551615"};
    ASSERT_TRUE(top.parse(2, argv_top));
    EXPECT_EQ(top.getUnsigned("seed"), 18446744073709551615ull);
    EXPECT_EQ(parser().getUnsigned("seed"), 16u); // the default
}

TEST(Args, DoublesMustBeFinite)
{
    for (const char *bad : {"nan", "inf", "-inf", "1e999"}) {
        ArgParser args = makeParser();
        const char *argv[] = {"prog", "--budget", bad};
        EXPECT_FALSE(args.parse(3, argv)) << bad;
    }
}

TEST(Args, IntegersAreDecimalOrHexNeverOctal)
{
    ArgParser dec = makeParser();
    const char *argv_dec[] = {"prog", "--cores", "010"};
    ASSERT_TRUE(dec.parse(3, argv_dec));
    EXPECT_EQ(dec.getInt("cores"), 10);

    ArgParser hex = makeParser();
    const char *argv_hex[] = {"prog", "--cores", "0x40"};
    ASSERT_TRUE(hex.parse(3, argv_hex));
    EXPECT_EQ(hex.getInt("cores"), 64);

    ArgParser octal = makeParser();
    const char *argv_octal[] = {"prog", "--cores", "08"};
    ASSERT_TRUE(octal.parse(3, argv_octal));
    EXPECT_EQ(octal.getInt("cores"), 8);
}

} // namespace
} // namespace fastcap
