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
    EXPECT_EQ(narrowToInt(-7, "x"), -7);
    EXPECT_EQ(narrowToInt(2147483647L, "x"), 2147483647);
    EXPECT_THROW(narrowToInt(2147483648L, "x"), FatalError);
    EXPECT_THROW(narrowToInt(-2147483649L, "x"), FatalError);

    // 4294967300 = 2^32 + 4 would wrap to 4 through a plain cast.
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--cores", "4294967300"};
    ASSERT_TRUE(args.parse(3, argv));
    EXPECT_EQ(args.getInt("cores"), 4294967300L);
    EXPECT_THROW(args.getIntNarrowed("cores"), FatalError);

    ArgParser ok = makeParser();
    const char *argv_ok[] = {"prog", "--cores", "64"};
    ASSERT_TRUE(ok.parse(3, argv_ok));
    EXPECT_EQ(ok.getIntNarrowed("cores"), 64);
}

TEST(Args, UnsignedRejectsNegativeValues)
{
    ArgParser args = makeParser();
    const char *argv[] = {"prog", "--cores", "-1"};
    ASSERT_TRUE(args.parse(3, argv));
    EXPECT_EQ(args.getInt("cores"), -1);
    // -1 would wrap to 18446744073709551615 through a plain cast.
    try {
        args.getUnsigned("cores");
        ADD_FAILURE() << "negative value accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("--cores"),
                  std::string::npos)
            << e.what();
    }

    ArgParser ok = makeParser();
    const char *argv_zero[] = {"prog", "--cores", "0"};
    ASSERT_TRUE(ok.parse(3, argv_zero));
    EXPECT_EQ(ok.getUnsigned("cores"), 0u);
    EXPECT_EQ(makeParser().getUnsigned("cores"), 16u); // the default
}

} // namespace
} // namespace fastcap
