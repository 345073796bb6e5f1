/**
 * @file
 * Tests for util/spec, the lexical layer every spec grammar shares:
 * trimmed fields with no empty ones, ordered cuts, unique key=value
 * pairs, and the `#`-comment line reader with its line numbers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/logging.hpp"
#include "util/spec.hpp"

namespace fastcap {
namespace {

using Fields = std::vector<std::string>;

/** what() of the FatalError `f` throws, or "" if it returns. */
template <class F>
std::string
errorOf(F f)
{
    try {
        f();
    } catch (const FatalError &e) {
        return e.what();
    }
    return std::string();
}

TEST(SplitFields, TrimsEachField)
{
    EXPECT_EQ(splitFields(" a ,b,\tc\r", ',', "T"),
              (Fields{"a", "b", "c"}));
    EXPECT_EQ(splitFields("one", ';', "T"), (Fields{"one"}));
}

TEST(SplitFields, BlankWholeIsAnEmptyList)
{
    EXPECT_TRUE(splitFields("", ',', "T").empty());
    EXPECT_TRUE(splitFields(" \t ", ',', "T").empty());
}

TEST(SplitFields, RejectsEveryEmptyField)
{
    for (const char *text : {"a,,b", "a,", "a, ", ",a", ","})
        EXPECT_THROW(splitFields(text, ',', "T"), FatalError) << text;
    EXPECT_EQ(errorOf([] { splitFields("x;;y", ';', "Owner", "event"); }),
              "Owner: empty event in 'x;;y'");
}

TEST(CutFields, CutsInOrderAndKeepsTheRest)
{
    EXPECT_EQ(cutFields("step @ 0.5 : a:b", {"@", ":"}, "T", "F"),
              (Fields{"step", "0.5", "a:b"}));
    EXPECT_EQ(cutFields("0.9->0.5/0.1", {"->", "/"}, "T", "F"),
              (Fields{"0.9", "0.5", "0.1"}));
    // The second cut looks only after the first.
    EXPECT_EQ(cutFields("1:2@3:4", {"@", ":"}, "T", "F"),
              (Fields{"1:2", "3", "4"}));
}

TEST(CutFields, RejectsAMissingSeparatorOrAnEmptyField)
{
    for (const char *text : {"step", "step@0.5", "@0:1", "step@:1",
                              "step@0:", "step:0@1"})
        EXPECT_THROW(cutFields(text, {"@", ":"}, "T", "F"), FatalError)
            << text;
    EXPECT_EQ(errorOf([] {
                  cutFields("ramp", {"@", ":"}, "Budget", "KIND@T:P");
              }),
              "Budget: expected KIND@T:P in 'ramp'");
}

TEST(SplitKeyValues, SplitsAtTheFirstEquals)
{
    const std::vector<KeyValue> kvs =
        splitKeyValues({"a = 1", "trace=gen:poisson,rate=5"}, "T", "s");
    ASSERT_EQ(kvs.size(), 2u);
    EXPECT_EQ(kvs[0].key, "a");
    EXPECT_EQ(kvs[0].value, "1");
    EXPECT_EQ(kvs[1].key, "trace");
    EXPECT_EQ(kvs[1].value, "gen:poisson,rate=5");
    EXPECT_EQ(kvs[1].line, 0);
}

TEST(SplitKeyValues, RejectsMalformedAndRepeatedKeys)
{
    for (const Fields &fields :
         {Fields{"novalue"}, Fields{"=1"}, Fields{"a="},
          Fields{"a=1", "a=2"}, Fields{"a=1", "b=2", " a =3"}})
        EXPECT_THROW(splitKeyValues(fields, "T", "s"), FatalError);
    EXPECT_EQ(errorOf([] {
                  splitKeyValues({"rate=5", "rate=7"}, "Gen",
                                 "rate=5,rate=7");
              }),
              "Gen: duplicate key 'rate' in 'rate=5,rate=7'");
}

TEST(LineReader, SkipsCommentsAndBlanksAndCountsLines)
{
    std::istringstream in("# header\n"
                          "  a = 1  # trailing\r\n"
                          "\n"
                          "   \t\r\n"
                          "b,c\n"
                          "#\n");
    LineReader lines(in, "<test>");
    std::string line;
    ASSERT_TRUE(lines.next(line));
    EXPECT_EQ(line, "a = 1");
    EXPECT_EQ(lines.lineno(), 2);
    ASSERT_TRUE(lines.next(line));
    EXPECT_EQ(line, "b,c");
    EXPECT_EQ(lines.lineno(), 5);
    EXPECT_FALSE(lines.next(line));
    EXPECT_EQ(lines.name(), "<test>");
}

class KeyValueFile : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        if (!_path.empty())
            std::remove(_path.c_str());
    }

    const std::string &
    write(const std::string &content)
    {
        _path = ::testing::TempDir() + "spec_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name() +
            ".txt";
        std::ofstream out(_path);
        out << content;
        return _path;
    }

  private:
    std::string _path;
};

TEST_F(KeyValueFile, ReadsKeysValuesAndLines)
{
    const std::vector<KeyValue> kvs = readKeyValueFile(
        write("# grid\nworkloads = ILP1,MEM1\n\ncores=8 # small\n"),
        "spec file");
    ASSERT_EQ(kvs.size(), 2u);
    EXPECT_EQ(kvs[0].key, "workloads");
    EXPECT_EQ(kvs[0].value, "ILP1,MEM1");
    EXPECT_EQ(kvs[0].line, 2);
    EXPECT_EQ(kvs[1].key, "cores");
    EXPECT_EQ(kvs[1].value, "8");
    EXPECT_EQ(kvs[1].line, 4);
}

TEST_F(KeyValueFile, ErrorsNameTheFileAndLine)
{
    const std::string &path =
        write("budgets = 0.6\n# again\nbudgets = 0.7\n");
    EXPECT_EQ(errorOf([&] { readKeyValueFile(path, "spec file"); }),
              path + ":3: duplicate key 'budgets'");
    EXPECT_THROW(readKeyValueFile(write("cores =\n"), "spec file"),
                 FatalError);
    EXPECT_THROW(readKeyValueFile(write("just words\n"), "spec file"),
                 FatalError);
    EXPECT_EQ(errorOf([] {
                  readKeyValueFile("/nonexistent/grid.spec", "spec file");
              }),
              "cannot open spec file '/nonexistent/grid.spec'");
}

} // namespace
} // namespace fastcap
