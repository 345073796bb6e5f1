/**
 * @file
 * Tests for the CSV writer used by benchmark output.
 */

#include <gtest/gtest.h>

#include <string>

#include "csv_string.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace fastcap {
namespace {

TEST(Csv, EscapePassthrough)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("with space"), "with space");
}

TEST(Csv, EscapeQuotesCommasAndNewlines)
{
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, HeaderAndRows)
{
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    CsvWriter w(tmp);
    w.header({"epoch", "power"});
    w.rowNumeric({1.0, 71.9});
    w.rowLabeled("MIX3", {0.599});

    const std::string text = fileContents(tmp);
    EXPECT_EQ(text, "epoch,power\n1,71.9\nMIX3,0.599\n");
    std::fclose(tmp);
}

TEST(Csv, DoubleHeaderPanics)
{
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    CsvWriter w(tmp);
    w.header({"a"});
    EXPECT_THROW(w.header({"b"}), PanicError);
    std::fclose(tmp);
}

TEST(Csv, QuotedCellRoundTrips)
{
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    CsvWriter w(tmp);
    w.row({"a,b", "c"});
    const std::string text = fileContents(tmp);
    EXPECT_EQ(text, "\"a,b\",c\n");
    std::fclose(tmp);
}

} // namespace
} // namespace fastcap
