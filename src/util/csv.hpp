/**
 * @file
 * Minimal CSV emission for benchmark time series. Every figure bench
 * prints its series both as a human-readable table and as CSV rows so
 * plots can be regenerated with any external tool.
 */

#ifndef FASTCAP_UTIL_CSV_HPP
#define FASTCAP_UTIL_CSV_HPP

#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

namespace fastcap {

/**
 * Streams rows of a CSV document to a FILE*.
 *
 * Values containing commas, quotes or newlines are quoted per RFC
 * 4180. The writer does not own the stream.
 */
class CsvWriter
{
  public:
    /** @param out destination stream (not owned); default stdout. */
    explicit CsvWriter(std::FILE *out = stdout) : _out(out) {}

    /** Emit the header row. Must be called at most once, first. */
    void header(const std::vector<std::string> &columns);

    /** Emit one row of preformatted cells. */
    void row(const std::vector<std::string> &cells);

    /** Emit one row of doubles with %.6g formatting. */
    void rowNumeric(const std::vector<double> &cells);

    /** Emit a row starting with a label followed by numbers. */
    void rowLabeled(const std::string &label,
                    const std::vector<double> &cells);

    /** Escape a single cell per RFC 4180. */
    static std::string escape(const std::string &cell);

  private:
    void writeCells(const std::vector<std::string> &cells);

    std::FILE *_out;
    bool _wroteHeader = false;
};

} // namespace fastcap

#endif // FASTCAP_UTIL_CSV_HPP
