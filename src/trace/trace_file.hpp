/**
 * @file
 * Streaming row access to trace files.
 *
 * Every trace in the repo — job traces (arrival,app,duration,cores)
 * and budget traces (time,fraction) — shares one lexical layer: CSV
 * rows, `#` comments, blank lines ignored, cells trimmed. TraceFile
 * is that layer, on util/spec's LineReader. It hands rows out one at
 * a time and never buffers more than the current line, so a
 * million-row trace costs the same memory as a ten-row one.
 * Semantic validation (column counts, value ranges, monotonicity)
 * belongs to the callers, which know what the columns mean.
 */

#ifndef FASTCAP_TRACE_TRACE_FILE_HPP
#define FASTCAP_TRACE_TRACE_FILE_HPP

#include <fstream>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "util/spec.hpp"

namespace fastcap {

/**
 * One trace file (or borrowed stream), read row by row, front to
 * back. A reader that must go back (the budget-schedule cursor on a
 * backward time query) opens the file again.
 */
class TraceFile
{
  public:
    /** Open a file; fatal() if it cannot be read. */
    explicit TraceFile(const std::string &path);

    /**
     * Wrap a caller-owned stream (e.g. std::cin). `name` labels
     * error messages. The stream must outlive this object.
     */
    TraceFile(std::istream &in, std::string name);

    /**
     * Read the next non-empty, non-comment row into `cells` (split
     * on ',', each cell trimmed). Returns false at end of input.
     * The vector is reused; no per-row allocation once warm.
     */
    bool nextRow(std::vector<std::string> &cells);

    /** 1-based line number of the row last returned. */
    int lineno() const { return _lines.lineno(); }

    /** Path or stream label, for error messages. */
    const std::string &name() const { return _lines.name(); }

  private:
    std::unique_ptr<std::ifstream> _owned; //!< null for borrowed streams
    LineReader _lines;
    std::string _row; //!< reused row buffer
};

} // namespace fastcap

#endif // FASTCAP_TRACE_TRACE_FILE_HPP
