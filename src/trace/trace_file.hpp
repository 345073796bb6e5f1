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
 * One trace file (or borrowed stream), read row by row.
 *
 * Path-backed instances can rewind() — they reopen the file — which
 * the budget-schedule cursor uses to answer backward time queries.
 * Borrowed streams (stdin, test stringstreams) are single-pass.
 */
class TraceFile
{
  public:
    /** Open a file; fatal() if it cannot be read. */
    explicit TraceFile(std::string path);

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

    /** Restart from the first row; fatal() for borrowed streams. */
    void rewind();

    /** True when rewind() is available (path-backed). */
    bool rewindable() const { return !_path.empty(); }

    /** 1-based line number of the row last returned. */
    int lineno() const { return _lines.lineno(); }

    /** Path or stream label, for error messages. */
    const std::string &name() const { return _lines.name(); }

  private:
    std::string _path; //!< empty for borrowed streams
    std::unique_ptr<std::ifstream> _owned;
    LineReader _lines;
    std::string _row; //!< reused row buffer
};

} // namespace fastcap

#endif // FASTCAP_TRACE_TRACE_FILE_HPP
