/**
 * @file
 * The job-trace event format and its constant-memory loader.
 *
 * A job trace describes an open workload as one event per row:
 *
 *   arrival_s,app,duration_s,cores
 *
 * `arrival_s` is the virtual-time arrival (non-decreasing; equal
 * times model batch arrivals), `app` an AppProfile name from the
 * Table III catalog (or "idle"), `duration_s` the job's service
 * demand, `cores` how many cores it occupies. `#` starts a comment;
 * one header row is tolerated ahead of the data.
 *
 * TraceSource is the pull interface everything replays through —
 * files, stdin and synthetic generators (trace_generator.hpp) all
 * implement it — so a million-event trace streams through a run
 * without ever being materialized.
 */

#ifndef FASTCAP_TRACE_TRACE_READER_HPP
#define FASTCAP_TRACE_TRACE_READER_HPP

#include <cstddef>
#include <istream>
#include <string>
#include <vector>

#include "trace/trace_file.hpp"
#include "util/units.hpp"

namespace fastcap {

/** One job arrival. */
struct TraceEvent
{
    Seconds arrival = 0.0;  //!< virtual arrival time
    std::string app;        //!< AppProfile name (Table III or "idle")
    Seconds duration = 0.0; //!< service demand in seconds
    int cores = 1;          //!< cores the job occupies
};

/**
 * Pull-based stream of trace events in non-decreasing arrival order.
 * next() fills `ev` and returns true, or returns false when the
 * stream ends; malformed input fatal()s with file:line context.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    virtual bool next(TraceEvent &ev) = 0;
    /** Label for error messages and provenance. */
    virtual const std::string &name() const = 0;
};

/**
 * Streaming loader for the on-disk format. Holds one row of state:
 * memory use is independent of trace length. Every row is validated
 * as it is read — shape, finiteness, arrival monotonicity, app-name
 * resolution, core-demand range — so a bad trace fails on first
 * touch with a precise location, never mid-run with a wrapped index.
 */
class TraceReader : public TraceSource
{
  public:
    /** Open a trace file; fatal() if unreadable. */
    explicit TraceReader(const std::string &path);

    /** Read from a caller-owned stream (stdin, tests). */
    TraceReader(std::istream &in, std::string name);

    bool next(TraceEvent &ev) override;
    const std::string &name() const override { return _file.name(); }

  private:
    TraceFile _file;
    std::vector<std::string> _cells;
    std::size_t _events = 0;
    Seconds _lastArrival = 0.0;
};

} // namespace fastcap

#endif // FASTCAP_TRACE_TRACE_READER_HPP
