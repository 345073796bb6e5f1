#include "trace/trace_reader.hpp"

#include <utility>

#include "util/logging.hpp"
#include "util/strings.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {

TraceReader::TraceReader(const std::string &path) : _file(path)
{
}

TraceReader::TraceReader(std::istream &in, std::string name)
    : _file(in, std::move(name))
{
}

bool
TraceReader::next(TraceEvent &ev)
{
    while (_file.nextRow(_cells)) {
        if (_cells.size() != 4)
            fatal("%s:%d: expected 'arrival_s,app,duration_s,cores' "
                  "(got %zu cells)", name().c_str(), _file.lineno(),
                  _cells.size());

        // Tolerate one header row ahead of the data. Only a row whose
        // numeric cells are *all* non-numeric qualifies, so a data row
        // with one bad cell still fails loudly below.
        double ignored = 0.0;
        if (_events == 0 && !parseDouble(_cells[0], ignored) &&
            !parseDouble(_cells[2], ignored))
            continue;

        if (!parseDouble(_cells[0], ev.arrival) || ev.arrival < 0.0)
            fatal("%s:%d: bad arrival time '%s' (must be a finite "
                  "non-negative number)", name().c_str(),
                  _file.lineno(), _cells[0].c_str());
        if (ev.arrival < _lastArrival)
            fatal("%s:%d: arrival time %g goes backwards (previous "
                  "row was %g; arrivals must be non-decreasing)",
                  name().c_str(), _file.lineno(), ev.arrival,
                  _lastArrival);

        if (_cells[1].empty())
            fatal("%s:%d: empty application name", name().c_str(),
                  _file.lineno());
        if (workloads::findProfile(_cells[1]) == nullptr)
            fatal("%s:%d: unknown application '%s'", name().c_str(),
                  _file.lineno(), _cells[1].c_str());

        if (!parseDouble(_cells[2], ev.duration) ||
            ev.duration <= 0.0)
            fatal("%s:%d: bad duration '%s' (must be a finite "
                  "positive number of seconds)", name().c_str(),
                  _file.lineno(), _cells[2].c_str());

        // parseInt range-checks against int: an overflowing core
        // demand fails here, not wraps onto a plausible small count.
        if (!parseInt(_cells[3], ev.cores) || ev.cores < 1)
            fatal("%s:%d: bad core demand '%s' (must be an integer "
                  ">= 1)", name().c_str(), _file.lineno(),
                  _cells[3].c_str());

        ev.app = _cells[1];
        _lastArrival = ev.arrival;
        ++_events;
        return true;
    }
    if (_events == 0)
        fatal("TraceReader: trace '%s' holds no events",
              name().c_str());
    return false;
}

} // namespace fastcap
