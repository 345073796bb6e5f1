#include "scenario/budget_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "trace/trace_file.hpp"
#include "util/logging.hpp"
#include "util/spec.hpp"
#include "util/strings.hpp"

namespace fastcap {

namespace {

constexpr double kTwoPi = 6.28318530717958647692;

/** Budget fractions must land in (0, 1] wherever a segment can go. */
void
checkFraction(double v, const char *what)
{
    if (!(v > 0.0) || v > 1.0)
        fatal("BudgetSchedule: %s %g out of range (0, 1]", what, v);
}

struct BudgetRow
{
    double time = 0.0;
    double fraction = 0.0;
};

/**
 * Next validated `time,fraction` row from a budget trace; false at
 * end of file. `rows_so_far` enables the one-header-row tolerance:
 * only a first data row with *both* cells non-numeric is skipped, so
 * a data row with one bad cell still fails loudly.
 */
bool
nextBudgetRow(TraceFile &file, std::vector<std::string> &cells,
              std::size_t rows_so_far, BudgetRow &out)
{
    while (file.nextRow(cells)) {
        if (cells.size() != 2)
            fatal("%s:%d: expected 'time,fraction'",
                  file.name().c_str(), file.lineno());
        double ignored = 0.0;
        if (rows_so_far == 0 && !parseDouble(cells[0], ignored) &&
            !parseDouble(cells[1], ignored))
            continue;
        out.time = parseOrFatal<double>(cells[0], "BudgetSchedule",
                                        "trace time", file.name());
        out.fraction = parseOrFatal<double>(cells[1], "BudgetSchedule",
                                            "trace fraction",
                                            file.name());
        checkFraction(out.fraction, "trace fraction");
        return true;
    }
    return false;
}

} // namespace

/**
 * Streaming read position inside one Trace segment's file: the row in
 * effect (cur) and the one after it (next). Built lazily on first
 * query, advanced forward as time moves, rebuilt by reopening the
 * file when a query goes backward.
 */
struct BudgetSchedule::TraceCursor
{
    explicit TraceCursor(const std::string &path) : file(path) {}

    bool
    read(BudgetRow &out)
    {
        if (!nextBudgetRow(file, cells, rows, out))
            return false;
        ++rows;
        return true;
    }

    TraceFile file;
    std::vector<std::string> cells;
    std::size_t rows = 0;
    BudgetRow cur;
    BudgetRow next;
    bool haveNext = false;
};

BudgetSchedule::BudgetSchedule() = default;
BudgetSchedule::~BudgetSchedule() = default;
BudgetSchedule::BudgetSchedule(BudgetSchedule &&) noexcept = default;
BudgetSchedule &
BudgetSchedule::operator=(BudgetSchedule &&) noexcept = default;

BudgetSchedule::BudgetSchedule(const BudgetSchedule &other)
    : _segments(other._segments)
{
    // Cursors are per-object read state, never shared: each copy
    // re-streams its trace segments from the top.
}

BudgetSchedule &
BudgetSchedule::operator=(const BudgetSchedule &other)
{
    if (this != &other) {
        _segments = other._segments;
        _cursors.clear();
    }
    return *this;
}

void
BudgetSchedule::append(BudgetSegment seg)
{
    if (!std::isfinite(seg.start) || seg.start < 0.0)
        fatal("BudgetSchedule: segment start time %g must be finite "
              "and non-negative", seg.start);
    if (!_segments.empty()) {
        const BudgetSegment &prev = _segments.back();
        // A trace segment occupies [start, traceEnd]; anything after
        // it must clear its last row, not just its first.
        const Seconds prev_end = prev.kind == BudgetSegmentKind::Trace
            ? prev.traceEnd
            : prev.start;
        if (seg.start <= prev_end)
            fatal("BudgetSchedule: segment at t=%g does not come "
                  "after the previous segment at t=%g (starts must "
                  "be strictly increasing)", seg.start, prev_end);
    }
    _segments.push_back(std::move(seg));
    _cursors.clear(); // indices shifted; rebuild lazily
}

void
BudgetSchedule::addStep(Seconds start, double level)
{
    checkFraction(level, "step level");
    BudgetSegment seg;
    seg.kind = BudgetSegmentKind::Step;
    seg.start = start;
    seg.level = level;
    append(seg);
}

void
BudgetSchedule::addRamp(Seconds start, double from, double to,
                        Seconds duration)
{
    checkFraction(from, "ramp start fraction");
    checkFraction(to, "ramp end fraction");
    if (!std::isfinite(duration) || duration <= 0.0)
        fatal("BudgetSchedule: ramp duration %g must be finite and "
              "positive", duration);
    BudgetSegment seg;
    seg.kind = BudgetSegmentKind::Ramp;
    seg.start = start;
    seg.from = from;
    seg.to = to;
    seg.duration = duration;
    append(seg);
}

void
BudgetSchedule::addSine(Seconds start, double mean, double amplitude,
                        Seconds period)
{
    if (amplitude < 0.0)
        fatal("BudgetSchedule: sine amplitude %g is negative",
              amplitude);
    // The extremes are what the schedule can actually emit.
    checkFraction(mean - amplitude, "sine trough (mean - amplitude)");
    checkFraction(mean + amplitude, "sine crest (mean + amplitude)");
    // Below a nanosecond the phase 2*pi*t/period can overflow to inf,
    // and sin(inf) is NaN.
    if (!std::isfinite(period) || period < 1e-9)
        fatal("BudgetSchedule: sine period %g must be finite and at "
              "least 1e-9 s", period);
    BudgetSegment seg;
    seg.kind = BudgetSegmentKind::Sine;
    seg.start = start;
    seg.mean = mean;
    seg.amplitude = amplitude;
    seg.period = period;
    append(seg);
}

void
BudgetSchedule::addTrace(const std::string &path, Seconds offset)
{
    BudgetSegment seg;
    seg.kind = BudgetSegmentKind::Trace;
    seg.tracePath = path;
    seg.traceOffset = offset;

    // One validation pass, constant memory: every row must parse,
    // carry an in-range fraction and advance time. Nothing is kept
    // beyond the first/last times and the count.
    TraceFile file(path);
    std::vector<std::string> cells;
    BudgetRow row;
    Seconds last = 0.0;
    while (nextBudgetRow(file, cells, seg.traceRows, row)) {
        const Seconds t = offset + row.time;
        if (seg.traceRows == 0) {
            if (!std::isfinite(t) || t < 0.0)
                fatal("BudgetSchedule: trace '%s' starts at t=%g "
                      "(must be finite and non-negative)",
                      path.c_str(), t);
            seg.start = t;
        } else if (t <= last) {
            fatal("%s:%d: trace time %g does not come after %g "
                  "(times must be strictly increasing)", path.c_str(),
                  file.lineno(), row.time, last - offset);
        }
        last = t;
        ++seg.traceRows;
    }
    if (seg.traceRows == 0)
        fatal("BudgetSchedule: trace '%s' holds no rows",
              path.c_str());
    seg.traceEnd = last;
    append(std::move(seg));
}

double
BudgetSchedule::traceFractionAt(std::size_t index, Seconds t) const
{
    const BudgetSegment &seg = _segments[index];
    if (_cursors.size() != _segments.size())
        _cursors.resize(_segments.size());
    std::unique_ptr<TraceCursor> &cur = _cursors[index];

    // First touch, or a backward query (a fresh replay, a sweep
    // replicate): restart the stream from the top of the file.
    if (cur == nullptr || seg.traceOffset + cur->cur.time > t) {
        cur = std::make_unique<TraceCursor>(seg.tracePath);
        if (!cur->read(cur->cur))
            fatal("BudgetSchedule: trace '%s' holds no rows (file "
                  "changed since load?)", seg.tracePath.c_str());
        cur->haveNext = cur->read(cur->next);
    }
    while (cur->haveNext && seg.traceOffset + cur->next.time <= t) {
        cur->cur = cur->next;
        cur->haveNext = cur->read(cur->next);
    }
    return cur->cur.fraction;
}

double
BudgetSchedule::fractionAt(Seconds t, double fallback) const
{
    // Last segment with start <= t (segments are sorted).
    const auto it = std::upper_bound(
        _segments.begin(), _segments.end(), t,
        [](Seconds v, const BudgetSegment &s) { return v < s.start; });
    if (it == _segments.begin())
        return fallback;
    const BudgetSegment &seg = *(it - 1);
    switch (seg.kind) {
    case BudgetSegmentKind::Step:
        return seg.level;
    case BudgetSegmentKind::Ramp: {
        const Seconds dt = t - seg.start;
        if (dt >= seg.duration)
            return seg.to;
        return seg.from + (seg.to - seg.from) * dt / seg.duration;
    }
    case BudgetSegmentKind::Sine:
        return seg.mean +
            seg.amplitude *
            std::sin(kTwoPi * (t - seg.start) / seg.period);
    case BudgetSegmentKind::Trace:
        return traceFractionAt(
            static_cast<std::size_t>(it - 1 - _segments.begin()), t);
    }
    panic("BudgetSchedule: unknown segment kind");
}

BudgetSchedule
BudgetSchedule::parse(const std::string &spec)
{
    BudgetSchedule sched;
    if (trimmed(spec) == "constant")
        return sched;

    // Every number goes through the one strict parser; a bad one
    // fails naming the field and the whole spec.
    const auto number = [&spec](const std::string &s, const char *what) {
        return parseOrFatal<double>(s, "BudgetSchedule", what, spec);
    };
    for (const std::string &segment :
         splitFields(spec, ';', "BudgetSchedule", "segment")) {
        const auto f = cutFields(segment, {"@", ":"}, "BudgetSchedule",
                                 "KIND@TIME:PARAMS");
        const std::string &kind = f[0];
        const std::string &params = f[2];
        const Seconds start = number(f[1], "segment start time");
        if (kind == "step") {
            sched.addStep(start, number(params, "step level"));
        } else if (kind == "ramp") {
            const auto p = cutFields(params, {"->", "/"},
                                     "BudgetSchedule", "FROM->TO/DURATION");
            sched.addRamp(start, number(p[0], "ramp start fraction"),
                          number(p[1], "ramp end fraction"),
                          number(p[2], "ramp duration"));
        } else if (kind == "sine") {
            const auto p = cutFields(params, {"~", "/"}, "BudgetSchedule",
                                     "MEAN~AMPLITUDE/PERIOD");
            sched.addSine(start, number(p[0], "sine mean"),
                          number(p[1], "sine amplitude"),
                          number(p[2], "sine period"));
        } else if (kind == "trace") {
            sched.addTrace(params, start);
        } else {
            fatal("BudgetSchedule: unknown segment kind '%s' "
                  "(expected step, ramp, sine or trace)",
                  kind.c_str());
        }
    }
    return sched;
}

} // namespace fastcap
