/**
 * @file
 * The benchmark's own spans: named host-time intervals recorded around
 * the calls into each layer, kept in memory and written once at exit.
 *
 * A span carries its parent (the span that caused it, 0 for a root)
 * and the measurement round it belongs to, so a layer's self time is
 * its duration minus its children's. A disabled log records nothing:
 * the untraced run pays one branch per boundary.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since `t0`. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of a sample (0 for an empty one). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, q in (0, 1] (0 for an empty sample). */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/** One closed interval at a layer boundary. */
struct Span
{
    std::uint32_t id = 0;     //!< 1-based; 0 means "no span"
    std::uint32_t parent = 0; //!< causing span, 0 for a root
    std::uint32_t round = 0;  //!< measurement round it belongs to
    const char *name = "";    //!< static string
    std::int64_t startNs = 0; //!< since the log's origin
    std::int64_t endNs = 0;
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : _enabled(enabled)
    {
        if (_enabled)
            _spans.reserve(1 << 16);
    }

    /** Tag subsequent spans with a measurement round. */
    void round(std::uint32_t r) { _round = r; }

    /** Start a span; returns its id (0 when disabled). */
    std::uint32_t
    open(const char *name, std::uint32_t parent)
    {
        if (!_enabled)
            return 0;
        Span s;
        s.id = static_cast<std::uint32_t>(_spans.size() + 1);
        s.parent = parent;
        s.round = _round;
        s.name = name;
        s.startNs = sinceOrigin();
        _spans.push_back(s);
        return s.id;
    }

    void
    close(std::uint32_t id)
    {
        if (id != 0)
            _spans[id - 1].endNs = sinceOrigin();
    }

    /** Durations in seconds of every span called `name`. */
    std::vector<double>
    durations(const char *name) const
    {
        std::vector<double> out;
        for (const Span &s : _spans)
            if (std::strcmp(s.name, name) == 0)
                out.push_back(1e-9 * static_cast<double>(s.endNs -
                                                         s.startNs));
        return out;
    }

    /** Summed duration in seconds of every span called `name`. */
    double
    total(const char *name) const
    {
        double sum = 0.0;
        for (double d : durations(name))
            sum += d;
        return sum;
    }

    /**
     * Write the spans as Chrome trace_event JSON ("X" events, one
     * thread; parent and round in args). Returns false on I/O error.
     */
    bool
    writeJson(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\":[");
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                         "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"id\":%u,\"parent\":%u,\"round\":%u}}",
                         i == 0 ? "" : ",", s.name,
                         1e-3 * static_cast<double>(s.startNs),
                         1e-3 * static_cast<double>(s.endNs - s.startNs),
                         s.id, s.parent, s.round);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::int64_t
    sinceOrigin() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _origin)
            .count();
    }

    bool _enabled = false;
    std::uint32_t _round = 0;
    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint32_t parent = 0)
        : _log(log), _id(log.open(name, parent))
    {}
    ~ScopedSpan() { _log.close(_id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return _id; }

  private:
    SpanLog &_log;
    std::uint32_t _id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
