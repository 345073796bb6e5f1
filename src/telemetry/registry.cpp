#include "telemetry/registry.hpp"

#include <algorithm>
#include <cstdio>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fastcap {
namespace telemetry {

namespace {

/** `/seg/seg` with non-empty segments; rejects "", "/", "a/b". */
bool
validPath(const std::string &path)
{
    if (path.size() < 2 || path[0] != '/')
        return false;
    bool prev_slash = false;
    for (std::size_t i = 1; i < path.size(); ++i) {
        const bool slash = path[i] == '/';
        if (slash && (prev_slash || i + 1 == path.size()))
            return false;
        prev_slash = slash;
    }
    return true;
}

std::string
renderDouble(double v)
{
    char buf[64];
    checkedSnprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

void
Gauge::setMax(double v)
{
    double cur = _value.load(std::memory_order_relaxed);
    while (v > cur &&
           !_value.compare_exchange_weak(cur, v,
                                         std::memory_order_relaxed)) {
    }
}

Histogram::Histogram(std::vector<double> edges)
    : _edges(std::move(edges))
{
    if (_edges.empty())
        panic("telemetry: histogram needs at least one bucket edge");
    if (!std::is_sorted(_edges.begin(), _edges.end()))
        panic("telemetry: histogram edges must be ascending");
    _counts.reset(new std::atomic<std::uint64_t>[_edges.size() + 1]);
    for (std::size_t i = 0; i <= _edges.size(); ++i)
        _counts[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    const auto it =
        std::lower_bound(_edges.begin(), _edges.end(), v);
    const std::size_t idx =
        static_cast<std::size_t>(it - _edges.begin());
    _counts[idx].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i <= _edges.size(); ++i)
        total += _counts[i].load(std::memory_order_relaxed);
    return total;
}

std::vector<std::uint64_t>
Histogram::buckets() const
{
    std::vector<std::uint64_t> out(_edges.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = _counts[i].load(std::memory_order_relaxed);
    return out;
}

Registry::Metric &
Registry::slot(const std::string &path)
{
    if (!validPath(path))
        panic("telemetry: malformed metric path '%s'", path.c_str());
    return _metrics[path];
}

Counter &
Registry::counter(const std::string &path)
{
    LockGuard lock(_mu);
    Metric &m = slot(path);
    if (m.gauge || m.histogram)
        panic("telemetry: '%s' already registered with another kind",
              path.c_str());
    if (!m.counter)
        m.counter.reset(new Counter());
    return *m.counter;
}

Gauge &
Registry::gauge(const std::string &path)
{
    LockGuard lock(_mu);
    Metric &m = slot(path);
    if (m.counter || m.histogram)
        panic("telemetry: '%s' already registered with another kind",
              path.c_str());
    if (!m.gauge)
        m.gauge.reset(new Gauge());
    return *m.gauge;
}

Histogram &
Registry::histogram(const std::string &path, std::vector<double> edges)
{
    LockGuard lock(_mu);
    Metric &m = slot(path);
    if (m.counter || m.gauge)
        panic("telemetry: '%s' already registered with another kind",
              path.c_str());
    if (!m.histogram) {
        m.histogram.reset(new Histogram(std::move(edges)));
    } else if (m.histogram->edges() != edges) {
        panic("telemetry: '%s' re-registered with different edges",
              path.c_str());
    }
    return *m.histogram;
}

std::vector<std::pair<std::string, std::string>>
Registry::snapshot() const
{
    std::vector<std::pair<std::string, std::string>> out;
    LockGuard lock(_mu);
    out.reserve(_metrics.size());
    for (const auto &kv : _metrics) {
        const Metric &m = kv.second;
        std::string value;
        if (m.counter) {
            char buf[32];
            checkedSnprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(
                              m.counter->value()));
            value = buf;
        } else if (m.gauge) {
            value = renderDouble(m.gauge->value());
        } else if (m.histogram) {
            const auto &edges = m.histogram->edges();
            const auto buckets = m.histogram->buckets();
            value = "count=";
            char buf[64];
            checkedSnprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(
                              m.histogram->count()));
            value += buf;
            for (std::size_t i = 0; i < buckets.size(); ++i) {
                checkedSnprintf(
                    buf, sizeof(buf), " le:%s=%llu",
                    i < edges.size() ? renderDouble(edges[i]).c_str()
                                     : "inf",
                    static_cast<unsigned long long>(buckets[i]));
                value += buf;
            }
        } else {
            continue;
        }
        out.emplace_back(kv.first, std::move(value));
    }
    return out;
}

std::vector<std::pair<std::string, std::string>>
Registry::query(const std::string &path) const
{
    std::string prefix = path;
    while (!prefix.empty() && prefix.back() == '/')
        prefix.pop_back();
    std::vector<std::pair<std::string, std::string>> out;
    for (auto &kv : snapshot()) {
        if (prefix.empty() || kv.first == prefix ||
            (kv.first.size() > prefix.size() &&
             kv.first.compare(0, prefix.size(), prefix) == 0 &&
             kv.first[prefix.size()] == '/')) {
            out.push_back(std::move(kv));
        }
    }
    return out;
}

} // namespace telemetry
} // namespace fastcap
