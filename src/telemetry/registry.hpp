/**
 * @file
 * Deterministic metrics registry: the observe-only telemetry core.
 *
 * Result-bearing code *writes* counters, gauges, and histograms
 * under slash-separated paths (`/solver/solves`,
 * `/machine/3/core/17/freq`); operator-facing surfaces — the CLI
 * `--introspect` dump, the future `--serve` daemon — *read* them
 * back as a sorted path tree, 9front-devproc style. A registry is
 * handed down like the tracer: components take a `Registry *` at
 * construction and publish only when it is non-null, so a null
 * pointer means telemetry is off. The hard contract is that
 * telemetry can never flow back into results:
 *
 *  - reading a metric from a result zone is a lint finding (R8,
 *    `src/telemetry` is a sink zone) — only the write surface is
 *    callable from result-bearing code;
 *  - cross-thread writes to one shared path must commute: counter
 *    adds and gauge setMax() are order-free, so totals are exact
 *    and deterministic under any interleaving. Plain Gauge::set()
 *    is reserved for single-writer paths (per-machine state under
 *    `/machine/<i>/`, written by that machine's runner between pool
 *    barriers);
 *  - wall-clock measurements live under `/wall/`; everything else is
 *    deterministic and byte-identical across thread counts.
 *
 * Handles returned by counter()/gauge()/histogram() are stable for
 * the registry's lifetime (metrics are never erased); hot paths
 * cache them instead of re-resolving the path each epoch.
 */

#ifndef FASTCAP_TELEMETRY_REGISTRY_HPP
#define FASTCAP_TELEMETRY_REGISTRY_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.hpp"

namespace fastcap {
namespace telemetry {

/**
 * Monotonic event count. add() commutes, so concurrent writers on
 * one path still produce an exact, deterministic total.
 */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/**
 * Last-known scalar. set() is a plain store for single-writer paths;
 * setMax() is a CAS high-water mark that commutes across threads.
 */
class Gauge
{
  public:
    void set(double v) { _value.store(v, std::memory_order_relaxed); }

    void setMax(double v);

    double
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> _value{0.0};
};

/**
 * Fixed-bucket distribution. Bucket edges are upper bounds in
 * ascending order; values above the last edge land in an implicit
 * overflow bucket. Only integer bucket counts are kept (no float
 * sum), so concurrent observes commute exactly.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> edges);

    void observe(double v);

    std::uint64_t count() const;
    const std::vector<double> &edges() const { return _edges; }
    /** Bucket counts; size edges().size() + 1 (last = overflow). */
    std::vector<std::uint64_t> buckets() const;

  private:
    std::vector<double> _edges;
    std::unique_ptr<std::atomic<std::uint64_t>[]> _counts;
};

/**
 * A path-keyed tree of metrics. Registration is locked; the handles
 * it returns are lock-free to write through. Paths are
 * `/seg/seg/...` with non-empty segments. The sorted map doubles as
 * the introspection tree: snapshot()/query() render values in path
 * order, so two identical runs dump identical trees.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Find-or-create; panics if the path exists with another kind. */
    Counter &counter(const std::string &path);
    Gauge &gauge(const std::string &path);
    /**
     * Find-or-create; `edges` must match any previous registration
     * of the same path (ascending, non-empty).
     */
    Histogram &histogram(const std::string &path,
                         std::vector<double> edges);

    /** All (path, rendered value) pairs in path order. */
    std::vector<std::pair<std::string, std::string>> snapshot() const;

    /**
     * The subtree at `path`: the exact path plus everything under
     * `path` + "/". "/" (or "") selects the whole tree.
     */
    std::vector<std::pair<std::string, std::string>>
    query(const std::string &path) const;

  private:
    struct Metric
    {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Metric &slot(const std::string &path) FASTCAP_REQUIRES(_mu);

    mutable Mutex _mu;
    std::map<std::string, Metric> _metrics FASTCAP_GUARDED_BY(_mu);
};

} // namespace telemetry
} // namespace fastcap

#endif // FASTCAP_TELEMETRY_REGISTRY_HPP
