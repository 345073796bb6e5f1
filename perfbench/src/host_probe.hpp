/**
 * @file
 * The host-contention probe. On a shared host, co-tenant load slows
 * floating-point and cache-bound code by 20-70% for seconds to minutes
 * at a time, and it slows the simulator, the solver and a fixed
 * floating-point loop alike. The benchmark times that loop right
 * after every timed interval and reports the interval in reference
 * seconds: its host time scaled by the loop's nominal time over the
 * loop's time beside it. A co-tenant slowdown stretches both and
 * cancels; a change to the program moves only the interval.
 */

#ifndef PERFBENCH_HOST_PROBE_HPP
#define PERFBENCH_HOST_PROBE_HPP

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/**
 * Host seconds of the probe loop on an uncontended 4-vCPU Xeon
 * (2.1 GHz) — the host the benchmark's bounds were set on. It only
 * scales reference seconds to read like host seconds there.
 */
constexpr double kProbeNominalS = 1.6e-4;

/** Host seconds of one pass of the fixed loop. */
inline double
probePass()
{
    const auto t0 = Clock::now();
    double acc = 0.0;
    for (int i = 0; i < 10000; ++i)
        acc += std::pow(0.55 + 1e-5 * i, 2.7);
    volatile double sink = acc;
    (void)sink;
    return secondsSince(t0);
}

/**
 * The loop's host time now: the fastest of three passes, so an
 * interrupt during one pass does not count as contention.
 */
inline double
probe()
{
    return std::min({probePass(), probePass(), probePass()});
}

/** The probe on `threads` threads at once: their mean. */
inline double
probeParallel(int threads)
{
    std::vector<double> times(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    pool.reserve(times.size());
    try {
        for (std::size_t i = 0; i < times.size(); ++i)
            pool.emplace_back([&times, i] { times[i] = probe(); });
    } catch (...) {
        for (std::thread &t : pool)
            t.join();
        throw;
    }
    for (std::thread &t : pool)
        t.join();
    double sum = 0.0;
    for (double t : times)
        sum += t;
    return sum / static_cast<double>(times.size());
}

/** `hostS` host seconds, probed beside at `probeS`, in reference seconds. */
inline double
referenceSeconds(double hostS, double probeS)
{
    return hostS * kProbeNominalS / probeS;
}

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HPP
