/**
 * @file
 * Synthetic job-trace generators.
 *
 * The paper evaluates capping on closed, hand-picked app mixes; the
 * trace layer turns that into an open-workload study. Each generator
 * is a TraceSource that produces events lazily from an arrival
 * process, so a billion-event trace costs O(1) memory whether it is
 * written to disk (fastcap_tracegen) or replayed directly
 * (`--trace gen:...`). All randomness flows from one SplitMix64-
 * seeded xoshiro stream: a trace is reproducible bit-for-bit from
 * (kind, params, seed) on a given platform, and the committed corpus
 * under tests/traces/ freezes the bytes for cross-platform goldens.
 *
 * Kinds:
 *   poisson  homogeneous Poisson arrivals at `rate` jobs/s
 *   mmpp     2-state Markov-modulated Poisson process: quiet periods
 *            at `rate` alternate with bursts at rate*burstFactor
 *            (burstiness above the Poisson baseline)
 *   sine     diurnal load: non-homogeneous Poisson with intensity
 *            rate*(1 + amplitude*sin(2*pi*t/period)), via thinning
 *   flash    flash crowd: baseline `rate` except a window
 *            [flashStart, flashStart+flashDuration) at
 *            rate*flashFactor
 *   batch    correlated multi-core arrivals: batches arrive as a
 *            Poisson process; each batch lands `batchMean`-ish jobs
 *            of the same app at the same instant, each demanding
 *            1..maxCores cores
 */

#ifndef FASTCAP_TRACE_TRACE_GENERATOR_HPP
#define FASTCAP_TRACE_TRACE_GENERATOR_HPP

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_reader.hpp"
#include "util/units.hpp"

namespace fastcap {

/** Parameters of one synthetic trace. */
struct TraceGenSpec
{
    std::string kind = "poisson";
    /** Stop emitting once arrivals pass this time. */
    Seconds horizon = 1.0;
    /** Baseline arrival rate in jobs per second. */
    double rate = 100.0;
    /** Apps drawn uniformly per job; empty = the MIX1 four. */
    std::vector<std::string> apps;
    /** Mean service demand (exponentially distributed). */
    Seconds meanDuration = 0.02;
    /** Per-job core demand drawn uniformly from [1, maxCores]. */
    int maxCores = 1;
    /** Trace seed (SplitMix64-expanded into the generator stream). */
    std::uint64_t seed = 1;
    /** Hard cap on emitted events (0 = horizon only). */
    std::size_t maxEvents = 0;

    // mmpp
    double burstFactor = 8.0; //!< burst rate = rate * burstFactor
    Seconds meanBurst = 0.02; //!< mean burst-state dwell time
    Seconds meanQuiet = 0.1;  //!< mean quiet-state dwell time

    // sine
    double amplitude = 0.8; //!< relative swing, in [0, 1)
    Seconds period = 0.25;  //!< diurnal cycle length

    // flash
    Seconds flashStart = 0.4;
    Seconds flashDuration = 0.05;
    double flashFactor = 20.0; //!< rate multiplier inside the window

    // batch
    double batchMean = 3.0; //!< mean jobs per batch (>= 1)

    /**
     * Parse `KIND(,key=value)*`, e.g.
     * "poisson,rate=500,horizon=0.2,seed=7,apps=milc+gcc". Keys match
     * the fields (kebab-case: mean-duration, max-cores, burst-factor,
     * mean-burst, mean-quiet, flash-start, flash-duration,
     * flash-factor, batch-mean, events). fatal() on unknown, repeated
     * or empty keys, empty fields, or out-of-range values.
     */
    static TraceGenSpec parse(const std::string &spec);

    /** Canonical round-trippable spec string (provenance headers). */
    std::string toString() const;

    /** fatal() unless every parameter is usable. */
    void validate() const;
};

/** Lazy generator stream over a validated spec. */
std::unique_ptr<TraceSource> makeTraceGenerator(TraceGenSpec spec);

/**
 * Open any trace-source spec:
 *   "gen:KIND,key=value,..."  a synthetic generator
 *   "-"                       the standard input (single pass)
 *   anything else             a trace file path
 */
std::unique_ptr<TraceSource> makeTraceSource(const std::string &spec);

/**
 * Drain `src` to `out` in the on-disk format. `provenance`, when
 * non-empty, is embedded as a comment so the file records how to
 * regenerate itself. Returns the number of events written.
 */
std::size_t writeTrace(std::FILE *out, TraceSource &src,
                       const std::string &provenance);

} // namespace fastcap

#endif // FASTCAP_TRACE_TRACE_GENERATOR_HPP
