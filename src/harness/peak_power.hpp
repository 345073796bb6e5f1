/**
 * @file
 * Measured peak power, following the paper's procedure: "We first run
 * all workloads under the maximum frequencies to observe the peak
 * power the system ever consumed" (Section IV-B). The budget fraction
 * B multiplies this observed peak, not the nameplate.
 *
 * The ILP workloads dominate the peak (busy, high-activity cores), so
 * the measurement runs those at maximum frequencies and takes the
 * highest epoch power. Results are memoized per configuration: every
 * bench sharing a configuration reuses the same P̄.
 */

#ifndef FASTCAP_HARNESS_PEAK_POWER_HPP
#define FASTCAP_HARNESS_PEAK_POWER_HPP

#include <string>

#include "sim/config.hpp"
#include "sim/engine/backend.hpp"
#include "util/units.hpp"

namespace fastcap {

/**
 * Memoization key over every configuration field that influences the
 * measurement: power parameters, topology, DVFS ladders/voltages,
 * memory and L2 timing, think-time jitter, the out-of-order limits,
 * the sampling window, and — since the engines model contention
 * differently — the *resolved* engine the measurement ran on
 * ("monolithic" or "sharded", never the shard/thread counts, whose
 * choice is bit-irrelevant). Determinism of parallel sweeps rests on
 * this key being complete and collision-free — two configs that
 * measure differently must never share an entry, so the key is built
 * at whatever length the values demand (never truncated). Exposed for
 * the regression tests; callers want measuredPeakPower().
 */
std::string peakPowerCacheKey(const SimConfig &cfg,
                              const EngineConfig &engine,
                              int epochs = 3);
/** Auto-engine key (EngineConfig{}): monolithic <= 64 cores. */
std::string peakPowerCacheKey(const SimConfig &cfg, int epochs = 3);

/**
 * Observed peak full-system power for a configuration, measured on
 * the engine `engine` resolves to for this core count — the engine
 * the experiment itself will run on, so the budget denominator and
 * the measured epoch powers come from the same contention model.
 *
 * @param cfg    system configuration (frequencies forced to max)
 * @param engine engine selection (EngineConfig{} = auto rule)
 * @param epochs measurement epochs per workload
 */
Watts measuredPeakPower(const SimConfig &cfg,
                        const EngineConfig &engine, int epochs = 3);
/** Auto-engine measurement (EngineConfig{}). */
Watts measuredPeakPower(const SimConfig &cfg, int epochs = 3);

/** Drop the memoization cache (tests only). */
void clearPeakPowerCache();

} // namespace fastcap

#endif // FASTCAP_HARNESS_PEAK_POWER_HPP
