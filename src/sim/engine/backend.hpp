/**
 * @file
 * Simulation-engine abstraction: the operations the experiment
 * harness needs from a simulated many-core server, decoupled from how
 * the discrete-event simulation is executed, plus the window stats
 * every engine returns.
 *
 * Two engines implement it:
 *
 *   - the *monolithic* engine (ManyCoreSystem, sim/system.hpp): one
 *     global event queue, shared memory controllers, full cross-core
 *     queueing contention. The faithful substrate for the paper-scale
 *     configurations (<= 64 cores).
 *   - the *sharded* engine (ShardedSystem): every core is a private
 *     lane with its own event queue, advanced independently between
 *     window boundaries; K shards only split the lanes across worker
 *     threads. Built for routine 256/1024-core capping runs. See
 *     sharded_system.hpp for its modeling contract.
 *
 * The harness composes either engine into epochs; which one runs is
 * an ExperimentConfig knob (`shards`), not a code path choice.
 */

#ifndef FASTCAP_SIM_ENGINE_BACKEND_HPP
#define FASTCAP_SIM_ENGINE_BACKEND_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/app_profile.hpp"
#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/memory_controller.hpp"
#include "sim/power.hpp"
#include "util/units.hpp"

namespace fastcap {

namespace telemetry {
class Registry;
} // namespace telemetry

/** Per-core results of one simulated window. */
struct CoreWindowStats
{
    CoreCounters counters;
    Hertz frequency = 0.0;
    /** Instructions retired since the start of the run, credit
     *  included, at the end of the window. */
    double retired = 0.0;
    double activity = 0.0;
    Watts dynamicPower = 0.0; //!< measured (energy / window)
    Watts totalPower = 0.0;   //!< dynamic + static

    /** Time per instruction over the window. */
    Seconds
    tpi(Seconds window) const
    {
        return counters.instructions
            ? window / static_cast<double>(counters.instructions)
            : 0.0;
    }
};

/** Per-controller results of one simulated window. */
struct MemWindowStats
{
    ControllerCounters counters;
    Hertz busFrequency = 0.0;
    Seconds transferTime = 0.0;    //!< s_b at the window's frequency
    double busUtilisation = 0.0;
    Watts dynamicPower = 0.0;      //!< access + frequency-scaled parts
    Watts totalPower = 0.0;
};

/** Results of one simulated window across the whole system. */
struct WindowStats
{
    Seconds duration = 0.0;
    std::vector<CoreWindowStats> cores;
    std::vector<MemWindowStats> memory;
    Watts backgroundPower = 0.0;
    Joules totalEnergy = 0.0;

    Watts corePowerTotal() const;
    Watts memPowerTotal() const;
    /** Full-system average power over the window. */
    Watts totalPower() const;
};

/**
 * Engine selection and execution knobs, orthogonal to the simulated
 * system's SimConfig (two engines given the same SimConfig model the
 * same machine; they differ in how the DES advances it).
 */
struct EngineConfig
{
    /**
     * Shard count. 0 = auto: the monolithic engine up to
     * `kAutoMonolithicLimit` cores (bit-identical to every pre-engine
     * release), one shard per 64 cores above it. Any value >= 1
     * forces the sharded engine with min(shards, numCores) shards.
     * The sharded engine's output is byte-identical for every shard
     * count — the knob trades scheduling granularity, not results.
     */
    int shards = 0;

    /**
     * Worker threads the sharded engine fans its shards over.
     * 1 = serial (default; the right choice inside an already
     * parallel sweep), 0 = hardware concurrency. Output is
     * byte-identical for every thread count. Ignored by the
     * monolithic engine.
     */
    int threads = 1;

    /**
     * Registry the sharded engine publishes its window, lane-merge
     * and per-shard event counts into, under `metricPrefix` +
     * "/engine/"; null = off. The harness sets both from the run's
     * registry and machine index, so machines sharing one registry
     * never write the same path. Observe-only.
     */
    telemetry::Registry *registry = nullptr;
    std::string metricPrefix = "";

    /**
     * True when this config runs a `num_cores`-core system on the
     * sharded engine: a forced shard count, or auto above
     * `kAutoMonolithicLimit` cores.
     */
    bool
    sharded(int num_cores) const
    {
        return shards > 0 || num_cores > kAutoMonolithicLimit;
    }

    /** Core count at or below which `shards = 0` stays monolithic. */
    static constexpr int kAutoMonolithicLimit = 64;
};

/**
 * A simulated many-core server as seen by the harness.
 *
 * The contract is what FastCap's epoch loop needs: windows of
 * bounded discrete-event simulation returning measured counters and
 * energy, DVFS actuation between windows, instruction credit, and
 * mid-run application rebinding for dynamic-workload scenarios.
 *
 * The surface is write-only for the operating point: the harness
 * owns the levels it applies and the instruction counts it credits,
 * and the engine reports what it measured in WindowStats. A fresh
 * engine runs every core and the memory at their maximum levels.
 */
class SimBackend
{
  public:
    virtual ~SimBackend() = default;

    /** The application bound to core i. */
    virtual const AppProfile &appOf(int core) const = 0;
    /** Rebind core i mid-run (job arrival/departure). */
    virtual void swapApp(int core, AppProfile app) = 0;

    // --- DVFS actuation ---------------------------------------------
    /**
     * Core i runs at coreLadder level core[i] from now on, every
     * memory controller at memLadder level mem. panic() on a vector
     * whose length is not numCores or an out-of-range level.
     */
    virtual void applyLevels(const std::vector<std::size_t> &core,
                             std::size_t mem) = 0;

    // --- simulation --------------------------------------------------
    /** Advance the DES by `duration` seconds and measure. */
    virtual WindowStats runWindow(Seconds duration) = 0;
    /**
     * Advance each core's application by credit[i] instructions
     * without simulating them (docs/DESIGN.md section 5). panic() on
     * a vector whose length is not numCores or a negative credit.
     */
    virtual void creditInstructions(const std::vector<double> &credit) = 0;

    // --- topology ---------------------------------------------------
    /** Access probabilities of core i over logical controllers. */
    virtual const std::vector<double> &
    accessProbabilities(int core) const = 0;
    virtual std::uint64_t eventsProcessed() const = 0;
};

/**
 * The checks both engines' applyLevels() make before they change
 * anything: panic() unless `core` holds one in-range core level per
 * core of `cfg` and `mem` is an in-range memory level.
 */
void checkLevels(const SimConfig &cfg, const std::vector<std::size_t> &core,
                 std::size_t mem);

/** creditInstructions()' checks: panic() unless `credit` holds one
 *  entry per core of `cfg`, none negative or NaN. */
void checkCredits(const SimConfig &cfg, const std::vector<double> &credit);

/**
 * Nameplate peak power of the machine `cfg` models: every core busy
 * at activity 1 and maximum frequency, every controller at the peak
 * access rate its bus sustains at maximum frequency, plus background.
 * A property of the machine, so one value for both engines.
 */
Watts nameplatePeakPower(const SimConfig &cfg);

/**
 * The power model of each memory controller of the machine `cfg`
 * models: a 1/numControllers share of the memory subsystem. Every
 * controller is priced by the same model, so an engine keeps one.
 */
MemoryPowerModel controllerPowerModel(const SimConfig &cfg);

/**
 * The window accounting both engines share: each fills one stats
 * entry and returns the energy it priced; each engine sums those in
 * its own order. fillCoreStats reads `core`'s counters, frequency,
 * retired count and activity; fillMemStats prices one controller's
 * (or one logical controller's merged) counters at `bus_freq`.
 */
Joules fillCoreStats(const Core &core, const CorePowerModel &model,
                     Seconds window, CoreWindowStats &cs);
Joules fillMemStats(const ControllerCounters &counters, Hertz bus_freq,
                    Seconds transfer, const MemoryPowerModel &model,
                    Seconds window, MemWindowStats &ms);

/**
 * Build the engine EngineConfig selects for this system: a
 * ManyCoreSystem or a ShardedSystem. See EngineConfig::sharded for
 * the auto rule.
 */
std::unique_ptr<SimBackend>
makeSimBackend(SimConfig cfg, std::vector<AppProfile> apps,
               const EngineConfig &engine = EngineConfig{});

} // namespace fastcap

#endif // FASTCAP_SIM_ENGINE_BACKEND_HPP
