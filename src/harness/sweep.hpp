/**
 * @file
 * Parallel experiment sweeps.
 *
 * The paper's evaluation (Figs. 3–13) is a grid of
 * (policy x budget fraction x workload x system configuration)
 * experiments. SweepGrid declares that cross-product; SweepRunner
 * fans it out over a fixed-size thread pool and collects results in
 * stable run-index order.
 *
 * Determinism contract: each run's simulation seed is derived with
 * SplitMix64 from (baseSeed, runIndex), runs share no mutable state,
 * and results are stored by run index — so the emitted CSV/JSON is
 * byte-identical for any worker count and any completion order.
 */

#ifndef FASTCAP_HARNESS_SWEEP_HPP
#define FASTCAP_HARNESS_SWEEP_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "scenario/scenario.hpp"
#include "sim/config.hpp"

namespace fastcap {

/** One named system configuration of a sweep (a Fig. 12 column). */
struct SweepConfig
{
    std::string name; //!< label used in CSV/JSON output
    SimConfig sim;    //!< seed is overridden per run
};

/** Coordinates of one run, decoded from its stable run index. */
struct SweepPoint
{
    std::size_t runIndex = 0;
    std::size_t configIdx = 0;
    std::size_t workloadIdx = 0;
    std::size_t scenarioIdx = 0;
    std::size_t policyIdx = 0;
    std::size_t budgetIdx = 0;
    int replicate = 0;
    std::string config;
    std::string workload;
    std::string scenario; //!< "constant" when the grid has no axis
    std::string policy;
    double budgetFraction = 0.0;
    /**
     * Simulation seed: splitmix64(grid.baseSeed, runIndex), or — with
     * grid.pairSeedsAcrossPolicies — splitmix64 of the trace index
     * (config, workload, scenario, replicate only).
     */
    std::uint64_t seed = 0;
};

/**
 * Declarative cross-product of experiment coordinates.
 *
 * Run order (and therefore run index) is row-major over
 * configs > workloads > scenarios > policies > budgetFractions >
 * replicates, with replicates innermost. An empty `scenarios` vector
 * means a single implicit constant scenario: run indices, seeds and
 * emitted CSV/JSON are then byte-identical to a grid without the
 * scenario axis.
 */
struct SweepGrid
{
    std::vector<SweepConfig> configs;
    std::vector<std::string> workloads;
    /** Time-varying scenarios; empty = one implicit constant one. */
    std::vector<Scenario> scenarios;
    std::vector<std::string> policies;
    std::vector<double> budgetFractions;
    /** Seed dimension: repeats every point with a fresh derived seed. */
    int replicates = 1;

    // Shared experiment knobs.
    double targetInstructions = 30e6;
    int maxEpochs = 2000;
    std::uint64_t baseSeed = 0x5eedf00dULL;
    /**
     * Solver options applied to every run's solver-backed policies
     * (validation sweeps set referenceImpl / exhaustiveMemSearch to
     * cross-check the optimised hot path at full-experiment scale).
     */
    SolverOptions solver;
    /**
     * Derive seeds from the trace coordinates (config, workload,
     * scenario, replicate) instead of the full run index, so runs
     * differing only in policy or budget share one seed and see the
     * same random trace. Required for paired comparisons (normalized
     * CPI against an Uncapped baseline); either mode is deterministic
     * for any worker count.
     */
    bool pairSeedsAcrossPolicies = false;
    /**
     * Simulation-engine shard count per run
     * (ExperimentConfig::shards): 0 = auto (the monolithic engine up
     * to 64 cores — a *different contention model*, not a shard
     * count), >= 1 forces the sharded engine. Output is
     * byte-identical across every value >= 1; 0 only matches them
     * where auto already selects the sharded engine (> 64 cores).
     */
    int shards = 0;
    /**
     * Sharded-engine worker threads per run. Defaults to 1: the
     * sweep already fans runs out over its own pool, so nesting
     * shard parallelism inside sweep parallelism oversubscribes.
     * Raise it for single-run grids at large core counts.
     */
    int shardThreads = 1;

    /** Configs from SimConfig::defaultConfig per core count. */
    static std::vector<SweepConfig>
    configsForCores(const std::vector<int> &core_counts);

    /** fatal() on empty dimensions or invalid knobs. */
    void validate() const;

    /** True when the grid declares explicit scenarios. */
    bool hasScenarioAxis() const { return !scenarios.empty(); }
    /** True when any declared scenario carries a job trace. */
    bool hasTraceScenario() const;
    /** Axis length including the implicit constant scenario. */
    std::size_t
    scenarioCount() const
    {
        return scenarios.empty() ? 1 : scenarios.size();
    }
    /** Name of a scenario index ("constant" when implicit). */
    const std::string &scenarioName(std::size_t idx) const;

    std::size_t runCount() const;

    /** Decode a run index into its coordinates (with derived seed). */
    SweepPoint point(std::size_t run_index) const;

    /** Inverse of point(): coordinates to run index. */
    std::size_t runIndexOf(std::size_t config_idx,
                           std::size_t workload_idx,
                           std::size_t scenario_idx,
                           std::size_t policy_idx,
                           std::size_t budget_idx, int replicate) const;
    /** Shorthand for grids without a scenario axis (scenario 0). */
    std::size_t runIndexOf(std::size_t config_idx,
                           std::size_t workload_idx,
                           std::size_t policy_idx,
                           std::size_t budget_idx, int replicate) const;

    /** Index of a workload name; fatal() if absent. */
    std::size_t workloadIndex(const std::string &name) const;
    /** Index of a policy name; fatal() if absent. */
    std::size_t policyIndex(const std::string &name) const;
};

/** One completed grid point. */
struct SweepRun
{
    SweepPoint point;
    ExperimentResult result;
};

/**
 * All runs of a sweep, ordered by run index regardless of the
 * execution interleaving.
 */
struct SweepResult
{
    SweepGrid grid;
    std::vector<SweepRun> runs;
    int threads = 1;          //!< worker count actually used
    double wallSeconds = 0.0; //!< not emitted (non-deterministic)

    const SweepRun &at(std::size_t run_index) const;
    const SweepRun &at(std::size_t config_idx, std::size_t workload_idx,
                       std::size_t policy_idx, std::size_t budget_idx,
                       int replicate = 0) const;
    /** Scenario-axis access (scenario between workload and policy). */
    const SweepRun &at(std::size_t config_idx, std::size_t workload_idx,
                       std::size_t scenario_idx,
                       std::size_t policy_idx, std::size_t budget_idx,
                       int replicate) const;

    /**
     * One summary row per run: coordinates, seed, and the power /
     * completion metrics the figures consume. Deterministic given the
     * grid (no timing fields). Grids with an explicit scenario axis
     * gain a `scenario` column after `workload`; grids whose scenarios
     * carry a job trace additionally gain trailing
     * `trace_dropped,trace_peak_pending` columns (replay shedding).
     * Without those axes, the format is unchanged from older builds.
     */
    void writeCsv(std::FILE *out) const;
    /** Same rows as JSON (an array of run objects). */
    void writeJson(std::FILE *out) const;
};

/**
 * Runs a SweepGrid on a thread pool.
 *
 * Peak power per config is pre-measured serially before the fan-out
 * (the cache is shared), so worker scheduling cannot influence any
 * run's inputs.
 */
class SweepRunner
{
  public:
    /**
     * @param threads worker count, at most one per run; 0 = hardware
     *        concurrency. A negative count is fatal.
     */
    explicit SweepRunner(SweepGrid grid, int threads = 0);

    /** Execute every grid point and collect the ordered results. */
    SweepResult run();

    /** Execute a single grid point (used by workers and tests). */
    static SweepRun runOne(const SweepGrid &grid,
                           std::size_t run_index);

  private:
    SweepGrid _grid;
    int _threads = 0;
};

} // namespace fastcap

#endif // FASTCAP_HARNESS_SWEEP_HPP
