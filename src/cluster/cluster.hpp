/**
 * @file
 * Rack-scale hierarchical capping: a Cluster caps a datacenter rack
 * the way FastCap caps a machine.
 *
 * A Cluster instantiates M machines — each a full per-machine
 * capping stack (SimBackend engine, online model fitter, capping
 * policy, epoch loop) — and adds the rack layer on top:
 *
 *   1. a top-level budget arbiter re-divides the rack budget across
 *      machines every epoch from the demand each machine reported
 *      for the previous epoch (arbiter.hpp);
 *   2. a job dispatcher streams a cluster-wide trace onto the
 *      machines, placing each arrival on the least-loaded machine
 *      (lowest index on ties) via per-machine push-fed replay queues;
 *   3. a failure schedule kills and restores whole machines, to
 *      study re-convergence of the budget division.
 *
 * Determinism contract: machine epochs may execute in parallel over
 * a thread pool, but arbitration and dispatch read only
 * epoch-boundary aggregates, machines are advanced and collected in
 * fixed index order, and each machine owns all of its mutable state
 * — so every record and CSV byte is identical for any machineThreads,
 * shards or shardThreads setting.
 */

#ifndef FASTCAP_CLUSTER_CLUSTER_HPP
#define FASTCAP_CLUSTER_CLUSTER_HPP

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "harness/experiment.hpp"
#include "scenario/budget_schedule.hpp"
#include "sim/config.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace fastcap {

class CappingPolicy;
class QueueTraceSource;
class TraceSource;

/** Kill one machine at an epoch, optionally restoring it later. */
struct MachineFailure
{
    int machine = 0;      //!< machine index
    int failEpoch = 0;    //!< epoch at whose boundary it dies
    int restoreEpoch = -1; //!< epoch it comes back (-1 = never)
};

/** Rack-level knobs on top of the per-machine configuration. */
struct ClusterConfig
{
    int machines = 4;
    /** Per-machine system; the seed is re-derived per machine. */
    SimConfig machine;
    /** Initial per-core application mix on every machine. */
    std::string workload = "idle";
    /** Capping policy instantiated per machine. */
    std::string policy = "FastCap";
    /** Rack budget as a fraction of the installed (summed) peak. */
    double rackBudgetFraction = 0.6;
    /** Optional time-varying rack budget (overrides the fraction). */
    BudgetSchedule rackSchedule;
    /** Cluster-wide job trace (path, '-' or gen: spec); "" = none. */
    std::string trace;
    int maxEpochs = 100;
    /**
     * Threads machine epochs fan out over, at most one per machine
     * (0 = hardware). Output is byte-identical for every value.
     */
    int machineThreads = 1;
    /** Per-machine engine shards (ExperimentConfig::shards). */
    int shards = 0;
    /** Per-machine engine threads; 1 avoids nested parallelism. */
    int shardThreads = 1;
    /** Arbiter floor: guaranteed share of peak per live machine. */
    double floorFraction = 0.05;
    SolverOptions solver;
    std::vector<MachineFailure> failures;
    std::uint64_t seed = 0x5eedf00dULL;
    /**
     * Optional epoch tracer shared by the rack. The cluster emits
     * arbitration spans and rack counter events on track 0 and hands
     * each machine its own track (machine index + 1); everything is
     * keyed to virtual time, so reruns reproduce the trace byte for
     * byte. Observe-only — results are identical with or without it.
     */
    telemetry::Tracer *tracer = nullptr;
    /**
     * Optional metrics registry shared by the rack (null = off). The
     * cluster publishes under /cluster on the stepping thread;
     * machine i publishes its per-core and engine state under
     * /machine/<i>/, plus the commuting /solver and /trace totals.
     * Observe-only, like the tracer.
     */
    telemetry::Registry *registry = nullptr;

    /** fatal() on invalid knobs. */
    void validate() const;
};

/** One rack epoch: the arbitration and the machine aggregates. */
struct ClusterEpochRecord
{
    int epoch = 0;
    Seconds startTime = 0.0;
    Watts rackBudget = 0.0;   //!< schedule-applied rack budget
    Watts usableBudget = 0.0; //!< min(rackBudget, summed live peaks)
    Watts assignedTotal = 0.0; //!< what the arbiter handed out
    Watts totalPower = 0.0;    //!< summed machine epoch-average power
    int aliveMachines = 0;
    int busyCores = 0;          //!< rack-wide cores running trace jobs
    std::size_t pendingJobs = 0; //!< queued on machines, not running
    std::size_t dropped = 0;     //!< arrivals shed this epoch
    std::size_t lost = 0;        //!< jobs killed by failures/no machine
    std::vector<Watts> machineBudget; //!< per-machine grant
    std::vector<Watts> machinePower;  //!< per-machine epoch power
};

/** Full rack run outcome. */
struct ClusterResult
{
    Watts installedPeak = 0.0; //!< summed per-machine peaks
    std::vector<ClusterEpochRecord> epochs;
    std::size_t dispatched = 0; //!< trace events placed on machines
    std::size_t completed = 0;
    std::size_t dropped = 0;
    std::size_t lost = 0;

    /**
     * Per-epoch rack time series as CSV (aggregate columns only;
     * per-machine series live in the records). Deterministic across
     * machineThreads — the CI cmp gate depends on it.
     */
    void writeCsv(std::FILE *out) const;
};

/**
 * Drives an M-machine rack: per-machine epoch loops below, budget
 * arbitration and job dispatch above.
 */
class Cluster
{
  public:
    explicit Cluster(ClusterConfig cfg);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Advance the whole rack one epoch. */
    ClusterEpochRecord step();

    /** Run cfg.maxEpochs epochs and collect the result. */
    ClusterResult run();

    /** Summed per-machine measured peaks (the rack nameplate). */
    Watts installedPeak() const { return _installedPeak; }
    int epoch() const { return _epoch; }

  private:
    struct Machine;

    void killMachine(Machine &mc, int index);
    void dispatch(Seconds epoch_start, ClusterEpochRecord &rec);
    /** Dispatcher load metric: busy + backlogged + queued cores. */
    int loadOf(const Machine &mc) const;

    ClusterConfig _cfg;
    Watts _machinePeak = 0.0;   //!< shared measured per-machine peak
    Watts _installedPeak = 0.0; //!< machines * machinePeak
    std::vector<std::unique_ptr<Machine>> _machines;
    std::unique_ptr<TraceSource> _trace; //!< cluster-wide stream
    TraceEvent _next;                    //!< one-event read-ahead
    bool _haveNext = false;
    std::unique_ptr<ThreadPool> _pool;
    int _epoch = 0;
    // Cumulative rack counters (survive per-machine replayer resets).
    std::size_t _dispatched = 0;
    std::size_t _completed = 0;
    std::size_t _dropped = 0;
    std::size_t _lost = 0;
};

} // namespace fastcap

#endif // FASTCAP_CLUSTER_CLUSTER_HPP
