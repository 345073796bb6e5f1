/**
 * @file
 * Experiment runner: composes the simulated system, the online model
 * fitter and a capping policy into the paper's epoch loop
 * (Section III-C):
 *
 *   1. profile window at the incumbent frequencies (counters, power)
 *   2. build policy inputs (Eq. 9 for z̄_i, MemScale counters for
 *      Q/U/s_m, power-law fits for Eq. 2/3 parameters)
 *   3. policy decides; frequencies are applied with transition costs
 *   4. execution window at the new frequencies
 *   5. extrapolate both windows over the epoch (docs/DESIGN.md section 5)
 *
 * The run ends when the slowest application reaches its instruction
 * target (the paper's termination rule) or at maxEpochs.
 */

#ifndef FASTCAP_HARNESS_EXPERIMENT_HPP
#define FASTCAP_HARNESS_EXPERIMENT_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/inputs.hpp"
#include "core/model_fitter.hpp"
#include "core/policy.hpp"
#include "core/solver.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine/backend.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/tracer.hpp"
#include "trace/trace_replay.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace fastcap {

/** Experiment-level knobs (on top of SimConfig). */
struct ExperimentConfig
{
    /** Budget fraction B in Eq. 6: budget = B * peak. */
    double budgetFraction = 0.6;
    /** Instructions each application must retire (paper: 100M). */
    double targetInstructions = 100e6;
    /** Hard stop in epochs (guards runaway configurations). */
    int maxEpochs = 1000;
    /** Explicit peak power P̄ (0 = determine automatically). */
    Watts peakPowerOverride = 0.0;
    /**
     * Determine P̄ by measurement (run the power-hungriest workloads
     * at max frequency, as the paper does) rather than nameplate.
     */
    bool measurePeak = true;
    /**
     * Force a linear (exponent-1) online power model, reproducing
     * the Freq-Par-style modeling error inside FastCap. Used by the
     * `bench_ablation_fit` design study; leave false otherwise.
     */
    bool linearPowerModel = false;
    /**
     * Time-varying scenario: budget schedule sampled and workload
     * events applied at every epoch boundary. The default (constant)
     * scenario leaves the run bit-identical to a scenario-less one.
     * A non-empty budget schedule overrides `budgetFraction` (and any
     * mid-run budgetFraction() calls) from its first segment on.
     */
    Scenario scenario;
    /**
     * Options for the solver-backed policies created through
     * runWorkload() (socket budgets, reference implementation,
     * warm-start bracket shrink). Policies constructed by the caller
     * carry their own options; this field does not reach them.
     */
    SolverOptions solver;
    /**
     * Simulation-engine shard count (EngineConfig::shards). 0 = auto:
     * the monolithic engine up to 64 cores — bit-identical to
     * pre-engine releases — and the sharded engine (one shard per 64
     * cores) above. Any value >= 1 forces the sharded engine; its
     * output is byte-identical for every shard count.
     */
    int shards = 0;
    /**
     * Worker threads the sharded engine fans shards over
     * (EngineConfig::threads). 0 = hardware concurrency, 1 = serial
     * (what sweeps use, to avoid nesting parallelism). Output is
     * byte-identical for every value.
     */
    int shardThreads = 0;
    /**
     * Optional epoch tracer. When set, step() emits profile/exec
     * spans, a solve instant and power counter events on track
     * `machineIndex + 1` (pid 0 is reserved for the cluster arbiter
     * track), timestamped in virtual seconds. Observe-only: results
     * are byte-identical with or without it.
     */
    telemetry::Tracer *tracer = nullptr;
    /**
     * Optional metrics registry (null = off). The run publishes its
     * per-core and engine state under /machine/<machineIndex>/, and
     * runWorkload() hands it to the policy and the trace replayer.
     * Observe-only, like the tracer.
     */
    telemetry::Registry *registry = nullptr;
    /**
     * Machine index prefixing this run's metric paths
     * (/machine/<m>/...) and selecting its tracer track. Single
     * machines use 0; the cluster sets one index per member.
     */
    int machineIndex = 0;

    /**
     * Throws FatalError on a budget fraction outside (0, 1], a
     * non-positive or non-finite instruction target, maxEpochs < 1,
     * or a peakPowerOverride that is negative or non-finite. The
     * runner calls it before it builds any engine.
     */
    void validate() const;
};

/** Per-epoch record for time-series figures. */
struct EpochRecord
{
    int epoch = 0;
    Seconds startTime = 0.0;    //!< virtual time at epoch start
    /**
     * Simulated time this record covers. Normally the epoch length;
     * shorter for the final epoch, which is truncated at the instant
     * the last application reaches its instruction target. Zero in
     * hand-built records (averagePower() then falls back to an
     * unweighted mean).
     */
    Seconds duration = 0.0;
    Watts corePower = 0.0;      //!< epoch-average core power
    Watts memPower = 0.0;       //!< epoch-average memory power
    Watts totalPower = 0.0;     //!< epoch-average full-system power
    Watts budget = 0.0;
    std::vector<std::size_t> coreFreqIdx;
    std::size_t memFreqIdx = 0;
    std::vector<double> ips;    //!< per-core instruction rate
    int evaluations = 0;        //!< policy inner-solve count
    /**
     * The policy reported the epoch's budget as infeasible (below the
     * platform floor power): the operating point is pinned, not
     * tracking. See PolicyDecision::budgetSaturated.
     */
    bool budgetSaturated = false;
    /** Solve ran outside the queuing model's validity domain. */
    bool utilisationClamped = false;
    /**
     * Trace-replay load shedding, surfaced per epoch: arrivals shed
     * this epoch because the pending queue was full, and the queue
     * depth after this epoch's replay step. Zero for trace-less runs.
     * Overload used to be visible only as a cumulative counter at the
     * end of the run; a capped machine that sheds for ten epochs and
     * recovers looked identical to one that shed everything up front.
     */
    std::size_t traceDropped = 0;
    std::size_t tracePending = 0;
};

/** Per-application outcome. */
struct AppResult
{
    std::string app;
    int core = -1;
    bool completed = false;
    /** Virtual time at which the instruction target was reached. */
    Seconds completionTime = 0.0;
    /** Time per instruction over the target window (the CPI proxy). */
    Seconds tpi = 0.0;
};

/** Full experiment outcome. */
struct ExperimentResult
{
    std::string workload;
    std::string policy;
    Watts peakPower = 0.0;
    Watts budget = 0.0;
    double budgetFraction = 0.0;
    std::vector<EpochRecord> epochs;
    std::vector<AppResult> apps;
    /** Replay counters when the scenario carried a job trace. */
    TraceReplayStats trace;
    bool traceDriven = false;

    /**
     * Run-average full-system power, energy-weighted over epochs:
     * sum(P * dt) / sum(dt). Epochs have unequal durations (the final
     * epoch is truncated at completion), so an unweighted mean of
     * per-epoch powers would skew the budget-tracking numbers.
     * Records without durations fall back to the unweighted mean.
     */
    Watts averagePower() const;
    /** Highest epoch-average power of the run. */
    Watts maxEpochPower() const;
    /** Virtual time at which the slowest application completed. */
    Seconds makespan() const;
    /** averagePower normalized to the peak. */
    double averagePowerFraction() const;
    /** maxEpochPower normalized to the peak. */
    double maxEpochPowerFraction() const;
    /** True if every application completed. */
    bool allCompleted() const;
    /**
     * Epochs whose budget the policy reported as infeasible (pinned
     * at the floor). Non-zero means the over-budget epochs in this
     * run are saturation artifacts, not control error.
     */
    int saturatedEpochs() const;
};

/**
 * Drives one (system, policy, workload) experiment.
 */
class ExperimentRunner
{
  public:
    /**
     * @param sim_cfg simulated-system configuration
     * @param apps    one application per core
     * @param policy  capping policy (owned by the caller)
     * @param cfg     experiment knobs
     */
    ExperimentRunner(SimConfig sim_cfg, std::vector<AppProfile> apps,
                     CappingPolicy &policy, ExperimentConfig cfg);

    /** Run to completion and return the result. */
    ExperimentResult run();

    /** Advance a single epoch (for interactive examples). */
    EpochRecord step();

    /** True once every application reached its target. */
    bool done() const;

    /** Change the budget fraction mid-run (power-shifting demos). */
    void budgetFraction(double fraction);
    double budgetFraction() const { return _cfg.budgetFraction; }

    /**
     * Replace the application on one core (cluster dispatch, external
     * replayers). The core's AppResult keeps tracking the original
     * instruction target, as with scenario workload events.
     */
    void swapApp(int core, const AppProfile &app);

    /** The engine driving this run (monolithic or sharded). */
    const SimBackend &system() const { return *_system; }
    Watts peakPower() const { return _peakPower; }
    Watts budget() const;

    /** Inputs built from the most recent profiling window. */
    const PolicyInputs &lastInputs() const { return _inputs; }

    /** The job-trace replayer, or nullptr for trace-less runs. */
    const TraceReplayer *traceReplayer() const
    {
        return _traceReplayer.get();
    }

  private:
    /**
     * Fill `in` from a profiling window, overwriting every field, so
     * a reused PolicyInputs keeps its vectors' capacity.
     */
    void buildInputs(const WindowStats &w, PolicyInputs &in);
    /**
     * Apply `dec` to the engine and report which levels it moved
     * against the levels in effect: the last record's, or every
     * maximum before the first epoch (a fresh engine's).
     */
    void applyDecision(const PolicyDecision &dec, bool &core_changed,
                       bool &mem_changed);
    /** The memory level in effect (see applyDecision). */
    std::size_t memLevel() const;
    /** Mark `core`'s application complete if this epoch took its
     *  retired count from `before` to at least the target. */
    void recordCompletion(std::size_t core, Seconds epoch_start,
                          double before, double after);
    /** Budget schedule + due workload events at an epoch boundary. */
    void applyScenario(Seconds now);
    /**
     * Push the finished epoch into the metrics registry and the
     * tracer, each only if set. Each machine index writes only its
     * own /machine/<m>/... paths, so plain Gauge::set stays
     * single-writer even when a cluster steps machines on pool
     * threads.
     */
    void publishTelemetry(const EpochRecord &rec);

    SimConfig _simCfg;
    std::unique_ptr<SimBackend> _system;
    CappingPolicy &_policy;
    ExperimentConfig _cfg;
    ModelFitter _fitter;
    PolicyInputs _inputs;
    Watts _peakPower = 0.0;
    /** Configured (pre-schedule) budget fraction, for reporting. */
    double _baseBudgetFraction = 0.0;
    /** Next unapplied WorkloadSchedule event. */
    std::size_t _nextWorkloadEvent = 0;
    /** Streams scenario.trace onto the cores (null = no trace). */
    std::unique_ptr<TraceReplayer> _traceReplayer;
    /** Cumulative shed count at the previous epoch boundary. */
    std::size_t _lastDropped = 0;
    /**
     * Lazily-resolved metric slots (stable: the registry never moves
     * a metric once created). Avoids per-epoch path building and
     * registry locking on the instrumented hot path.
     */
    std::vector<telemetry::Gauge *> _coreFreqGauges;
    telemetry::Gauge *_powerGauge = nullptr;
    telemetry::Gauge *_pendingGauge = nullptr;
    telemetry::Counter *_epochsCounter = nullptr;
    int _epoch = 0;
    std::vector<AppResult> _apps;
    std::vector<EpochRecord> _epochLog;
    /** Instructions each core has retired, credit included: the
     *  engine's count after the last epoch's credit. */
    std::vector<double> _retired;
    /** Per-core credit of the current epoch (reused scratch). */
    std::vector<double> _credit;
    /** Last good z̄/ipa per core (fallback for miss-free windows). */
    std::vector<Seconds> _lastZbar;
    std::vector<double> _lastIpa;
    /** Smoothed per-controller queue statistics (see buildInputs). */
    std::vector<Ewma> _qSmooth;
    std::vector<Ewma> _uSmooth;
    std::vector<Ewma> _rateSmooth;
};

/**
 * Convenience: run one Table III workload under a policy (by registry
 * name) on the given system configuration.
 */
ExperimentResult runWorkload(const std::string &workload,
                             const std::string &policy_name,
                             const ExperimentConfig &cfg,
                             const SimConfig &sim_cfg);

} // namespace fastcap

#endif // FASTCAP_HARNESS_EXPERIMENT_HPP
