#include "cluster/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/arbiter.hpp"
#include "cluster/queue_trace_source.hpp"
#include "harness/peak_power.hpp"
#include "policies/registry.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/tracer.hpp"
#include "trace/trace_generator.hpp"
#include "trace/trace_replay.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {

namespace {

std::string
fmt(double v)
{
    char buf[40];
    checkedSnprintf(buf, sizeof(buf), "%.10g", v);
    return std::string(buf);
}

} // namespace

void
ClusterConfig::validate() const
{
    if (machines < 1)
        fatal("ClusterConfig: need at least one machine (got %d)",
              machines);
    machine.validate();
    // Written so NaN fails too: every comparison with NaN is false.
    if (!(rackBudgetFraction > 0.0 && rackBudgetFraction <= 1.0))
        fatal("ClusterConfig: rack budget fraction %g not in (0, 1]",
              rackBudgetFraction);
    if (!(floorFraction >= 0.0 && floorFraction < 1.0))
        fatal("ClusterConfig: floor fraction %g not in [0, 1)",
              floorFraction);
    if (maxEpochs < 1)
        fatal("ClusterConfig: maxEpochs must be >= 1");
    if (machineThreads < 0)
        fatal("ClusterConfig: machineThreads must be >= 0 (got %d)",
              machineThreads);
    if (shards < 0 || shardThreads < 0)
        fatal("ClusterConfig: shards/shardThreads must be >= 0");
    for (const MachineFailure &f : failures) {
        if (f.machine < 0 || f.machine >= machines)
            fatal("ClusterConfig: failure targets machine %d of %d",
                  f.machine, machines);
        if (f.failEpoch < 0)
            fatal("ClusterConfig: failure epoch %d must be >= 0",
                  f.failEpoch);
        if (f.restoreEpoch != -1 && f.restoreEpoch <= f.failEpoch)
            fatal("ClusterConfig: restore epoch %d must follow "
                  "failure epoch %d", f.restoreEpoch, f.failEpoch);
    }
    // Unknown workload/policy names fail here, not mid-run.
    workloads::mix(workload, machine.numCores);
    makePolicy(policy);
}

/** One machine: the full per-machine capping stack plus its queue. */
struct Cluster::Machine
{
    std::unique_ptr<CappingPolicy> policy;
    std::unique_ptr<ExperimentRunner> runner;
    QueueTraceSource *feed = nullptr; //!< owned by `replayer`
    std::unique_ptr<TraceReplayer> replayer;
    Watts peak = 0.0;
    /** Previous-epoch demand reported to the arbiter. */
    Watts demand = 0.0;
    bool alive = true;
    /** Replayer counters at the last collection (delta bookkeeping). */
    std::size_t lastCompleted = 0;
    std::size_t lastDropped = 0;

    /** Start machine `index` on an empty queue and a fresh replayer
     *  that publishes into `registry`. */
    void
    resetQueue(int index, int num_cores, telemetry::Registry *registry)
    {
        auto queue = std::make_unique<QueueTraceSource>(
            "queue:m" + std::to_string(index));
        feed = queue.get();
        replayer = std::make_unique<TraceReplayer>(std::move(queue),
                                                   num_cores, 0, registry);
        lastCompleted = 0;
        lastDropped = 0;
    }
};

Cluster::Cluster(ClusterConfig cfg) : _cfg(std::move(cfg))
{
    _cfg.validate();

    // One shared measurement: machines are identical hardware, and
    // the arbiter's conservation arithmetic is cleanest against one
    // peak. Measured on the engine the machines will run
    // (engine-tagged cache key), like any single-machine experiment.
    _machinePeak = measuredPeakPower(
        _cfg.machine, EngineConfig{_cfg.shards, _cfg.shardThreads});
    _installedPeak =
        static_cast<double>(_cfg.machines) * _machinePeak;

    ExperimentConfig ecfg;
    ecfg.budgetFraction = _cfg.rackBudgetFraction;
    // Machines run for as long as the rack does: the cluster owns
    // termination, so per-app instruction targets are unreachable.
    ecfg.targetInstructions = 1e18;
    ecfg.maxEpochs = _cfg.maxEpochs + 1;
    ecfg.peakPowerOverride = _machinePeak;
    ecfg.solver = _cfg.solver;
    ecfg.shards = _cfg.shards;
    ecfg.shardThreads = _cfg.shardThreads;

    _machines.reserve(static_cast<std::size_t>(_cfg.machines));
    for (int i = 0; i < _cfg.machines; ++i) {
        auto mc = std::make_unique<Machine>();
        SimConfig sc = _cfg.machine;
        sc.seed = splitmix64(_cfg.seed,
                             static_cast<std::uint64_t>(i));
        ecfg.tracer = _cfg.tracer;
        ecfg.registry = _cfg.registry;
        ecfg.machineIndex = i;
        mc->policy = makePolicy(_cfg.policy, _cfg.solver, _cfg.registry);
        mc->runner = std::make_unique<ExperimentRunner>(
            sc, workloads::mix(_cfg.workload, sc.numCores),
            *mc->policy, ecfg);
        mc->resetQueue(i, sc.numCores, _cfg.registry);
        mc->peak = _machinePeak;
        // Before the first epoch every machine claims its full peak:
        // no demand has been observed, and an even split is the only
        // defensible prior.
        mc->demand = _machinePeak;
        _machines.push_back(std::move(mc));
    }

    if (!_cfg.trace.empty())
        _trace = makeTraceSource(_cfg.trace);

    _pool = std::make_unique<ThreadPool>(
        ThreadPool::workersFor(_cfg.machineThreads,
                               static_cast<std::size_t>(_cfg.machines)),
        _cfg.registry);

    inform("Cluster: %d machines of %d cores, installed peak %.6g W",
           _cfg.machines, _cfg.machine.numCores, _installedPeak);
}

Cluster::~Cluster() = default;

int
Cluster::loadOf(const Machine &mc) const
{
    return mc.replayer->busyCores() + mc.replayer->backlogCores() +
        mc.feed->pendingCores();
}

void
Cluster::killMachine(Machine &mc, int index)
{
    const TraceReplayStats &st = mc.replayer->stats();
    // Flush counter deltas before the replayer is discarded, then
    // charge everything still in flight — running, pending, queued
    // and the replayer's one-event read-ahead — to the failure.
    _completed += st.completed - mc.lastCompleted;
    _dropped += st.dropped - mc.lastDropped;
    const std::size_t in_flight =
        mc.feed->pushed() - st.completed - st.dropped;
    _lost += in_flight;

    // The machine itself reboots idle; the simulated hardware state
    // (DVFS levels, fitter history) persists across the outage, which
    // only matters once it is restored.
    for (int core = 0; core < _cfg.machine.numCores; ++core)
        mc.runner->swapApp(core, workloads::idleProfile());
    mc.resetQueue(index, _cfg.machine.numCores, _cfg.registry);
    mc.alive = false;
    mc.demand = 0.0;
}

void
Cluster::dispatch(Seconds epoch_start, ClusterEpochRecord &rec)
{
    if (!_trace)
        return;
    for (;;) {
        if (!_haveNext) {
            if (!_trace->next(_next))
                return;
            _haveNext = true;
        }
        if (_next.arrival > epoch_start)
            return;
        if (_next.cores > _cfg.machine.numCores)
            fatal("Cluster: %s: job at t=%g demands %d cores but "
                  "machines have %d", _trace->name().c_str(),
                  _next.arrival, _next.cores, _cfg.machine.numCores);
        // Least-loaded placement, lowest index on ties: a pure
        // function of epoch-boundary state, so dispatch is identical
        // for every machine-thread count.
        int best = -1;
        int best_load = 0;
        for (int i = 0; i < _cfg.machines; ++i) {
            const Machine &mc =
                *_machines[static_cast<std::size_t>(i)];
            if (!mc.alive)
                continue;
            const int load = loadOf(mc);
            if (best < 0 || load < best_load) {
                best = i;
                best_load = load;
            }
        }
        if (best < 0) {
            // Whole rack down: the job has nowhere to go.
            ++rec.lost;
            ++_lost;
        } else {
            _machines[static_cast<std::size_t>(best)]->feed->push(
                _next);
            ++_dispatched;
        }
        _haveNext = false;
    }
}

ClusterEpochRecord
Cluster::step()
{
    const std::size_t m = static_cast<std::size_t>(_cfg.machines);
    const Seconds epoch_start =
        static_cast<double>(_epoch) * _cfg.machine.epochLength;

    ClusterEpochRecord rec;
    rec.epoch = _epoch;
    rec.startTime = epoch_start;

    // 1. Failure schedule (kill before restore at equal epochs).
    for (const MachineFailure &f : _cfg.failures) {
        Machine &mc = *_machines[static_cast<std::size_t>(f.machine)];
        if (f.failEpoch == _epoch && mc.alive) {
            const std::size_t lost_before = _lost;
            killMachine(mc, f.machine);
            rec.lost += _lost - lost_before;
            if (_cfg.registry != nullptr)
                _cfg.registry->counter("/cluster/arbiter/failures")
                    .add();
            if (_cfg.tracer != nullptr)
                _cfg.tracer->track(0, "cluster")
                    .instant("machine " + std::to_string(f.machine) +
                                 " failed",
                             epoch_start);
        }
        if (f.restoreEpoch == _epoch && !mc.alive) {
            mc.alive = true;
            // No observed demand yet: claim the full peak, the prior a
            // new machine starts from. A zero claim would leave it the
            // arbiter's floor, below its own floor power, so the rack
            // would overrun its budget in the restore epoch.
            mc.demand = mc.peak;
            if (_cfg.registry != nullptr)
                _cfg.registry->counter("/cluster/arbiter/restores")
                    .add();
            if (_cfg.tracer != nullptr)
                _cfg.tracer->track(0, "cluster")
                    .instant("machine " + std::to_string(f.machine) +
                                 " restored",
                             epoch_start);
        }
    }

    // 2. Rack budget for this epoch.
    const double frac = _cfg.rackSchedule.fractionAt(
        epoch_start, _cfg.rackBudgetFraction);
    rec.rackBudget = frac * _installedPeak;
    Watts alive_peak = 0.0;
    for (const auto &mc : _machines)
        if (mc->alive)
            alive_peak += mc->peak;
    rec.usableBudget = std::min(rec.rackBudget, alive_peak);

    // 3. Arbitration from previous-epoch demand.
    std::vector<Watts> peaks(m, 0.0);
    std::vector<Watts> demands(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        if (!_machines[i]->alive)
            continue;
        peaks[i] = _machines[i]->peak;
        demands[i] = _machines[i]->demand;
    }
    rec.machineBudget = arbitrateRackBudget(
        rec.rackBudget, peaks, demands, _cfg.floorFraction);
    for (std::size_t i = 0; i < m; ++i) {
        rec.assignedTotal += rec.machineBudget[i];
        if (_machines[i]->alive)
            _machines[i]->runner->budgetFraction(std::clamp(
                rec.machineBudget[i] / _machines[i]->peak, 1e-6,
                1.0));
    }
    // The arbiter must conserve the rack budget every epoch: grants
    // sum to exactly what the live rack can use, neither stranding
    // nor inventing watts.
    if (std::abs(rec.assignedTotal - rec.usableBudget) >
        1e-6 * std::max(rec.usableBudget, 1.0))
        panic("Cluster: arbiter leaked budget at epoch %d: assigned "
              "%.9g W of %.9g W usable", _epoch, rec.assignedTotal,
              rec.usableBudget);

    // Arbiter telemetry, on the stepping thread: one redistribution
    // round per epoch, one grant per live machine, per-machine grant
    // gauges (single writer — only this thread touches them).
    if (_cfg.registry != nullptr) {
        telemetry::Registry &reg = *_cfg.registry;
        reg.counter("/cluster/arbiter/rounds").add();
        for (std::size_t i = 0; i < m; ++i) {
            reg.gauge("/cluster/arbiter/grant/" + std::to_string(i))
                .set(rec.machineBudget[i]);
            if (_machines[i]->alive)
                reg.counter("/cluster/arbiter/grants").add();
        }
    }

    // 4. Dispatch cluster-trace arrivals due at this boundary.
    dispatch(epoch_start, rec);

    // 5. Machine epochs, fanned out; each job touches only its own
    // machine and power slot, so the fan-out is embarrassingly
    // parallel and the merge below runs in fixed index order. Of a
    // machine's epoch record the rack reads only its power.
    rec.machinePower.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        Machine &mc = *_machines[i];
        if (!mc.alive)
            continue;
        _pool->submit([&mc, &power = rec.machinePower[i], epoch_start] {
            mc.replayer->advanceTo(
                epoch_start,
                [&mc](int core, const AppProfile &app) {
                    mc.runner->swapApp(core, app);
                });
            power = mc.runner->step().totalPower;
        });
    }
    _pool->wait();

    // 6. Collect aggregates and next-epoch demands, in index order.
    for (std::size_t i = 0; i < m; ++i) {
        Machine &mc = *_machines[i];
        if (!mc.alive)
            continue;
        ++rec.aliveMachines;
        rec.totalPower += rec.machinePower[i];

        const TraceReplayStats &st = mc.replayer->stats();
        _completed += st.completed - mc.lastCompleted;
        mc.lastCompleted = st.completed;
        const std::size_t drop = st.dropped - mc.lastDropped;
        mc.lastDropped = st.dropped;
        rec.dropped += drop;
        _dropped += drop;

        const int busy = mc.replayer->busyCores();
        const int backlog =
            mc.replayer->backlogCores() + mc.feed->pendingCores();
        rec.busyCores += busy;
        rec.pendingJobs += mc.replayer->pending() + mc.feed->size();

        // Demand for the next arbitration: measured power, floored by
        // occupancy — a machine whose queue just filled deserves watts
        // before its power catches up to the admitted load.
        const double occupancy = std::min(
            1.0, static_cast<double>(busy + backlog) /
                static_cast<double>(_cfg.machine.numCores));
        mc.demand = std::min(
            mc.peak,
            std::max(rec.machinePower[i], mc.peak * occupancy));
    }

    if (_cfg.registry != nullptr) {
        _cfg.registry->gauge("/cluster/power").set(rec.totalPower);
        _cfg.registry->gauge("/cluster/pending_jobs")
            .set(static_cast<double>(rec.pendingJobs));
    }
    if (_cfg.tracer != nullptr) {
        telemetry::TraceTrack &track = _cfg.tracer->track(0, "cluster");
        track.span("rack epoch", epoch_start,
                   epoch_start + _cfg.machine.epochLength);
        track.counterEvent("rack_budget_w", epoch_start,
                           rec.rackBudget);
        track.counterEvent("rack_power_w", epoch_start, rec.totalPower);
    }

    ++_epoch;
    return rec;
}

ClusterResult
Cluster::run()
{
    ClusterResult res;
    res.installedPeak = _installedPeak;
    res.epochs.reserve(static_cast<std::size_t>(_cfg.maxEpochs));
    for (int e = 0; e < _cfg.maxEpochs; ++e)
        res.epochs.push_back(step());
    res.dispatched = _dispatched;
    res.completed = _completed;
    res.dropped = _dropped;
    res.lost = _lost;
    return res;
}

void
ClusterResult::writeCsv(std::FILE *out) const
{
    CsvWriter csv(out);
    csv.header({"epoch", "rack_budget_w", "usable_w", "assigned_w",
                "power_w", "alive", "busy_cores", "pending_jobs",
                "dropped", "lost"});
    for (const ClusterEpochRecord &e : epochs)
        csv.row({std::to_string(e.epoch), fmt(e.rackBudget),
                 fmt(e.usableBudget), fmt(e.assignedTotal),
                 fmt(e.totalPower), std::to_string(e.aliveMachines),
                 std::to_string(e.busyCores),
                 std::to_string(e.pendingJobs),
                 std::to_string(e.dropped), std::to_string(e.lost)});
}

} // namespace fastcap
