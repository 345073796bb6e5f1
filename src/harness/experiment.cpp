#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "harness/peak_power.hpp"
#include "policies/registry.hpp"
#include "trace/trace_generator.hpp"
#include "util/logging.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {

Watts
ExperimentResult::averagePower() const
{
    if (epochs.empty())
        return 0.0;
    double energy = 0.0;
    double time = 0.0;
    for (const EpochRecord &e : epochs) {
        if (e.duration > 0.0) {
            energy += e.totalPower * e.duration;
            time += e.duration;
        }
    }
    if (time > 0.0)
        return energy / time;
    // Legacy/hand-built records carry no durations: unweighted mean.
    double acc = 0.0;
    for (const EpochRecord &e : epochs)
        acc += e.totalPower;
    return acc / static_cast<double>(epochs.size());
}

Watts
ExperimentResult::maxEpochPower() const
{
    Watts m = 0.0;
    for (const EpochRecord &e : epochs)
        m = std::max(m, e.totalPower);
    return m;
}

namespace {

/** Latest completion over a set of applications. */
Seconds
lastCompletion(const std::vector<AppResult> &apps)
{
    Seconds last = 0.0;
    for (const AppResult &a : apps)
        last = std::max(last, a.completionTime);
    return last;
}

} // namespace

Seconds
ExperimentResult::makespan() const
{
    return lastCompletion(apps);
}

double
ExperimentResult::averagePowerFraction() const
{
    return peakPower > 0.0 ? averagePower() / peakPower : 0.0;
}

double
ExperimentResult::maxEpochPowerFraction() const
{
    return peakPower > 0.0 ? maxEpochPower() / peakPower : 0.0;
}

bool
ExperimentResult::allCompleted() const
{
    for (const AppResult &a : apps)
        if (!a.completed)
            return false;
    return true;
}

int
ExperimentResult::saturatedEpochs() const
{
    int n = 0;
    for (const EpochRecord &e : epochs)
        n += e.budgetSaturated ? 1 : 0;
    return n;
}

namespace {

/**
 * Throws unless `fraction` is in (0, 1]. Written so NaN fails too:
 * every comparison with NaN is false.
 */
void
checkBudgetFraction(double fraction)
{
    if (!(fraction > 0.0 && fraction <= 1.0))
        fatal("budget fraction must be in (0, 1] (got %g)", fraction);
}

/**
 * The engine `cfg` selects. Validates `cfg` first, so a bad knob
 * fails before a 1024-core engine and all its lanes are built.
 */
EngineConfig
checkedEngineConfig(const ExperimentConfig &cfg)
{
    cfg.validate();
    return EngineConfig{cfg.shards, cfg.shardThreads, cfg.registry,
                        "/machine/" + std::to_string(cfg.machineIndex)};
}

} // namespace

void
ExperimentConfig::validate() const
{
    checkBudgetFraction(budgetFraction);
    if (!(std::isfinite(targetInstructions) && targetInstructions > 0.0))
        fatal("ExperimentConfig: target instructions must be positive "
              "and finite");
    if (maxEpochs < 1)
        fatal("ExperimentConfig: maxEpochs must be >= 1 (got %d)",
              maxEpochs);
    if (!(std::isfinite(peakPowerOverride) && peakPowerOverride >= 0.0))
        fatal("ExperimentConfig: peakPowerOverride must be finite and "
              ">= 0 (got %g)", peakPowerOverride);
}

ExperimentRunner::ExperimentRunner(SimConfig sim_cfg,
                                   std::vector<AppProfile> apps,
                                   CappingPolicy &policy,
                                   ExperimentConfig cfg)
    : _simCfg(std::move(sim_cfg)),
      _system(makeSimBackend(_simCfg, std::move(apps),
                             checkedEngineConfig(cfg))),
      _policy(policy), _cfg(std::move(cfg)),
      _fitter(static_cast<std::size_t>(_simCfg.numCores),
              _cfg.linearPowerModel ? 1.0 : 2.5,
              _cfg.linearPowerModel ? 1.0 : 1.0,
              _cfg.linearPowerModel ? 1.0 : 0.3,
              _cfg.linearPowerModel ? 1.0 : 4.0)
{
    _baseBudgetFraction = _cfg.budgetFraction;

    // Scenario workload events know their core index only as a
    // number; check it against this system before the run starts.
    for (const WorkloadEvent &ev : _cfg.scenario.workload.events())
        if (ev.core >= _simCfg.numCores)
            fatal("ExperimentRunner: scenario event at t=%g targets "
                  "core %d but the system has %d cores", ev.time,
                  ev.core, _simCfg.numCores);

    // A scenario job trace streams through a replayer; opening it
    // here makes a missing file or malformed generator spec fail
    // before any simulation time is spent.
    if (!_cfg.scenario.trace.empty())
        _traceReplayer = std::make_unique<TraceReplayer>(
            makeTraceSource(_cfg.scenario.trace), _simCfg.numCores, 0,
            _cfg.registry);

    if (_cfg.peakPowerOverride > 0.0)
        _peakPower = _cfg.peakPowerOverride;
    else if (_cfg.measurePeak)
        // Measure on the engine this run executes on: the budget
        // denominator must come from the same contention model as
        // the epoch powers it is compared against.
        _peakPower = measuredPeakPower(
            _simCfg, EngineConfig{_cfg.shards, _cfg.shardThreads});
    else
        _peakPower = _system->nameplatePeakPower();

    _policy.reset();

    const int n = _simCfg.numCores;
    _apps.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        _apps[static_cast<std::size_t>(i)].app =
            _system->appOf(i).name();
        _apps[static_cast<std::size_t>(i)].core = i;
    }

    _retired.assign(static_cast<std::size_t>(n), 0.0);
    _credit.resize(static_cast<std::size_t>(n));

    // Fallback queuing inputs before the first window: think time of
    // the bound application at max frequency.
    _lastZbar.resize(static_cast<std::size_t>(n));
    _lastIpa.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const Phase &ph = _system->appOf(i).phaseAt(0.0);
        _lastIpa[static_cast<std::size_t>(i)] = ph.instructionsPerMiss();
        _lastZbar[static_cast<std::size_t>(i)] =
            ph.instructionsPerMiss() * ph.cpiExec /
            _simCfg.coreLadder.max();
    }
}

void
ExperimentRunner::budgetFraction(double fraction)
{
    checkBudgetFraction(fraction);
    _cfg.budgetFraction = fraction;
}

void
ExperimentRunner::swapApp(int core, const AppProfile &app)
{
    _system->swapApp(core, app);
}

Watts
ExperimentRunner::budget() const
{
    return _cfg.budgetFraction * _peakPower;
}

bool
ExperimentRunner::done() const
{
    for (const AppResult &a : _apps)
        if (!a.completed)
            return false;
    return true;
}

void
ExperimentRunner::buildInputs(const WindowStats &w, PolicyInputs &in)
{
    const std::size_t n = w.cores.size();
    const double f_max = _simCfg.coreLadder.max();

    in.coreRatios = _simCfg.coreLadder.ratios();
    in.memRatios = _simCfg.memLadder.ratios();
    in.background = _simCfg.backgroundPower;
    in.budget = budget();

    in.cores.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const CoreWindowStats &cs = w.cores[i];
        CoreModel &cm = in.cores[i];

        // Eq. 9: z̄ = (busy time per blocking event), scaled from the
        // profiling frequency to the maximum frequency.
        const std::uint64_t blocking =
            std::max<std::uint64_t>(cs.counters.stalls, 1);
        if (cs.counters.misses > 0 && cs.counters.busyTime > 0.0) {
            const Seconds z_prof = cs.counters.busyTime /
                static_cast<double>(blocking);
            cm.zbar = z_prof * (cs.frequency / f_max);
            cm.ipa = static_cast<double>(cs.counters.instructions) /
                static_cast<double>(blocking);
            _lastZbar[i] = cm.zbar;
            _lastIpa[i] = cm.ipa;
        } else {
            // Miss-free window: reuse the last good estimate.
            cm.zbar = _lastZbar[i];
            cm.ipa = _lastIpa[i];
        }
        cm.cache = _simCfg.l2Time;
        cm.pStatic = _simCfg.corePower.staticPower;
        cm.measuredPower = cs.totalPower;
        cm.measuredIps =
            static_cast<double>(cs.counters.instructions) / w.duration;

        // Online Eq. 2 fit from (frequency ratio, dynamic power).
        _fitter.observeCore(i, cs.frequency / f_max, cs.dynamicPower);
        const FittedModel fm = _fitter.core(i);
        cm.pi = fm.scale;
        cm.alpha = fm.exponent;
    }

    // Memory: MemScale counters per controller + Eq. 3 fit.
    const double mem_fmax = _simCfg.memLadder.max();
    const Seconds fallback_sm =
        _simCfg.rowHitRate * _simCfg.bankRowHitTime +
        (1.0 - _simCfg.rowHitRate) * _simCfg.bankRowMissTime;

    Watts mem_dyn = 0.0;
    Watts mem_total = 0.0;
    if (_qSmooth.size() != w.memory.size()) {
        _qSmooth.assign(w.memory.size(), Ewma(0.5));
        _uSmooth.assign(w.memory.size(), Ewma(0.5));
        _rateSmooth.assign(w.memory.size(), Ewma(0.5));
    }
    in.memory.controllers.resize(w.memory.size());
    for (std::size_t k = 0; k < w.memory.size(); ++k) {
        const MemWindowStats &ms = w.memory[k];
        ControllerModel &ctl = in.memory.controllers[k];
        // Light smoothing damps epoch-to-epoch swing in the sampled
        // queue statistics (they depend on the operating point the
        // window happened to run at).
        _qSmooth[k].add(ms.counters.meanQ());
        _uSmooth[k].add(ms.counters.meanU());
        _rateSmooth[k].add(
            static_cast<double>(ms.counters.reads +
                                ms.counters.writebacks) / w.duration);
        ctl.q = _qSmooth[k].value();
        ctl.u = _uSmooth[k].value();
        ctl.sm = ms.counters.meanServiceTime(fallback_sm);
        ctl.sbBar = _simCfg.busBurstCycles / mem_fmax;
        ctl.arrivalRate = _rateSmooth[k].value();
        mem_dyn += ms.dynamicPower;
        mem_total += ms.totalPower;
    }
    _fitter.observeMemory(_simCfg.memLadder.at(memLevel()) / mem_fmax,
                          mem_dyn);
    const FittedModel mm = _fitter.memory();
    in.memory.pm = mm.scale;
    in.memory.beta = mm.exponent;
    in.memory.pStatic = _simCfg.memPower.staticPower;
    in.memory.measuredPower = mem_total;

    in.accessProbs.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        in.accessProbs[i] =
            _system->accessProbabilities(static_cast<int>(i));
}

std::size_t
ExperimentRunner::memLevel() const
{
    return _epochLog.empty() ? _simCfg.memLadder.maxIndex()
                             : _epochLog.back().memFreqIdx;
}

void
ExperimentRunner::applyDecision(const PolicyDecision &dec,
                                bool &core_changed, bool &mem_changed)
{
    // The engine checks the decision's shape before anything below
    // reads it.
    _system->applyLevels(dec.coreFreqIdx, dec.memFreqIdx);
    if (_epochLog.empty()) {
        const std::size_t max = _simCfg.coreLadder.maxIndex();
        core_changed = std::any_of(
            dec.coreFreqIdx.begin(), dec.coreFreqIdx.end(),
            [max](std::size_t idx) { return idx != max; });
    } else {
        core_changed = dec.coreFreqIdx != _epochLog.back().coreFreqIdx;
    }
    mem_changed = dec.memFreqIdx != memLevel();
}

void
ExperimentRunner::recordCompletion(std::size_t core, Seconds epoch_start,
                                   double before, double after)
{
    AppResult &a = _apps[core];
    if (a.completed || after < _cfg.targetInstructions)
        return;
    // Interpolate the crossing within the epoch.
    const double gained = after - before;
    const double need = _cfg.targetInstructions - before;
    const double frac =
        (gained > 0.0) ? std::clamp(need / gained, 0.0, 1.0) : 1.0;
    a.completed = true;
    a.completionTime = epoch_start + frac * _simCfg.epochLength;
    a.tpi = a.completionTime / _cfg.targetInstructions;
}

void
ExperimentRunner::applyScenario(Seconds now)
{
    const Scenario &sc = _cfg.scenario;
    if (!sc.budget.empty())
        // Fallback is the *live* fraction: before the schedule's
        // first segment, mid-run budgetFraction() calls stay in
        // effect; from the first segment on, the schedule owns it.
        _cfg.budgetFraction =
            sc.budget.fractionAt(now, _cfg.budgetFraction);

    const std::vector<WorkloadEvent> &events = sc.workload.events();
    while (_nextWorkloadEvent < events.size() &&
           events[_nextWorkloadEvent].time <= now) {
        const WorkloadEvent &ev = events[_nextWorkloadEvent];
        // The AppResult keeps tracking the core's original
        // instruction target: scenarios study the transient power
        // response, not per-job completion.
        _system->swapApp(ev.core, WorkloadSchedule::resolve(ev.app));
        ++_nextWorkloadEvent;
    }

    // Trace replay last: explicit workload events act as operator
    // overrides, trace jobs land on whatever the replayer tracks.
    if (_traceReplayer)
        _traceReplayer->advanceTo(
            now, [this](int core, const AppProfile &app) {
                _system->swapApp(core, app);
            });
}

EpochRecord
ExperimentRunner::step()
{
    const int n = _simCfg.numCores;
    const Seconds epoch_start =
        static_cast<double>(_epoch) * _simCfg.epochLength;

    // Scenario first: the budget the policy sees this epoch and the
    // mix the profiling window measures are those of `epoch_start`.
    applyScenario(epoch_start);

    // 1. Profiling window at incumbent frequencies.
    const WindowStats w1 = _system->runWindow(_simCfg.profileWindow);

    // 2-3. Inputs, decision, actuation.
    buildInputs(w1, _inputs);
    PolicyDecision dec = _policy.decide(_inputs);
    bool core_changed = false;
    bool mem_changed = false;
    applyDecision(dec, core_changed, mem_changed);

    // 4. Execution window at the new operating point.
    const WindowStats w2 = _system->runWindow(_simCfg.execWindow);

    // 5. Extrapolate the execution window across the remainder of
    // the epoch, net of DVFS transition stalls.
    const Seconds overhead =
        (core_changed ? _simCfg.coreTransitionTime : 0.0) +
        (mem_changed ? _simCfg.memTransitionTime : 0.0);
    const Seconds represented =
        std::max(_simCfg.epochLength - _simCfg.profileWindow - overhead,
                 _simCfg.execWindow);
    const double scale = represented / _simCfg.execWindow;

    EpochRecord rec;
    rec.epoch = _epoch;
    rec.startTime = epoch_start;
    rec.budget = budget();
    rec.memFreqIdx = dec.memFreqIdx;
    rec.evaluations = dec.evaluations;
    rec.budgetSaturated = dec.budgetSaturated;
    rec.utilisationClamped = dec.utilisationClamped;
    if (_traceReplayer) {
        const TraceReplayStats &ts = _traceReplayer->stats();
        rec.traceDropped = ts.dropped - _lastDropped;
        rec.tracePending = _traceReplayer->pending();
        _lastDropped = ts.dropped;
    }
    rec.ips.resize(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < rec.ips.size(); ++i) {
        const double w2_instr =
            static_cast<double>(w2.cores[i].counters.instructions);
        _credit[i] = w2_instr * (scale - 1.0);
        // The same double sum the engine's credit makes, so the two
        // counts agree bit for bit.
        const double after = w2.cores[i].retired + _credit[i];
        rec.ips[i] = (after - _retired[i]) / _simCfg.epochLength;
        recordCompletion(i, epoch_start, _retired[i], after);
        _retired[i] = after;
    }
    _system->creditInstructions(_credit);
    // Last reader of the decision: the record keeps its levels.
    rec.coreFreqIdx = std::move(dec.coreFreqIdx);

    // Epoch-average power: window 1 covers the profiling phase,
    // window 2 represents the rest.
    const Seconds t1 = _simCfg.profileWindow;
    const Seconds t2 = _simCfg.epochLength - t1;
    const double wsum = t1 + t2;
    rec.corePower =
        (w1.corePowerTotal() * t1 + w2.corePowerTotal() * t2) / wsum;
    rec.memPower =
        (w1.memPowerTotal() * t1 + w2.memPowerTotal() * t2) / wsum;
    rec.totalPower = (w1.totalPower() * t1 + w2.totalPower() * t2) /
        wsum;

    // The record covers the full epoch unless the run ends inside it:
    // the final epoch is truncated at the last completion so that
    // energy-weighted run averages do not count time past the end.
    rec.duration = _simCfg.epochLength;
    if (done()) {
        const Seconds last = lastCompletion(_apps);
        if (last > epoch_start)
            rec.duration = std::min(last - epoch_start,
                                    _simCfg.epochLength);
    }

    publishTelemetry(rec);

    ++_epoch;
    _epochLog.push_back(rec);
    return rec;
}

void
ExperimentRunner::publishTelemetry(const EpochRecord &rec)
{
    if (_cfg.registry != nullptr) {
        if (_coreFreqGauges.empty()) {
            telemetry::Registry &reg = *_cfg.registry;
            const std::string prefix =
                "/machine/" + std::to_string(_cfg.machineIndex);
            _coreFreqGauges.reserve(rec.coreFreqIdx.size());
            for (std::size_t i = 0; i < rec.coreFreqIdx.size(); ++i)
                _coreFreqGauges.push_back(&reg.gauge(
                    prefix + "/core/" + std::to_string(i) + "/freq"));
            _powerGauge = &reg.gauge(prefix + "/power");
            _epochsCounter = &reg.counter(prefix + "/epochs");
            if (_traceReplayer)
                _pendingGauge = &reg.gauge(prefix + "/trace/pending");
        }
        for (std::size_t i = 0; i < rec.coreFreqIdx.size(); ++i)
            _coreFreqGauges[i]->set(
                _simCfg.coreLadder.at(rec.coreFreqIdx[i]));
        _powerGauge->set(rec.totalPower);
        _epochsCounter->add();
        if (_pendingGauge)
            _pendingGauge->set(static_cast<double>(rec.tracePending));
    }

    if (_cfg.tracer != nullptr) {
        telemetry::TraceTrack &track = _cfg.tracer->track(
            _cfg.machineIndex + 1,
            "machine " + std::to_string(_cfg.machineIndex));
        // All timestamps are virtual seconds: a rerun of the same
        // configuration reproduces the trace byte for byte.
        const double t0 = rec.startTime;
        const double t1 = rec.startTime + rec.duration;
        const double t_solve =
            std::min(t0 + _simCfg.profileWindow, t1);
        track.span("profile", t0, t_solve);
        track.instant("solve", t_solve);
        if (t1 > t_solve)
            track.span("exec", t_solve, t1);
        track.counterEvent("power_w", t0, rec.totalPower);
        track.counterEvent("budget_w", t0, rec.budget);
    }
}

ExperimentResult
ExperimentRunner::run()
{
    while (!done() && _epoch < _cfg.maxEpochs)
        step();

    if (!done())
        warn("ExperimentRunner: maxEpochs (%d) reached before all "
             "applications completed", _cfg.maxEpochs);

    ExperimentResult res;
    res.policy = _policy.name();
    res.peakPower = _peakPower;
    // Under a budget schedule, report the configured base fraction
    // (per-epoch budgets live in the records); without one, report
    // the live value so mid-run budgetFraction() calls stay visible.
    const double frac = _cfg.scenario.budget.empty()
                            ? _cfg.budgetFraction
                            : _baseBudgetFraction;
    res.budget = frac * _peakPower;
    res.budgetFraction = frac;
    res.epochs = _epochLog;
    res.apps = _apps;
    if (_traceReplayer) {
        res.trace = _traceReplayer->stats();
        res.traceDriven = true;
    }
    return res;
}

ExperimentResult
runWorkload(const std::string &workload,
            const std::string &policy_name, const ExperimentConfig &cfg,
            const SimConfig &sim_cfg)
{
    auto policy = makePolicy(policy_name, cfg.solver, cfg.registry);
    ExperimentRunner runner(
        sim_cfg, workloads::mix(workload, sim_cfg.numCores), *policy,
        cfg);
    ExperimentResult res = runner.run();
    res.workload = workload;
    return res;
}

} // namespace fastcap
