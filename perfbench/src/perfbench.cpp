/**
 * @file
 * perfbench — the repository benchmark program. One process runs one
 * workload for a fixed host-time budget, checks every epoch it
 * produces, and prints its metrics as the last line of standard output
 * (one JSON object):
 *
 *   perfbench --workload capped1024 --seed 7 --seconds 10 [--trace 1]
 *             [--spans PATH]
 *
 * Every layer is driven from outside, through its public entry points
 * only: the ExperimentRunner constructor, step() and
 * system().eventsProcessed(); makePolicy and CappingPolicy::decide
 * (timed through a forwarding policy handed to the runner);
 * measuredPeakPower; the Cluster constructor, step() and run(); and
 * SweepRunner::run. Host time comes from the benchmark's own spans
 * (spans.hpp); the library's telemetry registry is never read. The
 * end-to-end times are in reference seconds (host_probe.hpp), which
 * cancel the slowdowns co-tenants inflict on a shared host.
 *
 * A run repeats *rounds* of fixed work — one experiment, one pass over
 * the governor's input stream, one rack of fixed length, one sweep —
 * until the time budget is spent, with at least two rounds. Every
 * round of a run must reproduce the first round's digest of simulated
 * records; a mismatch fails the whole run. With `--trace 1` untraced
 * and traced rounds take turns, and the per-layer metrics (plus the
 * tracing overhead between the two kinds of round) are printed instead
 * of the end-to-end ones.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/inputs.hpp"
#include "core/policy.hpp"
#include "harness/experiment.hpp"
#include "harness/peak_power.hpp"
#include "harness/sweep.hpp"
#include "policies/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/spec_table.hpp"

#include "host_probe.hpp"
#include "spans.hpp"

using namespace fastcap;
using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans; //!< traced runs write their spans here
};

/**
 * Independent streams derived from the one `--seed`: the simulation
 * seed, the job-trace seed, the governor's input stream and the sweep
 * base seed. The trace seed is kept small because it travels through
 * a generator spec string.
 */
struct Seeds
{
    explicit Seeds(std::uint64_t s)
        : sim(splitmix64(s, 0)), trace(splitmix64(s, 1) % 1000000 + 1),
          governor(splitmix64(s, 2)), sweep(splitmix64(s, 3))
    {}
    std::uint64_t sim;
    std::uint64_t trace;
    std::uint64_t governor;
    std::uint64_t sweep;
};

/** FNV-1a over the bit patterns of simulated records. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xff;
            _h *= 0x100000001b3ULL;
        }
    }
    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

/** One timed unit (an epoch; a sweep) and the probe beside it. */
struct Timed
{
    double host;  //!< host seconds
    double probe; //!< the probe loop's host seconds right after
};

/** Host seconds since `t0`, then the probe, as a "probe" span. */
Timed
timed(SpanLog &log, std::uint32_t parent, Clock::time_point t0)
{
    const double host = secondsSince(t0);
    ScopedSpan span(log, "probe", parent);
    return {host, probe()};
}

/** What one measurement pass (untraced or traced) accumulates. */
struct Tally
{
    std::uint64_t attempted = 0; //!< epochs (decisions on governor1024)
    std::uint64_t failed = 0;    //!< epochs that failed a check
    bool digestMismatch = false;
    std::vector<std::uint64_t> digests; //!< one per round
    std::vector<double> roundRates;     //!< epochs per host second
    /** Every timed unit, per round. */
    std::vector<std::vector<Timed>> units;
    double epochsPerRound = 0.0;
    /** Peak power + init per set-up, in reference seconds. */
    std::vector<double> setupS;
    double maxPowerOverBudget = 0.0;
    // Per-layer counts.
    std::uint64_t decisions = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t events = 0;     //!< DES events inside measured epochs
    std::uint64_t simEpochs = 0;  //!< ExperimentRunner::step() calls
    double stepSeconds = 0.0;     //!< host time inside measured epochs
    double conservationErr = 0.0; //!< max |granted - usable| / usable
    std::size_t dispatched = 0;
    std::size_t completed = 0;
    std::size_t dropped = 0;
    std::size_t lost = 0;
    double sweepSpeedup = 0.0;

    /** Close a round of `epochs` epochs timed as `timed`. */
    void
    addRound(std::uint64_t epochs, std::vector<Timed> timed)
    {
        double sum = 0.0;
        for (const Timed &u : timed)
            sum += u.host;
        stepSeconds += sum;
        epochsPerRound = static_cast<double>(epochs);
        roundRates.push_back(epochsPerRound / sum);
        units.push_back(std::move(timed));
    }

    /**
     * Epochs per reference second (host_probe.hpp), every timed unit
     * at its median over the rounds. Rounds repeat identical work unit
     * for unit, so the median also drops the rounds that a burst of
     * host load hit harder than it hit the probe.
     */
    double
    rate() const
    {
        double sum = 0.0;
        for (std::size_t u = 0; u < units.front().size(); ++u) {
            std::vector<double> across;
            for (const std::vector<Timed> &r : units)
                if (u < r.size())
                    across.push_back(referenceSeconds(r[u].host, r[u].probe));
            sum += median(across);
        }
        return epochsPerRound / sum;
    }
};

bool
finiteNonNegative(double v)
{
    return std::isfinite(v) && v >= 0.0;
}

/**
 * Forwards every call to a policy and times decide() as a span under
 * the caller's current step, counting decisions and inner-solve
 * evaluations. The runner sees an ordinary CappingPolicy.
 */
class TimedPolicy : public CappingPolicy
{
  public:
    TimedPolicy(std::unique_ptr<CappingPolicy> inner, SpanLog &log)
        : _inner(std::move(inner)), _log(log)
    {}

    std::string name() const override { return _inner->name(); }
    bool usesMemoryDvfs() const override
    {
        return _inner->usesMemoryDvfs();
    }
    void reset() override { _inner->reset(); }

    PolicyDecision
    decide(const PolicyInputs &inputs) override
    {
        ScopedSpan span(_log, "decide", _parent);
        PolicyDecision dec = _inner->decide(inputs);
        ++_decisions;
        _evaluations +=
            static_cast<std::uint64_t>(std::max(dec.evaluations, 0));
        return dec;
    }

    /** Parent of the next decide() span. */
    void parent(std::uint32_t id) { _parent = id; }
    std::uint64_t decisions() const { return _decisions; }
    std::uint64_t evaluations() const { return _evaluations; }

  private:
    std::unique_ptr<CappingPolicy> _inner;
    SpanLog &_log;
    std::uint32_t _parent = 0;
    std::uint64_t _decisions = 0;
    std::uint64_t _evaluations = 0;
};

/**
 * Time one set-up as a "setup" span with "peak_power" and "init"
 * children. Workloads without a simulator pass nullptr as `peak`.
 */
template <class Peak, class Init>
void
timedSetup(SpanLog &log, Tally &t, Peak &&peak, Init &&init)
{
    // A set-up is long and rare, so probe both sides of it.
    const double before = probe();
    const auto t0 = Clock::now();
    {
        ScopedSpan setup(log, "setup");
        if constexpr (!std::is_same_v<std::decay_t<Peak>,
                                      std::nullptr_t>) {
            ScopedSpan s(log, "peak_power", setup.id());
            peak();
        }
        ScopedSpan s(log, "init", setup.id());
        init();
    }
    const Timed u = timed(log, 0, t0);
    t.setupS.push_back(referenceSeconds(u.host, 0.5 * (before + u.probe)));
}

/** Range and finiteness checks on one machine epoch. */
bool
validEpoch(const EpochRecord &r, const SimConfig &sim)
{
    if (!finiteNonNegative(r.totalPower) ||
        !finiteNonNegative(r.corePower) ||
        !finiteNonNegative(r.memPower) || !(r.budget > 0.0) ||
        !std::isfinite(r.budget) || !(r.duration > 0.0))
        return false;
    if (r.memFreqIdx >= sim.memLadder.size())
        return false;
    if (r.coreFreqIdx.size() != static_cast<std::size_t>(sim.numCores) ||
        r.ips.size() != r.coreFreqIdx.size())
        return false;
    for (std::size_t idx : r.coreFreqIdx)
        if (idx >= sim.coreLadder.size())
            return false;
    for (double ips : r.ips)
        if (!finiteNonNegative(ips))
            return false;
    return true;
}

/** Simulated content of an epoch (not the solver's cost counters). */
void
hashEpoch(Digest &d, const EpochRecord &r)
{
    d.add(r.totalPower);
    d.add(r.corePower);
    d.add(r.memPower);
    d.add(r.budget);
    d.add(r.duration);
    d.add(static_cast<std::uint64_t>(r.memFreqIdx));
    d.add(static_cast<std::uint64_t>(r.budgetSaturated));
    for (std::size_t idx : r.coreFreqIdx)
        d.add(static_cast<std::uint64_t>(idx));
    for (double ips : r.ips)
        d.add(ips);
}

/** One workload: a set-up and a round of fixed work, repeatable. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the next round's state from scratch, timing it. */
    virtual void setup(SpanLog &log, Tally &t) = 0;
    /** Run one round of fixed work; returns its digest. */
    virtual std::uint64_t round(SpanLog &log, Tally &t) = 0;
    /** Set-ups per round, for a steady median; cheap ones repeat more. */
    virtual int setupsPerRound() const { return 2; }
    /** Extra work of the traced pass only. */
    virtual void tracedExtras(SpanLog &, Tally &) {}
};

/**
 * capped1024: one FastCap experiment, MIX1 on 1024 cores, auto-sharded
 * engine (16 shards of 64 cores) on one shard thread, budget stepping
 * 0.9 -> 0.6 of measured peak at t = 10 ms, run until every app
 * retires 20M instructions. The DES does nearly all the host work.
 */
class Capped1024 : public Workload
{
  public:
    explicit Capped1024(const Seeds &seeds)
    {
        _sim = SimConfig::defaultConfig(1024);
        _sim.seed = seeds.sim;
        _cfg.targetInstructions = 20e6;
        _cfg.scenario =
            Scenario::parse("name=step|budget=step@0:0.9;step@0.01:0.6");
        _cfg.shards = 0;
        _cfg.shardThreads = 1;
    }

    void
    setup(SpanLog &log, Tally &t) override
    {
        _runner.reset();
        _policy.reset();
        clearPeakPowerCache();
        Watts peak = 0.0;
        timedSetup(
            log, t,
            [&] {
                peak = measuredPeakPower(
                    _sim, EngineConfig{_cfg.shards, _cfg.shardThreads});
            },
            [&] {
                _policy = std::make_unique<TimedPolicy>(
                    makePolicy("FastCap"), log);
                ExperimentConfig cfg = _cfg;
                cfg.peakPowerOverride = peak;
                _runner = std::make_unique<ExperimentRunner>(
                    _sim, workloads::mix("MIX1", _sim.numCores),
                    *_policy, cfg);
            });
    }

    std::uint64_t
    round(SpanLog &log, Tally &t) override
    {
        Digest d;
        std::vector<Timed> times;
        while (!_runner->done() && times.size() < kMaxEpochs) {
            ScopedSpan epoch(log, "epoch");
            const std::uint64_t ev0 =
                _runner->system().eventsProcessed();
            const auto t0 = Clock::now();
            EpochRecord rec;
            {
                ScopedSpan step(log, "step", epoch.id());
                _policy->parent(step.id());
                rec = _runner->step();
            }
            times.push_back(timed(log, epoch.id(), t0));
            t.events += _runner->system().eventsProcessed() - ev0;
            if (!validEpoch(rec, _sim))
                ++t.failed;
            hashEpoch(d, rec);
            t.maxPowerOverBudget =
                std::max(t.maxPowerOverBudget, rec.totalPower / rec.budget);
        }
        // A run that never retires its targets is a failed epoch too.
        if (!_runner->done())
            ++t.failed;
        const std::uint64_t epochs = times.size();
        t.attempted += epochs;
        t.simEpochs += epochs;
        t.addRound(epochs, std::move(times));
        t.decisions += _policy->decisions();
        t.evaluations += _policy->evaluations();
        return d.value();
    }

  private:
    static constexpr std::uint64_t kMaxEpochs = 200;
    SimConfig _sim;
    ExperimentConfig _cfg;
    std::unique_ptr<TimedPolicy> _policy;
    std::unique_ptr<ExperimentRunner> _runner;
};

/**
 * One distinct heterogeneous input set for the governor: every core's
 * parameters drawn independently around compute-, balanced- and
 * memory-bound archetypes, so no two cores share a solver equivalence
 * class (the all-distinct worst case of the paper's Table I), and a
 * budget drawn from 0.4-0.9 of the all-max model power.
 */
PolicyInputs
governorInputs(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    PolicyInputs in;
    in.cores.resize(n);
    for (CoreModel &c : in.cores) {
        switch (rng.below(4)) {
          case 0: c.zbar = rng.uniform(500e-9, 800e-9); break;
          case 1: c.zbar = rng.uniform(250e-9, 500e-9); break;
          case 2: c.zbar = rng.uniform(80e-9, 200e-9); break;
          default: c.zbar = rng.uniform(15e-9, 40e-9); break;
        }
        c.cache = rng.uniform(5e-9, 10e-9);
        c.pi = rng.uniform(1.2, 3.5);
        c.alpha = rng.uniform(2.3, 3.1);
        c.pStatic = rng.uniform(0.4, 0.6);
        c.ipa = rng.uniform(100.0, 2500.0);
        c.measuredPower = 0.8 * c.pi + c.pStatic;
        c.measuredIps = c.ipa / (c.zbar + 60e-9);
    }

    ControllerModel ctl;
    ctl.q = rng.uniform(1.2, 1.8);
    ctl.u = rng.uniform(1.5, 2.2);
    ctl.sm = 33e-9;
    ctl.sbBar = 1.875e-9;
    in.memory.controllers = {ctl};
    in.memory.pm = 8.0 + 0.25 * static_cast<double>(n);
    in.memory.beta = 1.1;
    in.memory.pStatic = 12.0;
    in.memory.measuredPower = 0.8 * in.memory.pm + in.memory.pStatic;
    in.accessProbs.assign(n, {1.0});

    const int levels = 10;
    for (int i = 0; i < levels; ++i) {
        const double x = static_cast<double>(i) / (levels - 1);
        in.coreRatios.push_back(0.55 + 0.45 * x);
        in.memRatios.push_back(0.2575 + 0.7425 * x);
    }
    in.background = 10.0;

    double max_power = in.staticPower() + in.memory.pm;
    for (const CoreModel &c : in.cores)
        max_power += c.pi;
    in.budget = rng.uniform(0.4, 0.9) * max_power;
    return in;
}

/**
 * governor1024: FastCap decide() alone, no simulator, over a seeded
 * stream of distinct 1024-core inputs. An epoch is one decision.
 *
 * The input stream is the benchmark's, built once before measuring.
 * The program's set-up here is only constructing the policy, which
 * takes tens of nanoseconds, so a set-up is timed as a batch of
 * constructions and reported per construction.
 */
class Governor1024 : public Workload
{
  public:
    explicit Governor1024(const Seeds &seeds)
    {
        _stream.reserve(kStream);
        for (std::size_t i = 0; i < kStream; ++i)
            _stream.push_back(
                governorInputs(splitmix64(seeds.governor, i), kCores));
    }

    void
    setup(SpanLog &log, Tally &t) override
    {
        timedSetup(
            log, t, nullptr,
            [&] {
                for (int i = 0; i < kSetupBatch; ++i)
                    _policy = std::make_unique<TimedPolicy>(
                        makePolicy("FastCap"), log);
            });
        t.setupS.back() /= kSetupBatch;
    }

    int setupsPerRound() const override { return 20; }

    std::uint64_t
    round(SpanLog &log, Tally &t) override
    {
        Digest d;
        std::vector<Timed> times;
        times.reserve(_stream.size());
        for (const PolicyInputs &in : _stream) {
            ScopedSpan epoch(log, "epoch");
            const auto t0 = Clock::now();
            _policy->parent(epoch.id());
            const PolicyDecision dec = _policy->decide(in);
            if (!validDecision(dec, in))
                ++t.failed;
            times.push_back(timed(log, epoch.id(), t0));
            d.add(dec.predictedPower);
            d.add(static_cast<std::uint64_t>(dec.memFreqIdx));
            d.add(static_cast<std::uint64_t>(dec.budgetSaturated));
            for (std::size_t idx : dec.coreFreqIdx)
                d.add(static_cast<std::uint64_t>(idx));
            if (!dec.budgetSaturated)
                t.maxPowerOverBudget = std::max(
                    t.maxPowerOverBudget, dec.predictedPower / in.budget);
        }
        t.attempted += _stream.size();
        t.addRound(_stream.size(), std::move(times));
        t.decisions += _policy->decisions();
        t.evaluations += _policy->evaluations();
        return d.value();
    }

  private:
    /**
     * Ladder indices in range; within budget unless saturated. The D
     * bisection stops at a relative 1e-6 and power moves up to alpha
     * (< 3.1) times as fast as D, hence the 1e-5 slack.
     */
    static bool
    validDecision(const PolicyDecision &dec, const PolicyInputs &in)
    {
        if (!finiteNonNegative(dec.predictedPower) ||
            dec.memFreqIdx >= in.memRatios.size() ||
            dec.coreFreqIdx.size() != in.cores.size())
            return false;
        for (std::size_t idx : dec.coreFreqIdx)
            if (idx >= in.coreRatios.size())
                return false;
        return dec.budgetSaturated ||
            dec.predictedPower <= in.budget * (1.0 + 1e-5);
    }

    static constexpr std::size_t kCores = 1024;
    /** Distinct inputs per round (one round ~ half a second). */
    static constexpr std::size_t kStream = 128;
    static constexpr int kSetupBatch = 1000;
    std::vector<PolicyInputs> _stream;
    std::unique_ptr<TimedPolicy> _policy;
};

/**
 * rack64x1024: 64 machines x 1024 cores under a rack budget of 0.4 of
 * installed peak, fed a light Poisson job trace (~50 busy cores rack
 * wide), machines stepped on one thread. Per-epoch bookkeeping over
 * 65,536 mostly idle cores dominates.
 */
class Rack64x1024 : public Workload
{
  public:
    explicit Rack64x1024(const Seeds &seeds)
    {
        _cfg.machines = 64;
        _cfg.machine = SimConfig::defaultConfig(1024);
        _cfg.workload = "idle";
        _cfg.policy = "FastCap";
        _cfg.rackBudgetFraction = 0.4;
        // 2500 jobs/s x 20 ms mean service ~ 50 cores busy.
        _cfg.trace = "gen:poisson,rate=2500,horizon=1,mean-duration=0.02,"
                     "seed=" +
            std::to_string(seeds.trace);
        // The round steps kEpochs - 1 epochs and lets run() take the
        // last one, which returns the cumulative trace counters.
        _cfg.maxEpochs = 1;
        _cfg.machineThreads = 1;
        _cfg.shards = 0;
        _cfg.shardThreads = 1;
        _cfg.seed = seeds.sim;
    }

    void
    setup(SpanLog &log, Tally &t) override
    {
        _cluster.reset();
        clearPeakPowerCache();
        timedSetup(
            log, t,
            [&] {
                measuredPeakPower(_cfg.machine,
                                  EngineConfig{_cfg.shards,
                                               _cfg.shardThreads});
            },
            [&] { _cluster = std::make_unique<Cluster>(_cfg); });
    }

    std::uint64_t
    round(SpanLog &log, Tally &t) override
    {
        Digest d;
        std::vector<Timed> times;
        for (int e = 0; e < kEpochs; ++e) {
            ScopedSpan epoch(log, "epoch");
            const auto t0 = Clock::now();
            ClusterEpochRecord rec;
            {
                ScopedSpan step(log, "rack_step", epoch.id());
                if (e + 1 < kEpochs) {
                    rec = _cluster->step();
                } else {
                    const ClusterResult res = _cluster->run();
                    rec = res.epochs.back();
                    t.dispatched = res.dispatched;
                    t.completed = res.completed;
                    t.dropped = res.dropped;
                    t.lost = res.lost;
                }
            }
            times.push_back(timed(log, epoch.id(), t0));
            if (!validRackEpoch(rec))
                ++t.failed;
            hashRackEpoch(d, rec);
            t.maxPowerOverBudget = std::max(
                t.maxPowerOverBudget, rec.totalPower / rec.usableBudget);
            t.conservationErr = std::max(
                t.conservationErr,
                std::abs(rec.assignedTotal - rec.usableBudget) /
                    rec.usableBudget);
        }
        t.attempted += kEpochs;
        t.addRound(kEpochs, std::move(times));
        return d.value();
    }

  private:
    /** Finite powers, every machine alive, grants conserve the budget. */
    bool
    validRackEpoch(const ClusterEpochRecord &r) const
    {
        const auto m = static_cast<std::size_t>(_cfg.machines);
        if (!finiteNonNegative(r.totalPower) || !(r.usableBudget > 0.0) ||
            !std::isfinite(r.usableBudget) ||
            r.aliveMachines != _cfg.machines ||
            r.machineBudget.size() != m || r.machinePower.size() != m)
            return false;
        double granted = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            if (!finiteNonNegative(r.machineBudget[i]) ||
                !finiteNonNegative(r.machinePower[i]))
                return false;
            granted += r.machineBudget[i];
        }
        return std::abs(granted - r.usableBudget) <=
            1e-6 * r.usableBudget;
    }

    static void
    hashRackEpoch(Digest &d, const ClusterEpochRecord &r)
    {
        d.add(r.rackBudget);
        d.add(r.usableBudget);
        d.add(r.assignedTotal);
        d.add(r.totalPower);
        d.add(static_cast<std::uint64_t>(r.busyCores));
        d.add(static_cast<std::uint64_t>(r.pendingJobs));
        d.add(static_cast<std::uint64_t>(r.dropped));
        d.add(static_cast<std::uint64_t>(r.lost));
        for (Watts w : r.machineBudget)
            d.add(w);
        for (Watts w : r.machinePower)
            d.add(w);
    }

    static constexpr int kEpochs = 12;
    ClusterConfig _cfg;
    std::unique_ptr<Cluster> _cluster;
};

/**
 * sweep16: the paper's fig. 9 grid — the 16 Table III mixes x
 * {FastCap, CPU-only, Freq-Par, Eql-Pwr, Uncapped} at 16 cores,
 * B = 0.6, paired seeds, 100M instructions — on the sweep pool. An
 * epoch rate is all runs' epochs over the sweep's wall time.
 */
class Sweep16 : public Workload
{
  public:
    explicit Sweep16(const Seeds &seeds)
        : _baseSeed(seeds.sweep), _threads(affinityCpus())
    {}

    void
    setup(SpanLog &log, Tally &t) override
    {
        _runner.reset();
        clearPeakPowerCache();
        const SweepGrid grid = makeGrid();
        timedSetup(
            log, t,
            [&] {
                measuredPeakPower(grid.configs.front().sim,
                                  EngineConfig{grid.shards,
                                               grid.shardThreads});
            },
            [&] {
                _runner =
                    std::make_unique<SweepRunner>(makeGrid(), _threads);
            });
    }

    /** The peak measurement is milliseconds: repeat it. */
    int setupsPerRound() const override { return 10; }

    std::uint64_t
    round(SpanLog &log, Tally &t) override
    {
        // The sweep loads every CPU, so probe them all, before and after.
        const double before = probeParallel(_threads);
        const auto t0 = Clock::now();
        SweepResult res;
        {
            ScopedSpan span(log, "sweep_run");
            res = _runner->run();
        }
        const double wall = secondsSince(t0);
        const double after = probeParallel(_threads);
        t.addRound(check(res, t), {{wall, 0.5 * (before + after)}});
        return _lastDigest;
    }

    /**
     * The serial sweep behind harness.sweep_speedup, against the traced
     * pass's parallel sweeps; its records must match theirs (results
     * are thread-count invariant).
     */
    void
    tracedExtras(SpanLog &log, Tally &t) override
    {
        ScopedSpan span(log, "sweep_serial");
        const std::uint64_t parallel = _lastDigest;
        const auto t0 = Clock::now();
        const SweepResult res = SweepRunner(makeGrid(), 1).run();
        const double serial = secondsSince(t0);
        check(res, t);
        if (_lastDigest != parallel)
            t.digestMismatch = true;
        std::vector<double> walls;
        for (const std::vector<Timed> &round : t.units)
            walls.push_back(round.front().host);
        t.sweepSpeedup = serial / median(walls);
    }

  private:
    SweepGrid
    makeGrid() const
    {
        SweepGrid grid;
        grid.configs = SweepGrid::configsForCores({16});
        grid.workloads = workloads::workloadNames();
        grid.policies = {"FastCap", "CPU-only", "Freq-Par", "Eql-Pwr",
                         "Uncapped"};
        grid.budgetFractions = {0.6};
        grid.targetInstructions = 100e6;
        grid.pairSeedsAcrossPolicies = true;
        grid.baseSeed = _baseSeed;
        grid.shardThreads = 1;
        return grid;
    }

    /** Check and digest every run; returns the epochs simulated. */
    std::uint64_t
    check(const SweepResult &res, Tally &t)
    {
        Digest d;
        std::uint64_t epochs = 0;
        for (const SweepRun &run : res.runs) {
            const SimConfig &sim =
                res.grid.configs[run.point.configIdx].sim;
            const ExperimentResult &r = run.result;
            std::uint64_t bad = 0;
            for (const EpochRecord &e : r.epochs) {
                if (!validEpoch(e, sim))
                    ++bad;
                hashEpoch(d, e);
            }
            // A run that did not complete fails all of its epochs.
            if (!r.allCompleted() || r.epochs.empty())
                bad = std::max<std::uint64_t>(r.epochs.size(), 1);
            t.failed += bad;
            t.attempted += std::max<std::uint64_t>(r.epochs.size(), 1);
            epochs += r.epochs.size();
            if (run.point.policy != "Uncapped" && r.budget > 0.0)
                t.maxPowerOverBudget = std::max(
                    t.maxPowerOverBudget, r.maxEpochPower() / r.budget);
        }
        _lastDigest = d.value();
        return epochs;
    }

    /** The CPUs this process may run on (`nproc`): the sweep workers. */
    static int
    affinityCpus()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) != 0)
            return static_cast<int>(ThreadPool::hardwareWorkers());
        return CPU_COUNT(&set);
    }

    std::uint64_t _baseSeed;
    int _threads;
    std::unique_ptr<SweepRunner> _runner;
    std::uint64_t _lastDigest = 0;
};

/** One kind of round: its span log and what its rounds accumulate. */
struct Pass
{
    explicit Pass(bool traced) : log(traced) {}
    SpanLog log;
    Tally tally;
};

/**
 * Rounds of fixed work until `seconds` of round time are spent, taking
 * turns between the passes so each sees the same host conditions, and
 * at least two rounds per pass, so every run checks its own
 * repeatability. Every round must reproduce the first round's digest.
 */
void
measure(Workload &w, const std::vector<Pass *> &passes, double seconds)
{
    double spent = 0.0;
    std::uint64_t first = 0;
    const std::size_t n = passes.size();
    for (std::uint32_t r = 0; r < 2 * n || spent < seconds; ++r) {
        Pass &p = *passes[r % n];
        p.log.round(r);
        for (int k = 0; k < w.setupsPerRound(); ++k)
            w.setup(p.log, p.tally);
        const auto t0 = Clock::now();
        const std::uint64_t digest = w.round(p.log, p.tally);
        spent += secondsSince(t0);
        if (r == 0)
            first = digest;
        if (digest != first)
            p.tally.digestMismatch = true;
        p.tally.digests.push_back(digest);
    }
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric
{
    const char *name;
    const char *unit;
    double value;
    const char *layer; //!< per-layer metrics only
    const char *moves; //!< the end-to-end metric it should move
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
endToEnd(const Tally &t)
{
    return {
        {"epochs_per_s", "1/s", t.rate(), "", ""},
        {"setup_s", "s", median(t.setupS), "", ""},
        {"peak_rss_mb", "MB", peakRssMb(), "", ""},
        {"max_power_over_budget", "ratio", t.maxPowerOverBudget, "", ""},
    };
}

/**
 * Per-layer metrics from the traced pass. A layer the workload does
 * not drive reads 0 (e.g. sim.* on governor1024: no DES events).
 */
std::vector<Metric>
perLayer(const Tally &base, const Tally &t, const SpanLog &log)
{
    const std::vector<double> decide = log.durations("decide");
    return {
        {"core.decide_us_p50", "us", 1e6 * percentile(decide, 0.50),
         "core", "epochs_per_s"},
        {"core.decide_us_p99", "us", 1e6 * percentile(decide, 0.99),
         "core", "epochs_per_s"},
        {"core.decide_share", "ratio",
         ratio(log.total("decide"), t.stepSeconds),
         "core", "ceiling of any solver gain"},
        {"core.evaluations_per_decide", "count",
         ratio(static_cast<double>(t.evaluations),
               static_cast<double>(t.decisions)),
         "core", "epochs_per_s"},
        {"sim.events_per_epoch", "count",
         ratio(static_cast<double>(t.events),
               static_cast<double>(t.simEpochs)),
         "sim", "epochs_per_s"},
        {"sim.mevents_per_s", "Mevent/s",
         1e-6 * ratio(static_cast<double>(t.events), t.stepSeconds),
         "sim", "epochs_per_s"},
        {"harness.peak_power_s", "s", median(log.durations("peak_power")),
         "harness", "setup_s"},
        {"harness.init_s", "s", median(log.durations("init")), "harness",
         "setup_s"},
        {"harness.step_ms_p50", "ms",
         1e3 * percentile(log.durations("step"), 0.50), "harness+sim",
         "epochs_per_s"},
        {"harness.sweep_speedup", "ratio", t.sweepSpeedup,
         "util/harness", "epochs_per_s"},
        {"cluster.step_ms_p50", "ms",
         1e3 * percentile(log.durations("rack_step"), 0.50), "cluster",
         "epochs_per_s"},
        {"cluster.conservation_err", "ratio", t.conservationErr,
         "cluster", "correctness"},
        {"trace.dispatched", "count", static_cast<double>(t.dispatched),
         "trace", "epochs_per_s"},
        {"trace.completed", "count", static_cast<double>(t.completed),
         "trace", "epochs_per_s"},
        {"trace.dropped", "count", static_cast<double>(t.dropped), "trace",
         "epochs_per_s"},
        {"trace.lost", "count", static_cast<double>(t.lost), "trace",
         "epochs_per_s"},
        {"bench.trace_overhead", "ratio",
         ratio(base.rate(), t.rate()) - 1.0,
         "benchmark", "none (tracing cost)"},
    };
}

void
printPerLayerTable(const std::vector<Metric> &metrics)
{
    std::printf("%-28s %14s %-6s %-13s %s\n", "metric", "value", "unit",
                "layer", "moves");
    for (const Metric &m : metrics)
        std::printf("%-28s %14.6g %-6s %-13s %s\n", m.name, m.value,
                    m.unit, m.layer, m.moves);
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            std::uint64_t digest, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"digest\": \"%016" PRIx64
                "\", \"metrics\": {",
                correct ? "true" : "false", attempted, failed, digest);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name,
                    std::isfinite(metrics[i].value) ? metrics[i].value
                                                    : 0.0,
                    metrics[i].unit);
    std::printf("}}\n");
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val, &end);
            if (!std::isfinite(opt.seconds) || opt.seconds <= 0.0)
                return false;
        } else if (key == "--trace") {
            opt.trace = std::strcmp(val, "1") == 0;
            if (!opt.trace && std::strcmp(val, "0") != 0)
                return false;
        } else if (key == "--spans") {
            opt.spans = val;
        } else {
            return false;
        }
        if (end != nullptr && (end == val || *end != '\0'))
            return false;
    }
    return argc % 2 == 1 && !opt.workload.empty();
}

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    const Seeds seeds(opt.seed);
    if (opt.workload == "capped1024")
        return std::make_unique<Capped1024>(seeds);
    if (opt.workload == "governor1024")
        return std::make_unique<Governor1024>(seeds);
    if (opt.workload == "rack64x1024")
        return std::make_unique<Rack64x1024>(seeds);
    if (opt.workload == "sweep16")
        return std::make_unique<Sweep16>(seeds);
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "--seconds S [--trace 0|1] [--spans PATH]\n");
        return 2;
    }
    try {
        std::unique_ptr<Workload> w = makeWorkload(opt);
        if (!w) {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                         opt.workload.c_str());
            return 2;
        }

        // A traced run alternates untraced and traced rounds, so the
        // tracing overhead compares rounds run under the same host load.
        Pass untraced(false);
        Pass traced_pass(true);
        if (opt.trace) {
            measure(*w, {&untraced, &traced_pass}, opt.seconds);
            w->tracedExtras(traced_pass.log, traced_pass.tally);
        } else {
            measure(*w, {&untraced}, opt.seconds);
        }
        const Tally &base = untraced.tally;
        const Tally &traced = traced_pass.tally;
        const SpanLog &log = traced_pass.log;

        const bool mismatch = base.digestMismatch || traced.digestMismatch;
        const std::uint64_t attempted = base.attempted + traced.attempted;
        // A digest that differs between rounds fails the whole run.
        const std::uint64_t failed =
            mismatch ? attempted : base.failed + traced.failed;

        const auto rates = std::minmax_element(base.roundRates.begin(),
                                               base.roundRates.end());
        std::printf("workload %s | seed %" PRIu64 " | rounds %zu%s | "
                    "epochs/s per round %.4g..%.4g median %.4g | digest "
                    "%016" PRIx64 "%s\n",
                    opt.workload.c_str(), opt.seed, base.digests.size(),
                    opt.trace ? " untraced + traced" : "", *rates.first,
                    *rates.second, median(base.roundRates),
                    base.digests.front(),
                    mismatch ? " (MISMATCH between rounds)" : "");

        std::vector<Metric> metrics;
        if (opt.trace) {
            metrics = perLayer(base, traced, log);
            printPerLayerTable(metrics);
            if (!opt.spans.empty() && !log.writeJson(opt.spans)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             opt.spans.c_str());
                return 1;
            }
        } else {
            metrics = endToEnd(base);
        }
        printResult(failed == 0, attempted, failed, base.digests.front(),
                    metrics);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
