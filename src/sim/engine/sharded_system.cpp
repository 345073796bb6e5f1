#include "sim/engine/sharded_system.hpp"

#include <algorithm>
#include <utility>

#include "sim/core.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace fastcap {

namespace {

/**
 * Deterministic per-lane RNG streams: derived from (seed, core index)
 * only, so a core's random trace is independent of the shard layout
 * and the thread count. Stream 2i drives the core, 2i+1 its lane
 * controller.
 */
Rng
laneRng(std::uint64_t seed, int core, int stream)
{
    const auto n = 2 * static_cast<std::uint64_t>(core) +
        static_cast<std::uint64_t>(stream);
    return Rng(splitmix64(seed, n));
}

} // namespace

ShardedSystem::ShardedSystem(SimConfig cfg,
                             std::vector<AppProfile> apps, int shards,
                             int threads,
                             telemetry::Registry *registry,
                             const std::string &metric_prefix)
    : _cfg(std::move(cfg)),
      _corePower(_cfg.corePower, _cfg.coreVoltage,
                 _cfg.coreLadder.max()),
      _busFreq(_cfg.memLadder.max()), _threads(threads)
{
    _cfg.validate();
    const int n = _cfg.numCores;
    if (static_cast<int>(apps.size()) != n)
        fatal("ShardedSystem: %zu applications for %d cores",
              apps.size(), n);
    if (_cfg.interleave == InterleaveMode::Skewed)
        warn("ShardedSystem: skewed interleaving is not representable "
             "with per-core memory lanes; modeling the modulo "
             "core->controller mapping instead");

    const int k_ctrl = _cfg.numControllers;
    // Each lane carries a fair share of its *own* logical
    // controller's bus: controller c serves laneCount(c) lanes
    // (i % k_ctrl == c), so one lane's transfer takes laneCount(c)
    // times the logical per-line occupancy. Scaling by the
    // controller's own lane count — not the N/K average — bounds the
    // merged bus occupancy by the window even when n is not a
    // multiple of k_ctrl. Banks split the same way (floored at one;
    // they model latency, not the bandwidth bottleneck).
    _laneCfgs.reserve(static_cast<std::size_t>(k_ctrl));
    _laneScale.resize(static_cast<std::size_t>(n));
    for (int c = 0; c < k_ctrl; ++c) {
        // A controller can be lane-less when numControllers exceeds
        // numCores (it then just idles, as on the monolithic engine);
        // floor at 1 so its config stays well-formed.
        const int lanes = std::max(
            1, n / k_ctrl + (c < n % k_ctrl ? 1 : 0));
        SimConfig lane_cfg = _cfg;
        lane_cfg.busBurstCycles =
            _cfg.busBurstCycles * static_cast<double>(lanes);
        lane_cfg.banksPerController =
            std::max(1, _cfg.banksPerController / lanes);
        _laneCfgs.push_back(std::move(lane_cfg));
        // Every lane starts on the fair share of its controller's
        // bus; redivideBandwidth() retunes these scales at window
        // barriers.
        for (int i = c; i < n; i += k_ctrl)
            _laneScale[static_cast<std::size_t>(i)] =
                static_cast<double>(lanes);
    }
    _coreEnergy.resize(static_cast<std::size_t>(n));

    _numShards = std::clamp(shards, 1, n);
    _lanes = std::vector<std::optional<Lane>>(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        _lanes[static_cast<std::size_t>(i)].emplace(
            i, _laneCfgs[static_cast<std::size_t>(i % k_ctrl)], _cfg.seed,
            std::move(apps[static_cast<std::size_t>(i)]));

    // Logical-controller power models and access rows, mirroring the
    // monolithic system's per-controller share split.
    const double share = 1.0 / static_cast<double>(k_ctrl);
    for (int c = 0; c < k_ctrl; ++c)
        _memPower.emplace_back(_cfg.memPower, share, _cfg.mcVoltage,
                               _cfg.memLadder.max());
    _accessRows.resize(static_cast<std::size_t>(k_ctrl));
    for (int c = 0; c < k_ctrl; ++c) {
        std::vector<double> &row = _accessRows[static_cast<std::size_t>(c)];
        row.assign(static_cast<std::size_t>(k_ctrl), 0.0);
        row[static_cast<std::size_t>(c)] = 1.0;
    }

    if (shardWorkers() > 1)
        _pool = std::make_unique<ThreadPool>(
            static_cast<std::size_t>(shardWorkers()), registry);

    if (registry != nullptr) {
        const std::string prefix = metric_prefix + "/engine/";
        _windowsMetric = &registry->counter(prefix + "windows");
        _laneMergesMetric = &registry->counter(prefix + "lane_merges");
        for (int s = 0; s < _numShards; ++s)
            _shardEventsMetric.push_back(&registry->gauge(
                prefix + "shard/" + std::to_string(s) + "/events"));
    }
}

ShardedSystem::~ShardedSystem() = default;

ShardedSystem::Lane::Lane(int core_id, const SimConfig &lane_cfg,
                          std::uint64_t seed, AppProfile profile)
    : app(std::move(profile)),
      controller(core_id, lane_cfg, queue, laneRng(seed, core_id, 1)),
      core(core_id, lane_cfg, queue, laneRng(seed, core_id, 0))
{
    core.runApp(&app);
    // Lanes share nothing, so a lane's core and controller are each
    // other's sinks directly.
    core.requestSink(&controller);
    controller.deliverySink(&core);
    // ...and the core is the controller's only client, so a miss
    // that meets an empty controller resolves inside its think-done.
    core.inlineController(&controller);
    core.start();
}

int
ShardedSystem::shardWorkers() const
{
    const int want = _threads == 0
        ? static_cast<int>(ThreadPool::hardwareWorkers())
        : _threads;
    return std::clamp(want, 1, numShards());
}

std::pair<int, int>
ShardedSystem::shardRange(int s) const
{
    if (s < 0 || s >= _numShards)
        panic("shardRange: shard %d out of range", s);
    const int base = _cfg.numCores / _numShards;
    const int rem = _cfg.numCores % _numShards;
    return {s * base + std::min(s, rem), base + (s < rem ? 1 : 0)};
}

ShardedSystem::Lane &
ShardedSystem::lane(int core)
{
    return *_lanes.at(static_cast<std::size_t>(core));
}

const ShardedSystem::Lane &
ShardedSystem::lane(int core) const
{
    return *_lanes.at(static_cast<std::size_t>(core));
}

const AppProfile &
ShardedSystem::appOf(int core) const
{
    return lane(core).app;
}

void
ShardedSystem::swapApp(int core, AppProfile app)
{
    // The core holds a stable pointer into its lane's app slot;
    // assigning the slot is the whole rebind (the next scheduled
    // think reads the new phases), exactly as on the monolithic
    // engine. Safe across shards because it happens between windows,
    // when no shard job is running.
    lane(core).app = std::move(app);
}

void
ShardedSystem::applyLevels(const std::vector<std::size_t> &core,
                           std::size_t mem)
{
    checkLevels(_cfg, core, mem);
    _busFreq = _cfg.memLadder.at(mem);
    for (std::size_t i = 0; i < _lanes.size(); ++i) {
        Lane &ln = *_lanes[i];
        ln.core.frequency(_cfg.coreLadder.at(core[i]));
        ln.controller.busFrequency(_busFreq);
    }
}

void
ShardedSystem::runShardWindow(int s, Seconds t_end, WindowStats &stats)
{
    const Seconds duration = stats.duration;
    const auto [first, count] = shardRange(s);
    for (int i = first; i < first + count; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        Lane &ln = *_lanes[idx];
        ln.core.resetCounters();
        ln.controller.resetCounters();
        ln.queue.runUntil(t_end);
        ln.core.flushStall(t_end);
        // Fold bank/bus busy time into the counters while still
        // inside the shard job; the merge only reads them.
        ln.controller.finalizeWindow();
        // The lane's own stats, while it is still hot in cache. Each
        // job writes only its own lanes' slots.
        CoreWindowStats &cs = stats.cores[idx];
        cs.counters = ln.core.counters();
        cs.frequency = ln.core.frequency();
        cs.retired = ln.core.instructionsRetired();
        cs.activity = ln.core.currentActivity();
        const Joules e = _corePower.windowEnergy(
            cs.frequency, cs.activity, cs.counters.busyTime,
            cs.counters.stallTime, duration);
        cs.totalPower = e / duration;
        cs.dynamicPower = cs.totalPower - _corePower.staticPower();
        _coreEnergy[idx] = e;
    }
}

WindowStats
ShardedSystem::runWindow(Seconds duration)
{
    if (duration <= 0.0)
        fatal("runWindow: non-positive duration");

    const Seconds t_end = _now + duration;
    const int n = _cfg.numCores;
    WindowStats stats;
    stats.duration = duration;
    stats.backgroundPower = _cfg.backgroundPower;
    stats.cores.resize(static_cast<std::size_t>(n));

    // Fan the shards out; pool.wait() is the window barrier. Shard
    // jobs touch only their own lanes and stats slots, so any
    // interleaving yields the same per-lane results.
    if (_pool) {
        for (int s = 0; s < _numShards; ++s)
            _pool->submit([this, s, t_end, &stats] {
                runShardWindow(s, t_end, stats);
            });
        _pool->wait();
    } else {
        for (int s = 0; s < _numShards; ++s)
            runShardWindow(s, t_end, stats);
    }
    _now = t_end;

    // Deterministic merge, all on the calling thread: core energies
    // summed in core-index order, then logical-controller aggregation
    // in (controller, ascending core) order.
    double energy = 0.0;
    for (const double e : _coreEnergy)
        energy += e;

    const int k_ctrl = _cfg.numControllers;
    stats.memory.reserve(static_cast<std::size_t>(k_ctrl));
    for (int c = 0; c < k_ctrl; ++c) {
        ControllerCounters agg;
        for (int i = c; i < n; i += k_ctrl) {
            const ControllerCounters &lc =
                lane(i).controller.counters();
            agg.reads += lc.reads;
            agg.writebacks += lc.writebacks;
            agg.qSum += lc.qSum;
            agg.qSamples += lc.qSamples;
            agg.uSum += lc.uSum;
            agg.uSamples += lc.uSamples;
            agg.serviceSum += lc.serviceSum;
            agg.serviceCount += lc.serviceCount;
            agg.responseSum += lc.responseSum;
            agg.responseCount += lc.responseCount;
            agg.bankBusyTime += lc.bankBusyTime;
            // Lane bus occupancy is in lane-bus seconds (the scaled
            // share); convert to logical-bus seconds so downstream
            // utilisation math matches the monolithic engine's. The
            // scale in effect *during* the window applies — the
            // re-division below only shapes the next one.
            agg.busBusyTime += lc.busBusyTime /
                _laneScale[static_cast<std::size_t>(i)];
        }

        MemWindowStats ms;
        ms.counters = agg;
        ms.busFrequency = _busFreq;
        ms.transferTime = _cfg.busBurstCycles / _busFreq;
        ms.busUtilisation = agg.busBusyTime / duration;
        const std::uint64_t accesses = agg.reads + agg.writebacks;
        const Joules e = _memPower[static_cast<std::size_t>(c)]
                             .windowEnergy(_busFreq, accesses,
                                           duration);
        ms.totalPower = e / duration;
        ms.dynamicPower = ms.totalPower -
            _memPower[static_cast<std::size_t>(c)].staticPower();
        energy += e;
        stats.memory.push_back(ms);
    }

    energy += _cfg.backgroundPower * duration;
    stats.totalEnergy = energy;

    // Observe-only: window count plus per-shard cumulative event
    // counts (summed over the shard's lanes), published on the merge
    // thread after the barrier so each gauge has one writer per
    // window.
    if (_windowsMetric != nullptr) {
        _windowsMetric->add();
        for (int s = 0; s < _numShards; ++s) {
            const auto [first, count] = shardRange(s);
            std::uint64_t events = 0;
            for (int i = first; i < first + count; ++i)
                events += lane(i).queue.processed();
            _shardEventsMetric[static_cast<std::size_t>(s)]->set(
                static_cast<double>(events));
        }
    }

    // Demand-driven bandwidth re-division at the barrier: the merged
    // window's per-lane access counts decide next window's shares.
    redivideBandwidth();
    return stats;
}

void
ShardedSystem::redivideBandwidth()
{
    if (_laneMergesMetric != nullptr)
        _laneMergesMetric->add();
    const int n = _cfg.numCores;
    const int k_ctrl = _cfg.numControllers;
    const auto demand = [this](int i) {
        const ControllerCounters &lc = lane(i).controller.counters();
        return static_cast<double>(lc.reads + lc.writebacks);
    };
    for (int c = 0; c < k_ctrl; ++c) {
        double total = 0.0;
        std::size_t count = 0;
        for (int i = c; i < n; i += k_ctrl, ++count)
            total += demand(i);
        if (count < 2)
            continue; // a single lane always owns the whole bus
        const double lanes = static_cast<double>(count);
        // Idle controller: fall back to the fair share (also the
        // weight every lane starts from, so an idle first window
        // changes nothing).
        // Floor at a tenth of the fair share: a cold lane keeps
        // enough bandwidth to ramp back up, and weights stay
        // positive. Renormalize so the shares sum to 1 — the merged
        // logical-bus occupancy stays bounded by the window.
        double wsum = 0.0;
        _laneWeight.resize(count);
        for (std::size_t j = 0; j < count; ++j) {
            const int i = c + static_cast<int>(j) * k_ctrl;
            _laneWeight[j] = total > 0.0
                ? std::max(demand(i) / total, 0.1 / lanes)
                : 1.0 / lanes;
            wsum += _laneWeight[j];
        }
        for (std::size_t j = 0; j < count; ++j) {
            const int i = c + static_cast<int>(j) * k_ctrl;
            const double share = _laneWeight[j] / wsum;
            lane(i).controller.busBurstCycles(
                _cfg.busBurstCycles / share);
            _laneScale[static_cast<std::size_t>(i)] = 1.0 / share;
        }
    }
}

void
ShardedSystem::creditInstructions(const std::vector<double> &credit)
{
    checkCredits(_cfg, credit);
    for (std::size_t i = 0; i < _lanes.size(); ++i)
        _lanes[i]->core.creditInstructions(credit[i]);
}

Watts
ShardedSystem::nameplatePeakPower() const
{
    // Same arithmetic as the monolithic engine: the nameplate is a
    // property of the modeled machine, not of the DES execution.
    double peak = _cfg.backgroundPower;
    peak += static_cast<double>(_cfg.numCores) *
        _corePower.peakPower();
    const Seconds transfer =
        _cfg.busBurstCycles / _cfg.memLadder.max();
    for (const MemoryPowerModel &pm : _memPower)
        peak += pm.peakPower(1.0 / transfer);
    return peak;
}

const std::vector<double> &
ShardedSystem::accessProbabilities(int core) const
{
    if (core < 0 || core >= _cfg.numCores)
        panic("accessProbabilities: core %d out of range", core);
    return _accessRows[static_cast<std::size_t>(core %
                                                _cfg.numControllers)];
}

std::uint64_t
ShardedSystem::eventsProcessed() const
{
    std::uint64_t processed = 0;
    for (const std::optional<Lane> &ln : _lanes)
        processed += ln->queue.processed();
    return processed;
}

} // namespace fastcap
