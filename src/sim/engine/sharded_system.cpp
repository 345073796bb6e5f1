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

/**
 * Start fetching `obj` into the cache. On a rack, a machine's lane
 * pass finds its lanes (~700 bytes each) evicted by the other
 * machines' passes; asking for a lane two visits ahead hides some of
 * that latency. It changes no result.
 */
template <class T>
void
prefetch(const T &obj)
{
    const auto *p = reinterpret_cast<const char *>(&obj);
    for (std::size_t off = 0; off < sizeof(T); off += 64)
        __builtin_prefetch(p + off);
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
      _memPower(controllerPowerModel(_cfg)),
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
    _laneBurst.resize(static_cast<std::size_t>(n));
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
        for (int i = c; i < n; i += k_ctrl) {
            _laneScale[static_cast<std::size_t>(i)] =
                static_cast<double>(lanes);
            _laneBurst[static_cast<std::size_t>(i)] =
                _laneCfgs.back().busBurstCycles;
        }
    }
    _coreEnergy.resize(static_cast<std::size_t>(n));
    _laneDemand.resize(static_cast<std::size_t>(n));
    _coreFreq.assign(static_cast<std::size_t>(n), _cfg.coreLadder.max());

    _numShards = std::clamp(shards, 1, n);
    _shardEvents.resize(static_cast<std::size_t>(_numShards));
    _lanes = std::vector<std::optional<Lane>>(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        _lanes[static_cast<std::size_t>(i)].emplace(
            i, _laneCfgs[static_cast<std::size_t>(i % k_ctrl)], _cfg.seed,
            std::move(apps[static_cast<std::size_t>(i)]));

    // Access rows, one per logical controller.
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
    return static_cast<int>(ThreadPool::workersFor(
        _threads, static_cast<std::size_t>(numShards())));
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
    // Recorded here, applied by the next window's lane pass.
    _busFreq = _cfg.memLadder.at(mem);
    for (std::size_t i = 0; i < core.size(); ++i)
        _coreFreq[i] = _cfg.coreLadder.at(core[i]);
    _levelsPending = true;
}

void
ShardedSystem::runShardWindow(int s, Seconds t_end, WindowStats &stats)
{
    const Seconds duration = stats.duration;
    const auto [first, count] = shardRange(s);
    std::uint64_t events = 0;
    for (int i = first; i < first + count; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        Lane &ln = *_lanes[idx];
        if (i + 2 < first + count)
            prefetch(_lanes[idx + 2]);
        // What the calls between windows recorded reaches the lane.
        if (_levelsPending) {
            ln.core.frequency(_coreFreq[idx]);
            ln.controller.busFrequency(_busFreq);
        }
        if (_creditPending)
            ln.core.creditInstructions(_credit[idx]);
        ln.controller.busBurstCycles(_laneBurst[idx]);

        ln.core.resetCounters();
        ln.controller.resetCounters();
        ln.queue.runUntil(t_end);
        ln.core.flushStall(t_end);
        // Fold bank/bus busy time into the counters while still
        // inside the shard job; the merge only reads them. The
        // re-division reads the lane's demand from a flat copy.
        const ControllerCounters &lc = ln.controller.finalizeWindow();
        _laneDemand[idx] = static_cast<double>(lc.reads + lc.writebacks);
        events += ln.queue.processed();
        // The lane's own stats, while it is still hot in cache. Each
        // job writes only its own lanes' slots.
        _coreEnergy[idx] = fillCoreStats(ln.core, _corePower, duration,
                                         stats.cores[idx]);
    }
    _shardEvents[static_cast<std::size_t>(s)] = events;
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
    _levelsPending = false;
    _creditPending = false;

    // Deterministic merge, all on the calling thread: core energies
    // summed in core-index order, then logical-controller aggregation
    // in (controller, ascending core) order.
    double energy = 0.0;
    for (const double e : _coreEnergy)
        energy += e;

    const int k_ctrl = _cfg.numControllers;
    stats.memory.resize(static_cast<std::size_t>(k_ctrl));
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
        energy += fillMemStats(
            agg, _busFreq, _cfg.busBurstCycles / _busFreq,
            _memPower, duration,
            stats.memory[static_cast<std::size_t>(c)]);
    }

    energy += _cfg.backgroundPower * duration;
    stats.totalEnergy = energy;

    // Observe-only: window count plus per-shard cumulative event
    // counts (summed over the shard's lanes by the lane pass),
    // published on the merge thread after the barrier so each gauge
    // has one writer per window.
    if (_windowsMetric != nullptr) {
        _windowsMetric->add();
        for (std::size_t s = 0; s < _shardEvents.size(); ++s)
            _shardEventsMetric[s]->set(
                static_cast<double>(_shardEvents[s]));
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
        return _laneDemand[static_cast<std::size_t>(i)];
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
            _laneBurst[static_cast<std::size_t>(i)] =
                _cfg.busBurstCycles / share;
            _laneScale[static_cast<std::size_t>(i)] = 1.0 / share;
        }
    }
}

void
ShardedSystem::creditInstructions(const std::vector<double> &credit)
{
    checkCredits(_cfg, credit);
    // Recorded here, applied by the next window's lane pass. A second
    // credit before that window sends the first to the cores now, so
    // each core still adds them one at a time.
    if (_creditPending)
        for (std::size_t i = 0; i < _lanes.size(); ++i)
            _lanes[i]->core.creditInstructions(_credit[i]);
    _credit = credit;
    _creditPending = true;
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
    // Lanes process events only inside windows, so the lane pass's
    // per-shard sums are the whole count.
    std::uint64_t processed = 0;
    for (const std::uint64_t events : _shardEvents)
        processed += events;
    return processed;
}

} // namespace fastcap
