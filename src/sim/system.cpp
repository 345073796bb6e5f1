#include "sim/system.hpp"

#include <numeric>
#include <utility>

#include "util/logging.hpp"

namespace fastcap {

ManyCoreSystem::ManyCoreSystem(SimConfig cfg, std::vector<AppProfile> apps)
    : _cfg(std::move(cfg)), _apps(std::move(apps)), _rng(_cfg.seed),
      _corePower(_cfg.corePower, _cfg.coreVoltage, _cfg.coreLadder.max())
{
    _cfg.validate();
    if (static_cast<int>(_apps.size()) != _cfg.numCores)
        fatal("ManyCoreSystem: %zu applications for %d cores",
              _apps.size(), _cfg.numCores);

    const double share = 1.0 / static_cast<double>(_cfg.numControllers);
    for (int k = 0; k < _cfg.numControllers; ++k) {
        _memPower.emplace_back(_cfg.memPower, share, _cfg.mcVoltage,
                               _cfg.memLadder.max());
        _controllers.push_back(std::make_unique<MemoryController>(
            k, _cfg, _queue, _rng.split(1000 + k)));
        _controllers.back()->deliverySink(this);
    }

    buildAccessMatrix();

    for (int i = 0; i < _cfg.numCores; ++i) {
        _cores.push_back(std::make_unique<Core>(
            i, _cfg, _queue, _rng.split(static_cast<std::uint64_t>(i))));
        Core &core = *_cores.back();
        core.runApp(&_apps[static_cast<std::size_t>(i)]);
        core.requestSink(this);
        core.start();
    }
}

void
ManyCoreSystem::buildAccessMatrix()
{
    const int k = _cfg.numControllers;
    _accessProbs.assign(static_cast<std::size_t>(_cfg.numCores),
                        std::vector<double>(static_cast<std::size_t>(k),
                                            1.0 / k));
    if (_cfg.interleave == InterleaveMode::Skewed && k > 1) {
        // One hot controller absorbs skewHotFraction of every core's
        // traffic; the rest spreads evenly (Section IV-B, "highly
        // skewed" interleaving).
        const double hot = _cfg.skewHotFraction;
        const double cold = (1.0 - hot) / static_cast<double>(k - 1);
        for (auto &row : _accessProbs) {
            for (std::size_t c = 0; c < row.size(); ++c)
                row[c] = (c == 0) ? hot : cold;
        }
    }
}

const AppProfile &
ManyCoreSystem::appOf(int core) const
{
    return _apps.at(static_cast<std::size_t>(core));
}

void
ManyCoreSystem::swapApp(int core, AppProfile app)
{
    // Cores hold a stable pointer into _apps (the vector is never
    // resized after construction), so assigning the slot is all a
    // rebind takes: the next scheduled think reads the new phases.
    _apps.at(static_cast<std::size_t>(core)) = std::move(app);
}

const std::vector<double> &
ManyCoreSystem::accessProbabilities(int core) const
{
    return _accessProbs.at(static_cast<std::size_t>(core));
}

void
ManyCoreSystem::onDataReturn(const Request &req, Seconds now)
{
    _cores.at(static_cast<std::size_t>(req.coreId))->onDataReturn(req, now);
}

void
ManyCoreSystem::submit(Request req)
{
    const auto &probs = _accessProbs[static_cast<std::size_t>(req.coreId)];
    double u = _rng.uniform();
    std::size_t pick = probs.size() - 1;
    for (std::size_t k = 0; k < probs.size(); ++k) {
        if (u < probs[k]) {
            pick = k;
            break;
        }
        u -= probs[k];
    }
    _controllers[pick]->submit(req);
}

void
ManyCoreSystem::applyLevels(const std::vector<std::size_t> &core,
                            std::size_t mem)
{
    checkLevels(_cfg, core, mem);
    for (std::size_t i = 0; i < _cores.size(); ++i)
        _cores[i]->frequency(_cfg.coreLadder.at(core[i]));
    for (auto &ctrl : _controllers)
        ctrl->busFrequency(_cfg.memLadder.at(mem));
}

WindowStats
ManyCoreSystem::runWindow(Seconds duration)
{
    if (duration <= 0.0)
        fatal("runWindow: non-positive duration");

    // Reset window accumulators.
    for (auto &core : _cores)
        core->resetCounters();
    for (auto &ctrl : _controllers)
        ctrl->resetCounters();

    const Seconds t_end = _queue.now() + duration;
    _queue.runUntil(t_end);

    // Close out stalls still open at the boundary so fully blocked
    // cores report their stall power.
    for (auto &core : _cores)
        core->flushStall(t_end);

    WindowStats stats;
    stats.duration = duration;
    stats.backgroundPower = _cfg.backgroundPower;

    double energy = 0.0;
    stats.cores.reserve(_cores.size());
    for (auto &core : _cores) {
        CoreWindowStats cs;
        cs.counters = core->counters();
        cs.frequency = core->frequency();
        cs.retired = core->instructionsRetired();
        cs.activity = core->currentActivity();

        const Joules e = _corePower.windowEnergy(
            cs.frequency, cs.activity, cs.counters.busyTime,
            cs.counters.stallTime, duration);
        cs.totalPower = e / duration;
        cs.dynamicPower = cs.totalPower - _corePower.staticPower();
        energy += e;
        stats.cores.push_back(cs);
    }

    stats.memory.reserve(_controllers.size());
    for (std::size_t k = 0; k < _controllers.size(); ++k) {
        MemoryController &ctrl = *_controllers[k];
        MemWindowStats ms;
        ms.counters = ctrl.finalizeWindow();
        ms.busFrequency = ctrl.busFrequency();
        ms.transferTime = ctrl.transferTime();
        ms.busUtilisation = ms.counters.busBusyTime / duration;

        const std::uint64_t accesses =
            ms.counters.reads + ms.counters.writebacks;
        const Joules e = _memPower[k].windowEnergy(
            ms.busFrequency, accesses, duration);
        ms.totalPower = e / duration;
        ms.dynamicPower = ms.totalPower - _memPower[k].staticPower();
        energy += e;
        stats.memory.push_back(ms);
    }

    energy += _cfg.backgroundPower * duration;
    stats.totalEnergy = energy;
    return stats;
}

void
ManyCoreSystem::creditInstructions(const std::vector<double> &credit)
{
    checkCredits(_cfg, credit);
    for (std::size_t i = 0; i < _cores.size(); ++i)
        _cores[i]->creditInstructions(credit[i]);
}

Watts
ManyCoreSystem::nameplatePeakPower() const
{
    double peak = _cfg.backgroundPower;
    peak += static_cast<double>(_cfg.numCores) * _corePower.peakPower();
    for (std::size_t k = 0; k < _controllers.size(); ++k) {
        const double rate =
            1.0 / _controllers[k]->transferTimeAt(_cfg.memLadder.max());
        peak += _memPower[k].peakPower(rate);
    }
    return peak;
}

std::uint64_t
ManyCoreSystem::memoryInFlight() const
{
    std::uint64_t n = 0;
    for (const auto &ctrl : _controllers)
        n += ctrl->inFlight();
    return n;
}

} // namespace fastcap
