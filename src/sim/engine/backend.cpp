#include "sim/engine/backend.hpp"

#include <utility>

#include "sim/engine/sharded_system.hpp"
#include "sim/system.hpp"
#include "util/logging.hpp"

namespace fastcap {

Watts
WindowStats::corePowerTotal() const
{
    double acc = 0.0;
    for (const auto &c : cores)
        acc += c.totalPower;
    return acc;
}

Watts
WindowStats::memPowerTotal() const
{
    double acc = 0.0;
    for (const auto &m : memory)
        acc += m.totalPower;
    return acc;
}

Watts
WindowStats::totalPower() const
{
    return corePowerTotal() + memPowerTotal() + backgroundPower;
}

void
checkLevels(const SimConfig &cfg, const std::vector<std::size_t> &core,
            std::size_t mem)
{
    if (core.size() != static_cast<std::size_t>(cfg.numCores))
        panic("applyLevels: %zu core levels for %d cores", core.size(),
              cfg.numCores);
    for (const std::size_t idx : core)
        if (idx >= cfg.coreLadder.size())
            panic("applyLevels: core level %zu out of range", idx);
    if (mem >= cfg.memLadder.size())
        panic("applyLevels: memory level %zu out of range", mem);
}

void
checkCredits(const SimConfig &cfg, const std::vector<double> &credit)
{
    if (credit.size() != static_cast<std::size_t>(cfg.numCores))
        panic("creditInstructions: %zu credits for %d cores",
              credit.size(), cfg.numCores);
    for (std::size_t i = 0; i < credit.size(); ++i)
        if (!(credit[i] >= 0.0))
            panic("creditInstructions: credit %g for core %zu is "
                  "negative or NaN", credit[i], i);
}

MemoryPowerModel
controllerPowerModel(const SimConfig &cfg)
{
    return MemoryPowerModel(
        cfg.memPower, 1.0 / static_cast<double>(cfg.numControllers),
        cfg.mcVoltage, cfg.memLadder.max());
}

Watts
nameplatePeakPower(const SimConfig &cfg)
{
    const CorePowerModel core(cfg.corePower, cfg.coreVoltage,
                              cfg.coreLadder.max());
    const MemoryPowerModel mem = controllerPowerModel(cfg);
    double peak = cfg.backgroundPower;
    peak += static_cast<double>(cfg.numCores) * core.peakPower();
    const Seconds transfer = cfg.busBurstCycles / cfg.memLadder.max();
    for (int k = 0; k < cfg.numControllers; ++k)
        peak += mem.peakPower(1.0 / transfer);
    return peak;
}

Joules
fillCoreStats(const Core &core, const CorePowerModel &model,
              Seconds window, CoreWindowStats &cs)
{
    cs.counters = core.counters();
    cs.frequency = core.frequency();
    cs.retired = core.instructionsRetired();
    cs.activity = core.currentActivity();
    const Joules e = model.windowEnergy(
        cs.frequency, cs.activity, cs.counters.busyTime,
        cs.counters.stallTime, window);
    cs.totalPower = e / window;
    cs.dynamicPower = cs.totalPower - model.staticPower();
    return e;
}

Joules
fillMemStats(const ControllerCounters &counters, Hertz bus_freq,
             Seconds transfer, const MemoryPowerModel &model,
             Seconds window, MemWindowStats &ms)
{
    ms.counters = counters;
    ms.busFrequency = bus_freq;
    ms.transferTime = transfer;
    ms.busUtilisation = counters.busBusyTime / window;
    const Joules e = model.windowEnergy(
        bus_freq, counters.reads + counters.writebacks, window);
    ms.totalPower = e / window;
    ms.dynamicPower = ms.totalPower - model.staticPower();
    return e;
}

std::unique_ptr<SimBackend>
makeSimBackend(SimConfig cfg, std::vector<AppProfile> apps,
               const EngineConfig &engine)
{
    if (engine.shards < 0)
        fatal("makeSimBackend: shards must be >= 0 (got %d)",
              engine.shards);
    if (engine.threads < 0)
        fatal("makeSimBackend: threads must be >= 0 (got %d)",
              engine.threads);

    if (!engine.sharded(cfg.numCores))
        return std::make_unique<ManyCoreSystem>(std::move(cfg),
                                                std::move(apps));
    // Auto beyond the monolithic tier: one shard per 64 cores. The
    // count only shapes scheduling granularity — results are
    // identical for any choice.
    const int shards =
        engine.shards > 0 ? engine.shards : (cfg.numCores + 63) / 64;
    return std::make_unique<ShardedSystem>(
        std::move(cfg), std::move(apps), shards, engine.threads,
        engine.registry, engine.metricPrefix);
}

} // namespace fastcap
