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
