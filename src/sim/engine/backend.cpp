#include "sim/engine/backend.hpp"

#include <utility>

#include "sim/engine/sharded_system.hpp"

namespace fastcap {

namespace {

/**
 * The monolithic engine: ManyCoreSystem behind the SimBackend
 * surface. Pure forwarding — constructing through this adapter is
 * bit-identical to using ManyCoreSystem directly.
 */
class MonolithicBackend : public SimBackend
{
  public:
    MonolithicBackend(SimConfig cfg, std::vector<AppProfile> apps)
        : _system(std::move(cfg), std::move(apps))
    {
    }

    const char *engineName() const override { return "monolithic"; }
    const SimConfig &config() const override
    {
        return _system.config();
    }
    int numCores() const override { return _system.numCores(); }
    int numControllers() const override
    {
        return _system.numControllers();
    }
    Seconds now() const override { return _system.now(); }

    const AppProfile &appOf(int core) const override
    {
        return _system.appOf(core);
    }
    void swapApp(int core, AppProfile app) override
    {
        _system.swapApp(core, std::move(app));
    }

    void coreFreqIndex(int core, std::size_t idx) override
    {
        _system.coreFreqIndex(core, idx);
    }
    std::size_t coreFreqIndex(int core) const override
    {
        return _system.coreFreqIndex(core);
    }
    void memFreqIndex(std::size_t idx) override
    {
        _system.memFreqIndex(idx);
    }
    std::size_t memFreqIndex() const override
    {
        return _system.memFreqIndex();
    }
    Hertz memFrequency() const override
    {
        return _system.memFrequency();
    }
    void maxFrequencies() override { _system.maxFrequencies(); }

    WindowStats runWindow(Seconds duration) override
    {
        return _system.runWindow(duration);
    }
    double instructionsRetired(int core) const override
    {
        return _system.instructionsRetired(core);
    }
    void creditInstructions(int core, double instr) override
    {
        _system.creditInstructions(core, instr);
    }

    Watts nameplatePeakPower() const override
    {
        return _system.nameplatePeakPower();
    }
    const std::vector<double> &
    accessProbabilities(int core) const override
    {
        return _system.accessProbabilities(core);
    }
    std::uint64_t memoryInFlight() const override
    {
        return _system.memoryInFlight();
    }
    std::uint64_t eventsProcessed() const override
    {
        return _system.eventsProcessed();
    }

  private:
    ManyCoreSystem _system;
};

} // namespace

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

    if (engine.shards == 0) {
        if (cfg.numCores <= EngineConfig::kAutoMonolithicLimit)
            return std::make_unique<MonolithicBackend>(
                std::move(cfg), std::move(apps));
        // Auto beyond the monolithic tier: one shard per 64 cores.
        // The count only shapes scheduling granularity — results are
        // identical for any choice.
        const int auto_shards = (cfg.numCores + 63) / 64;
        return std::make_unique<ShardedSystem>(
            std::move(cfg), std::move(apps), auto_shards,
            engine.threads, engine.registry, engine.metricPrefix);
    }
    return std::make_unique<ShardedSystem>(
        std::move(cfg), std::move(apps), engine.shards, engine.threads,
        engine.registry, engine.metricPrefix);
}

} // namespace fastcap
