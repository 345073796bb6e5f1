#include "harness/peak_power.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>

#include "sim/engine/backend.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {

namespace {

/**
 * The engine the auto rule (or a forced shard count) resolves to.
 * Only the *name* enters the cache key: shard and thread counts are
 * bit-irrelevant on the sharded engine, but the two engines model
 * memory contention differently, so their measurements must never
 * alias. This is the fix for the historical bug where >64-core peaks
 * were measured through the monolithic path while the experiment ran
 * sharded — and where a forced-shard small-system run budgeted
 * against a monolithic peak under an engine-blind key.
 */
const char *
resolvedEngineName(const SimConfig &cfg, const EngineConfig &engine)
{
    return engine.sharded(cfg.numCores) ? "sharded" : "monolithic";
}

/** FNV-1a over the bit patterns of a list of doubles. */
std::uint64_t
hashDoubles(std::initializer_list<double> values)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (double v : values) {
        const std::uint64_t bits = doubleBits(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/** Hash of everything DVFS-side that shapes the measured peak. */
std::uint64_t
dvfsKey(const SimConfig &cfg)
{
    // Order-dependent combine (not XOR): repeated ladder entries and
    // identical (freq, voltage) pairs in the two ladders must not
    // cancel out.
    std::uint64_t h = cfg.coreLadder.size() * 0x9e3779b97f4a7c15ULL +
        cfg.memLadder.size();
    for (std::size_t i = 0; i < cfg.coreLadder.size(); ++i)
        h = h * 0x100000001b3ULL ^
            hashDoubles({cfg.coreLadder.at(i),
                         cfg.coreVoltage.at(cfg.coreLadder.at(i))});
    for (std::size_t i = 0; i < cfg.memLadder.size(); ++i)
        h = h * 0x100000001b3ULL ^
            hashDoubles({cfg.memLadder.at(i),
                         cfg.mcVoltage.at(cfg.memLadder.at(i))});
    return h;
}

/**
 * The memo cache plus its lock, annotated so clang's thread-safety
 * analysis checks the discipline: sweep workers measure peaks
 * concurrently, and every entry access must hold `mu`.
 */
struct PeakCache
{
    Mutex mu;
    std::map<std::string, Watts> entries FASTCAP_GUARDED_BY(mu);
};

PeakCache &
cache()
{
    static PeakCache c;
    return c;
}

} // namespace

std::string
peakPowerCacheKey(const SimConfig &cfg, const EngineConfig &engine,
                  int epochs)
{
    // Measure-then-format: a fixed buffer would silently truncate on
    // extreme-magnitude config values (e.g. %.3f of a 1e300 dynMax
    // expands past 300 characters), merging distinct configs into one
    // cache entry and corrupting paired-seed sweep determinism.
    const char *fmt_str =
        "n=%d mode=%d ctrl=%d banks=%d burst=%.4f "
        "cdyn=%.3f cst=%.3f sf=%.3f ae=%.3g if=%.3f mc=%.3f "
        "mst=%.3f bg=%.3f il=%d skew=%.3f rh=%.3f "
        "l2=%.17g rhit=%.17g rmiss=%.17g jit=%.17g oow=%d ooo=%d "
        "win=%.6g ep=%d dvfs=%016llx eng=%s";
    const auto format = [&](char *buf, std::size_t size) {
        return std::snprintf(
            buf, size, fmt_str, cfg.numCores,
            static_cast<int>(cfg.execMode), cfg.numControllers,
            cfg.banksPerController, cfg.busBurstCycles,
            cfg.corePower.dynMax, cfg.corePower.staticPower,
            cfg.corePower.stallFactor, cfg.memPower.accessEnergy,
            cfg.memPower.interfaceMax, cfg.memPower.mcMax,
            cfg.memPower.staticPower, cfg.backgroundPower,
            static_cast<int>(cfg.interleave), cfg.skewHotFraction,
            cfg.rowHitRate, cfg.l2Time, cfg.bankRowHitTime,
            cfg.bankRowMissTime, cfg.thinkJitterSigma, cfg.oooWindow,
            cfg.oooMaxOutstanding, cfg.profileWindow, epochs,
            static_cast<unsigned long long>(dvfsKey(cfg)),
            resolvedEngineName(cfg, engine));
    };
    const int needed = format(nullptr, 0);
    if (needed < 0)
        fatal("peakPowerCacheKey: snprintf failed");
    std::string key(static_cast<std::size_t>(needed), '\0');
    const int written = format(&key[0], key.size() + 1);
    if (written != needed)
        fatal("peakPowerCacheKey: inconsistent snprintf sizing "
              "(%d vs %d)", written, needed);
    return key;
}

std::string
peakPowerCacheKey(const SimConfig &cfg, int epochs)
{
    return peakPowerCacheKey(cfg, EngineConfig{}, epochs);
}

Watts
measuredPeakPower(const SimConfig &cfg, const EngineConfig &engine,
                  int epochs)
{
    // Serializing the whole measurement keeps concurrent first
    // callers from duplicating work; cache hits only pay the lock.
    PeakCache &c = cache();
    LockGuard lock(c.mu);
    const std::string key = peakPowerCacheKey(cfg, engine, epochs);
    auto it = c.entries.find(key);
    if (it != c.entries.end())
        return it->second;

    // Measure with a fixed seed: the cache key covers only the
    // power-relevant config fields, so the cached value must not
    // depend on which caller's cfg.seed populates it first (sweep
    // runs with derived per-run seeds would otherwise make results
    // depend on completion order).
    SimConfig mcfg = cfg;
    mcfg.seed = SimConfig().seed;

    // Measure serially regardless of the caller's thread knob: the
    // value is engine-dependent but thread-independent, and the
    // measurement often runs under a sweep that owns the workers.
    EngineConfig mengine = engine;
    mengine.threads = 1;

    Watts peak = 0.0;
    // The compute-bound mixes draw the highest power; measuring the
    // ILP class at max frequency gives the observed peak. The
    // measurement runs on the engine the experiment will use — a
    // 1024-core sharded run must not budget against a peak the
    // monolithic contention model produced.
    for (const std::string &wl : workloads::workloadsOfClass("ILP")) {
        // A fresh engine runs at the maximum levels.
        auto system = makeSimBackend(
            mcfg, workloads::mix(wl, mcfg.numCores), mengine);
        for (int e = 0; e < epochs; ++e) {
            // Sampled window per epoch, mirroring the runner.
            const WindowStats w =
                system->runWindow(mcfg.profileWindow);
            peak = std::max(peak, w.totalPower());
        }
    }

    if (peak <= 0.0)
        panic("measuredPeakPower: non-positive peak");
    inform("measured peak power for %d cores (%s engine): %.1f W",
           cfg.numCores, resolvedEngineName(cfg, engine), peak);
    c.entries.emplace(key, peak);
    return peak;
}

Watts
measuredPeakPower(const SimConfig &cfg, int epochs)
{
    return measuredPeakPower(cfg, EngineConfig{}, epochs);
}

void
clearPeakPowerCache()
{
    PeakCache &c = cache();
    LockGuard lock(c.mu);
    c.entries.clear();
}

} // namespace fastcap
