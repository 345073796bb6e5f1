/**
 * @file
 * Tests for the measured-peak-power procedure (Section IV-B: "run all
 * workloads under the maximum frequencies to observe the peak power").
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/peak_power.hpp"
#include "sim/system.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

TEST(PeakPower, BelowNameplateAboveTypical)
{
    const SimConfig cfg = SimConfig::defaultConfig(16);
    const Watts measured = measuredPeakPower(cfg);

    ManyCoreSystem sys(cfg, workloads::mix("ILP1", 16));
    const Watts nameplate = sys.nameplatePeakPower();
    EXPECT_LT(measured, nameplate)
        << "real workloads never reach activity-1 nameplate";
    EXPECT_GT(measured, 0.7 * nameplate);
}

TEST(PeakPower, DominatesWorkloadDraws)
{
    // Every class's uncapped draw must be at or below the measured
    // peak (the ILP class defines it).
    const SimConfig cfg = SimConfig::defaultConfig(16);
    const Watts peak = measuredPeakPower(cfg);
    for (const char *wl : {"ILP2", "MID1", "MEM1", "MIX2"}) {
        ManyCoreSystem sys(cfg, workloads::mix(wl, 16));
        sys.runWindow(fromUs(100)); // warm-up
        const WindowStats w = sys.runWindow(fromUs(200));
        EXPECT_LE(w.totalPower(), peak * 1.05) << wl;
    }
}

TEST(PeakPower, ScalesWithCoreCount)
{
    const Watts p4 = measuredPeakPower(SimConfig::defaultConfig(4));
    const Watts p16 = measuredPeakPower(SimConfig::defaultConfig(16));
    const Watts p32 = measuredPeakPower(SimConfig::defaultConfig(32));
    EXPECT_LT(p4, p16);
    EXPECT_LT(p16, p32);
    // Roughly linear in the core-dominated regime.
    EXPECT_NEAR(p32 / p16, 2.0, 0.45);
}

TEST(PeakPower, CacheInvalidation)
{
    SimConfig cfg = SimConfig::defaultConfig(4);
    const Watts a = measuredPeakPower(cfg);
    clearPeakPowerCache();
    const Watts b = measuredPeakPower(cfg);
    EXPECT_DOUBLE_EQ(a, b) << "deterministic measurement";

    // A different power configuration must not hit the same entry.
    cfg.corePower.dynMax *= 2.0;
    const Watts c = measuredPeakPower(cfg);
    EXPECT_GT(c, b);
}

TEST(PeakPower, SeedDoesNotInfluenceCachedValue)
{
    // The cache key covers only measurement-relevant fields, so the
    // measurement itself must not depend on cfg.seed: otherwise the
    // first caller's seed would leak into every later lookup.
    SimConfig cfg = SimConfig::defaultConfig(4);
    cfg.seed = 0x1111111111111111ULL;
    const Watts a = measuredPeakPower(cfg);
    clearPeakPowerCache();
    cfg.seed = 0x2222222222222222ULL;
    const Watts b = measuredPeakPower(cfg);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(PeakPower, SamplingWindowIsPartOfTheCacheKey)
{
    // The measurement runs cfg.profileWindow-long windows, so two
    // configs differing only there must not share a cache entry.
    SimConfig cfg = SimConfig::defaultConfig(4);
    const Watts a = measuredPeakPower(cfg);
    cfg.profileWindow = cfg.profileWindow * 4.0;
    const Watts b = measuredPeakPower(cfg);
    EXPECT_NE(a, b) << "longer windows observe different peaks";
}

// Regression (ISSUE 4): the key used to be formatted into a fixed
// char[320] with snprintf's return value ignored. Extreme-magnitude
// values (%.3f of a 1e300 dynMax expands past 300 characters) pushed
// later fields off the end, so configs differing only in a truncated
// field silently merged into one cache entry — corrupting paired-seed
// sweep determinism. The key is now built at whatever length the
// values demand.
TEST(PeakPower, CacheKeyNeverTruncates)
{
    SimConfig a = SimConfig::defaultConfig(4);
    a.corePower.dynMax = 1e300; // ~305 characters as %.3f
    SimConfig b = a;
    b.profileWindow = a.profileWindow * 2.0; // formatted after dynMax

    const std::string ka = peakPowerCacheKey(a);
    const std::string kb = peakPowerCacheKey(b);
    EXPECT_GT(ka.size(), 320u)
        << "the old fixed buffer would have cut this key short";
    EXPECT_NE(ka, kb)
        << "fields past the old 320-char horizon must still "
           "distinguish configs";
    // The full field list survives to the end of the key.
    EXPECT_NE(ka.find("dvfs="), std::string::npos);
    EXPECT_NE(kb.find("dvfs="), std::string::npos);
}

TEST(PeakPower, CacheKeyDistinguishesOrdinaryConfigs)
{
    const SimConfig base = SimConfig::defaultConfig(8);
    SimConfig other = base;
    other.rowHitRate = base.rowHitRate * 0.5;
    EXPECT_NE(peakPowerCacheKey(base), peakPowerCacheKey(other));
    EXPECT_NE(peakPowerCacheKey(base, 3), peakPowerCacheKey(base, 5))
        << "measurement epochs are part of the key";
    EXPECT_EQ(peakPowerCacheKey(base), peakPowerCacheKey(base));
}

/** A named one-field change to a SimConfig. */
using Perturbation =
    std::pair<const char *, std::function<void(SimConfig &)>>;

/**
 * Every SimConfig field either enters the key or cannot change the
 * measurement. The key used to omit the L2 and bank timings, the
 * think jitter and the out-of-order limits, so a config with 4x
 * l2Time and bankRowMissTime got the default config's cached peak.
 * A field added to SimConfig belongs in one of the two lists.
 */
TEST(PeakPower, CacheKeyCoversEveryMeasuredField)
{
    const std::vector<Perturbation> measured = {
        {"numCores", [](SimConfig &c) { c.numCores = 8; }},
        {"execMode",
         [](SimConfig &c) { c.execMode = ExecMode::OutOfOrder; }},
        {"numControllers", [](SimConfig &c) { c.numControllers = 2; }},
        {"banksPerController",
         [](SimConfig &c) { c.banksPerController += 1; }},
        {"interleave",
         [](SimConfig &c) { c.interleave = InterleaveMode::Skewed; }},
        {"skewHotFraction",
         [](SimConfig &c) { c.skewHotFraction *= 0.5; }},
        {"coreLadder",
         [](SimConfig &c) {
             c.coreLadder = FrequencyLadder::evenlySpaced(
                 fromGHz(2.2), fromGHz(4.0), 5);
         }},
        {"memLadder",
         [](SimConfig &c) {
             c.memLadder = FrequencyLadder::evenlySpaced(
                 fromMHz(206), fromMHz(800), 5);
         }},
        {"coreVoltage",
         [](SimConfig &c) {
             c.coreVoltage =
                 VoltageCurve(fromGHz(2.2), fromGHz(4.0), 0.7, 1.2);
         }},
        {"mcVoltage",
         [](SimConfig &c) {
             c.mcVoltage =
                 VoltageCurve(fromMHz(206), fromMHz(800), 0.7, 1.2);
         }},
        {"l2Time", [](SimConfig &c) { c.l2Time *= 4.0; }},
        {"bankRowHitTime", [](SimConfig &c) { c.bankRowHitTime *= 2.0; }},
        {"bankRowMissTime",
         [](SimConfig &c) { c.bankRowMissTime *= 4.0; }},
        {"busBurstCycles", [](SimConfig &c) { c.busBurstCycles *= 2.0; }},
        {"oooWindow", [](SimConfig &c) { c.oooWindow /= 2; }},
        {"oooMaxOutstanding",
         [](SimConfig &c) { c.oooMaxOutstanding += 1; }},
        {"profileWindow", [](SimConfig &c) { c.profileWindow *= 2.0; }},
        {"thinkJitterSigma",
         [](SimConfig &c) { c.thinkJitterSigma = 0.0; }},
        {"rowHitRate", [](SimConfig &c) { c.rowHitRate *= 0.5; }},
        {"corePower.dynMax",
         [](SimConfig &c) { c.corePower.dynMax *= 2.0; }},
        {"corePower.staticPower",
         [](SimConfig &c) { c.corePower.staticPower *= 2.0; }},
        {"corePower.stallFactor",
         [](SimConfig &c) { c.corePower.stallFactor *= 2.0; }},
        {"memPower.accessEnergy",
         [](SimConfig &c) { c.memPower.accessEnergy *= 2.0; }},
        {"memPower.interfaceMax",
         [](SimConfig &c) { c.memPower.interfaceMax *= 2.0; }},
        {"memPower.mcMax", [](SimConfig &c) { c.memPower.mcMax *= 2.0; }},
        {"memPower.staticPower",
         [](SimConfig &c) { c.memPower.staticPower *= 2.0; }},
        {"backgroundPower",
         [](SimConfig &c) { c.backgroundPower *= 2.0; }},
    };
    // The measurement reseeds, runs profileWindow-long windows and
    // never changes a level, so these cannot reach it.
    const std::vector<Perturbation> unmeasured = {
        {"seed (the measurement uses the default seed)",
         [](SimConfig &c) { c.seed += 1; }},
        {"epochLength (windows are profileWindow long)",
         [](SimConfig &c) { c.epochLength *= 2.0; }},
        {"execWindow (windows are profileWindow long)",
         [](SimConfig &c) { c.execWindow *= 2.0; }},
        {"coreTransitionTime (no level changes)",
         [](SimConfig &c) { c.coreTransitionTime *= 2.0; }},
        {"memTransitionTime (no level changes)",
         [](SimConfig &c) { c.memTransitionTime *= 2.0; }},
    };

    const SimConfig base = SimConfig::defaultConfig(4);
    const std::string base_key = peakPowerCacheKey(base);
    for (const auto &[field, perturb] : measured) {
        SimConfig cfg = base;
        perturb(cfg);
        EXPECT_NE(peakPowerCacheKey(cfg), base_key) << field;
    }

    clearPeakPowerCache();
    const Watts base_peak = measuredPeakPower(base);
    for (const auto &[field, perturb] : unmeasured) {
        SimConfig cfg = base;
        perturb(cfg);
        EXPECT_EQ(peakPowerCacheKey(cfg), base_key) << field;
        clearPeakPowerCache();
        EXPECT_EQ(measuredPeakPower(cfg), base_peak) << field;
    }
}

// Regression (ISSUE 8): the measurement used to run on a monolithic
// ManyCoreSystem regardless of what engine the experiment itself
// selected, and the cache key ignored the engine entirely. Above the
// 64-core auto-sharding limit the budget denominator therefore came
// from a different contention model than the epochs being capped —
// and a forced-shard small run could poison the cache for a later
// monolithic run of the same config.
TEST(PeakPower, EngineIsPartOfTheCacheKey)
{
    const SimConfig cfg = SimConfig::defaultConfig(16);
    const std::string auto_key = peakPowerCacheKey(cfg);
    const std::string forced_key =
        peakPowerCacheKey(cfg, EngineConfig{4, 1});
    EXPECT_NE(auto_key.find("eng=monolithic"), std::string::npos);
    EXPECT_NE(forced_key.find("eng=sharded"), std::string::npos);
    EXPECT_NE(auto_key, forced_key)
        << "engines model contention differently; their measured "
           "peaks must never share a cache entry";

    // Shard/thread *counts* are bit-irrelevant by the determinism
    // contract, so they must NOT split the cache.
    EXPECT_EQ(peakPowerCacheKey(cfg, EngineConfig{4, 1}),
              peakPowerCacheKey(cfg, EngineConfig{8, 3}));
}

TEST(PeakPower, LargeConfigsMeasureOnTheShardedEngine)
{
    // 4096 cores auto-selects the sharded engine: the measurement
    // must follow it there (and still produce a sane positive peak).
    const SimConfig cfg = SimConfig::defaultConfig(4096);
    EXPECT_NE(peakPowerCacheKey(cfg).find("eng=sharded"),
              std::string::npos);

    const Watts sharded = measuredPeakPower(
        SimConfig::defaultConfig(128), EngineConfig{});
    EXPECT_GT(sharded, 0.0);
    // Engines agree on uncontended per-core power, so the sharded
    // 128-core peak sits near 8x the monolithic 16-core peak.
    const Watts mono16 = measuredPeakPower(SimConfig::defaultConfig(16));
    EXPECT_NEAR(sharded / mono16, 8.0, 2.0);
}

TEST(PeakPower, ForcedEngineMatchesAutoAboveTheLimit)
{
    // Above kAutoMonolithicLimit the auto rule resolves to sharded,
    // so an explicitly forced shard count must reuse the same entry.
    const SimConfig cfg = SimConfig::defaultConfig(96);
    EXPECT_EQ(peakPowerCacheKey(cfg),
              peakPowerCacheKey(cfg, EngineConfig{2, 2}));
    EXPECT_DOUBLE_EQ(measuredPeakPower(cfg),
                     measuredPeakPower(cfg, EngineConfig{2, 2}));
}

TEST(PeakPower, PaperBandAt16Cores)
{
    // Paper: 120 W at 16 cores. Our calibration lands in the same
    // band (±25%), which EXPERIMENTS.md records.
    const Watts p = measuredPeakPower(SimConfig::defaultConfig(16));
    EXPECT_GT(p, 90.0);
    EXPECT_LT(p, 150.0);
}

} // namespace
} // namespace fastcap
