/**
 * @file
 * Tests for the sharded simulation engine: shard partitioning, the
 * SimBackend factory's auto rule, window-stats shape and power
 * conservation against the monolithic engine, and the heart of the
 * contract — bit-identical window stats for every shard count and
 * thread count.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine_test_util.hpp"
#include "sim/engine/backend.hpp"
#include "sim/engine/sharded_system.hpp"
#include "sim/system.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

SimConfig
config(int cores)
{
    SimConfig cfg = SimConfig::defaultConfig(cores);
    cfg.seed = 0xfeedbee5ULL;
    return cfg;
}

TEST(ShardedSystem, PartitionCoversAllCoresContiguously)
{
    const SimConfig cfg = config(16);
    for (int shards : {1, 3, 5, 16, 99}) {
        ShardedSystem sys(cfg, workloads::mix("MIX1", 16), shards, 1);
        EXPECT_LE(sys.numShards(), 16);
        EXPECT_GE(sys.numShards(), 1);
        int next = 0;
        for (int s = 0; s < sys.numShards(); ++s) {
            const auto [first, count] = sys.shardRange(s);
            EXPECT_EQ(first, next) << "shards=" << shards;
            EXPECT_GE(count, 1) << "shards=" << shards;
            next = first + count;
        }
        EXPECT_EQ(next, 16) << "shards=" << shards;
    }
    // Requesting one shard per core yields exactly that.
    ShardedSystem one_each(cfg, workloads::mix("MIX1", 16), 16, 1);
    EXPECT_EQ(one_each.numShards(), 16);
    for (int s = 0; s < 16; ++s)
        EXPECT_EQ(one_each.shardRange(s).second, 1);
}

TEST(ShardedSystem, FactoryAutoRuleSelectsEngineByScale)
{
    auto mono = makeSimBackend(config(16), workloads::mix("MIX1", 16));
    EXPECT_NE(dynamic_cast<ManyCoreSystem *>(mono.get()), nullptr);

    auto mono64 =
        makeSimBackend(config(64), workloads::mix("MIX1", 64));
    EXPECT_NE(dynamic_cast<ManyCoreSystem *>(mono64.get()), nullptr);

    auto sharded =
        makeSimBackend(config(128), workloads::mix("MIX1", 128));
    const auto *sharded_sys = dynamic_cast<ShardedSystem *>(sharded.get());
    ASSERT_NE(sharded_sys, nullptr);
    EXPECT_EQ(sharded_sys->numShards(), 2);

    EngineConfig force;
    force.shards = 4;
    auto forced =
        makeSimBackend(config(16), workloads::mix("MIX1", 16), force);
    const auto *forced_sys = dynamic_cast<ShardedSystem *>(forced.get());
    ASSERT_NE(forced_sys, nullptr);
    EXPECT_EQ(forced_sys->numShards(), 4);

    EngineConfig bad;
    bad.shards = -1;
    EXPECT_THROW(makeSimBackend(config(16),
                                workloads::mix("MIX1", 16), bad),
                 FatalError);
}

TEST(ShardedSystem, EngineConfigShardedRule)
{
    // The one auto rule the factory and the peak-power cache key
    // share: auto stays monolithic up to 64 cores, and any forced
    // shard count selects the sharded engine at any scale.
    struct Case
    {
        int shards;
        int cores;
        bool sharded;
    };
    for (const Case &c : {Case{0, 64, false}, Case{0, 65, true},
                          Case{1, 16, true}}) {
        EngineConfig engine;
        engine.shards = c.shards;
        EXPECT_EQ(engine.sharded(c.cores), c.sharded)
            << "shards=" << c.shards << " cores=" << c.cores;
    }
}

TEST(ShardedSystem, WindowStatsShapeMatchesLogicalTopology)
{
    SimConfig cfg = config(16);
    cfg.numControllers = 4;
    cfg.banksPerController = 8;
    ShardedSystem sys(cfg, workloads::mix("MEM1", 16), 4, 1);

    const WindowStats w = sys.runWindow(cfg.profileWindow);
    ASSERT_EQ(w.cores.size(), 16u);
    ASSERT_EQ(w.memory.size(), 4u); // logical, not per-lane
    EXPECT_GT(w.totalEnergy, 0.0);
    EXPECT_GT(w.totalPower(), 0.0);
    for (const MemWindowStats &m : w.memory) {
        EXPECT_GT(m.counters.reads, 0u);
        EXPECT_GE(m.busUtilisation, 0.0);
        EXPECT_LE(m.busUtilisation, 1.0 + 1e-9);
        EXPECT_GT(m.totalPower, 0.0);
    }
    for (const CoreWindowStats &c : w.cores)
        EXPECT_GT(c.counters.instructions, 0u);
    EXPECT_GT(sys.eventsProcessed(), 0u);
}

/**
 * Regression: with numCores not divisible by numControllers, lanes
 * must be scaled by their *own* controller's lane count — a uniform
 * N/K share oversubscribes the controllers that serve the extra lane
 * and reported busUtilisation could exceed 1, which the monolithic
 * engine (one serialized bus) can never produce.
 */
TEST(ShardedSystem, NonDivisibleControllerCountKeepsUtilisationSane)
{
    SimConfig cfg = config(8);
    cfg.numControllers = 3;
    cfg.banksPerController = 4;
    // Bus-dominated memory so the lanes run their buses near flat out.
    cfg.busBurstCycles = 40.0;
    ShardedSystem sys(cfg, workloads::mix("MEM1", 8), 2, 1);
    for (int w = 0; w < 4; ++w) {
        const WindowStats stats = sys.runWindow(cfg.profileWindow);
        ASSERT_EQ(stats.memory.size(), 3u);
        for (const MemWindowStats &m : stats.memory) {
            EXPECT_GE(m.busUtilisation, 0.0);
            EXPECT_LE(m.busUtilisation, 1.0 + 1e-9)
                << "window " << w;
        }
    }
}

/**
 * A fresh engine of either kind runs its first window at the maximum
 * core and memory levels, bit-identically to one told so explicitly:
 * the peak-power measurement relies on this and actuates nothing.
 */
TEST(ShardedSystem, FreshEnginesRunAtMaximumLevels)
{
    const SimConfig cfg = config(8);
    for (const int shards : {0, 2}) {
        const EngineConfig engine{shards, 1};
        auto fresh = makeSimBackend(cfg, workloads::mix("MIX1", 8), engine);
        auto told = makeSimBackend(cfg, workloads::mix("MIX1", 8), engine);
        told->applyLevels(
            std::vector<std::size_t>(8, cfg.coreLadder.maxIndex()),
            cfg.memLadder.maxIndex());

        const WindowStats w = fresh->runWindow(cfg.profileWindow);
        for (const CoreWindowStats &c : w.cores)
            EXPECT_EQ(c.frequency, cfg.coreLadder.max())
                << "shards=" << shards;
        for (const MemWindowStats &m : w.memory)
            EXPECT_EQ(m.busFrequency, cfg.memLadder.max())
                << "shards=" << shards;
        EXPECT_EQ(enginetest::serialize(w),
                  enginetest::serialize(told->runWindow(cfg.profileWindow)))
            << "shards=" << shards;
    }
}

TEST(ShardedSystem, ActuationPanicsOnMalformedInputs)
{
    const SimConfig cfg = config(8);
    ShardedSystem sys(cfg, workloads::mix("MIX1", 8), 2, 1);
    std::vector<std::size_t> levels(8, 0);
    levels[5] = cfg.coreLadder.size();
    EXPECT_THROW(sys.applyLevels(levels, 0), PanicError);
    levels[5] = 0;
    EXPECT_THROW(sys.applyLevels(levels, cfg.memLadder.size()),
                 PanicError);
    EXPECT_THROW(sys.applyLevels(std::vector<std::size_t>(7, 0), 0),
                 PanicError);
    EXPECT_THROW(sys.creditInstructions(std::vector<double>(9, 0.0)),
                 PanicError);
}

TEST(ShardedSystem, NameplatePeakMatchesMonolithicEngine)
{
    const SimConfig cfg = config(32);
    ShardedSystem sharded(cfg, workloads::mix("ILP1", 32), 4, 1);
    ManyCoreSystem mono(cfg, workloads::mix("ILP1", 32));
    EXPECT_DOUBLE_EQ(sharded.nameplatePeakPower(),
                     mono.nameplatePeakPower());
}

/**
 * The determinism contract at the window level: every counter, every
 * power double and the event count are bit-identical across shard
 * counts (down to one lane per shard) and thread counts, through
 * several windows with DVFS changes in between.
 */
TEST(ShardedSystem, WindowStatsBitIdenticalAcrossShardsAndThreads)
{
    const SimConfig cfg = config(32);
    const auto run = [&](int shards, int threads) {
        ShardedSystem sys(cfg, workloads::mix("MIX2", 32), shards,
                          threads);
        std::string log;
        std::vector<std::size_t> levels(32);
        std::vector<double> credit(32);
        for (int w = 0; w < 4; ++w) {
            log += enginetest::serialize(
                sys.runWindow(cfg.profileWindow));
            // Actuate a different operating point and credit every
            // window.
            for (std::size_t i = 0; i < 32; ++i) {
                levels[i] = (i + static_cast<std::size_t>(w)) % 10;
                credit[i] = 1000.0 * static_cast<double>(i + 1) + w;
            }
            sys.applyLevels(levels,
                            static_cast<std::size_t>(9 - 2 * (w % 4)));
            sys.creditInstructions(credit);
        }
        log += enginetest::serialize(sys.runWindow(cfg.profileWindow));
        log += std::to_string(sys.eventsProcessed());
        return log;
    };

    const std::string reference = run(1, 1);
    for (const auto &[shards, threads] :
         std::vector<std::pair<int, int>>{
             {1, 8}, {4, 1}, {4, 8}, {16, 1}, {16, 8}, {32, 3}}) {
        EXPECT_EQ(reference, run(shards, threads))
            << "shards=" << shards << " threads=" << threads;
    }
}

/**
 * A shard's event gauge is the sum over its lanes' own queues, so the
 * gauges must add up to eventsProcessed() for every grouping of the
 * lanes, down to one lane per shard.
 */
TEST(ShardedSystem, ShardEventGaugesSumToEventsProcessed)
{
    const SimConfig cfg = config(32);
    for (int shards : {1, 4, 32}) {
        telemetry::Registry reg;
        ShardedSystem sys(cfg, workloads::mix("MIX2", 32), shards, 1,
                          &reg, "/machine/3");
        for (int w = 0; w < 3; ++w)
            sys.runWindow(cfg.profileWindow);
        double gauge_sum = 0.0;
        for (int s = 0; s < sys.numShards(); ++s)
            gauge_sum += reg.gauge("/machine/3/engine/shard/" +
                                   std::to_string(s) + "/events")
                             .value();
        EXPECT_GT(sys.eventsProcessed(), 0u);
        EXPECT_EQ(gauge_sum, static_cast<double>(sys.eventsProcessed()))
            << "shards=" << shards;
        EXPECT_EQ(reg.counter("/machine/3/engine/windows").value(), 3u);
        // Everything the engine publishes stays under its prefix.
        EXPECT_EQ(reg.query("/machine/3/engine").size(),
                  reg.snapshot().size());
    }
}

TEST(ShardedSystem, SwapAppRebindsAcrossShardBoundaries)
{
    const SimConfig cfg = config(8);
    ShardedSystem sys(cfg, workloads::mix("MIX1", 8), 4, 2);
    const double instr_before =
        sys.runWindow(cfg.profileWindow).cores[5].retired;

    const std::string before = sys.appOf(5).name();
    sys.swapApp(5, workloads::spec("swim"));
    EXPECT_EQ(sys.appOf(5).name(), "swim");
    EXPECT_NE(before, "swim");

    // The rebound core keeps simulating with the new profile.
    EXPECT_GT(sys.runWindow(cfg.profileWindow).cores[5].retired,
              instr_before);
}

TEST(ShardedSystem, SkewedInterleaveFallsBackToModuloMapping)
{
    SimConfig cfg = config(8);
    cfg.numControllers = 2;
    cfg.interleave = InterleaveMode::Skewed;
    ShardedSystem sys(cfg, workloads::mix("MIX1", 8), 2, 1);
    // One-hot modulo rows regardless of the skew request.
    for (int i = 0; i < 8; ++i) {
        const std::vector<double> &row = sys.accessProbabilities(i);
        ASSERT_EQ(row.size(), 2u);
        EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>(i % 2)], 1.0);
        EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>((i + 1) % 2)],
                         0.0);
    }
}

} // namespace
} // namespace fastcap
