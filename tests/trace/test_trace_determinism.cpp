/**
 * @file
 * Trace replay inherits the engine determinism contract: replaying
 * the same trace — a committed corpus file or a gen: spec — yields a
 * bit-identical experiment across shards 1/4/16 x shardThreads 1/8,
 * and a trace-driven sweep's CSV is byte-identical for any worker
 * count. Placement is a pure function of the trace, so not a single
 * double may drift when only the execution engine's partitioning
 * changes.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "../engine/engine_test_util.hpp"
#include "csv_string.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "scenario/scenario.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

const std::vector<std::pair<int, int>> kShardThreadMatrix = {
    {1, 1}, {1, 8}, {4, 1}, {4, 8}, {16, 1}, {16, 8}};

/** Epoch log + replay counters, bit-exact. */
std::string
serializeWithTrace(const ExperimentResult &res)
{
    std::string s = enginetest::serialize(res);
    s += std::to_string(res.trace.arrivals) + ' ';
    s += std::to_string(res.trace.dropped) + ' ';
    s += std::to_string(res.trace.placed) + ' ';
    s += std::to_string(res.trace.completed) + ' ';
    s += std::to_string(res.trace.peakPending) + ' ';
    s += std::to_string(res.trace.peakRunning) + '\n';
    return s;
}

std::string
runTraced(const std::string &trace, int shards, int threads)
{
    SimConfig cfg = SimConfig::defaultConfig(16);
    cfg.seed = 0x7ace5eedULL;

    ExperimentConfig ecfg;
    ecfg.budgetFraction = 0.8;
    ecfg.targetInstructions = 1e12; // trace/epoch-bounded run
    ecfg.maxEpochs = 10;
    ecfg.shards = shards;
    ecfg.shardThreads = threads;
    ecfg.scenario.name = "traced";
    ecfg.scenario.trace = trace;
    const ExperimentResult res =
        runWorkload("MIX1", "FastCap", ecfg, cfg);
    EXPECT_TRUE(res.traceDriven);
    EXPECT_GT(res.trace.arrivals, 0u);
    return serializeWithTrace(res);
}

TEST(TraceDeterminism, GeneratedTraceBitIdenticalAcrossMatrix)
{
    const std::string trace =
        "gen:mmpp,rate=400,burst-factor=10,horizon=0.1,max-cores=2,"
        "seed=21";
    const std::string reference = runTraced(trace, 1, 1);
    ASSERT_FALSE(reference.empty());
    for (const auto &[shards, threads] : kShardThreadMatrix)
        EXPECT_EQ(reference, runTraced(trace, shards, threads))
            << "shards=" << shards << " threads=" << threads;
}

TEST(TraceDeterminism, CorpusFileBitIdenticalAcrossMatrix)
{
    const std::string trace =
        std::string(FASTCAP_TRACES_DIR) + "/mmpp_bursty.trace";
    const std::string reference = runTraced(trace, 1, 1);
    ASSERT_FALSE(reference.empty());
    for (const auto &[shards, threads] : kShardThreadMatrix)
        EXPECT_EQ(reference, runTraced(trace, shards, threads))
            << "shards=" << shards << " threads=" << threads;
}

TEST(TraceDeterminism, TraceDrivenSweepCsvByteIdenticalAcrossThreads)
{
    const auto sweep = [&](int shards, int shard_threads,
                           int pool_threads) {
        SweepGrid grid;
        grid.configs = SweepGrid::configsForCores({16});
        grid.workloads = {"MIX1"};
        grid.policies = {"FastCap", "Uncapped"};
        grid.budgetFractions = {0.7};
        grid.targetInstructions = 1e12;
        grid.maxEpochs = 8;
        grid.shards = shards;
        grid.shardThreads = shard_threads;
        Scenario sc;
        sc.name = "ptrace";
        sc.trace = std::string(FASTCAP_TRACES_DIR) +
            "/poisson_light.trace";
        Scenario gen;
        gen.name = "gtrace";
        gen.trace = "gen:poisson,rate=200,horizon=0.05,seed=4";
        grid.scenarios = {sc, gen};
        SweepRunner runner(grid, pool_threads);
        return csvString(runner.run());
    };

    const std::string reference = sweep(1, 1, 1);
    ASSERT_FALSE(reference.empty());
    EXPECT_NE(reference.find("ptrace"), std::string::npos);
    EXPECT_NE(reference.find("gtrace"), std::string::npos);
    EXPECT_EQ(reference, sweep(1, 1, 2));
    EXPECT_EQ(reference, sweep(4, 8, 2));
    EXPECT_EQ(reference, sweep(16, 1, 4));
}

} // namespace
} // namespace fastcap
