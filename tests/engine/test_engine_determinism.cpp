/**
 * @file
 * The sharded engine's determinism contract at full-experiment and
 * full-sweep scale, mirroring the PR 2 sweep contract: emitted
 * CSV/JSON and every epoch record are byte-identical at shards
 * 1/4/16 x threads 1/8. Scenarios (budget schedule + mid-run job
 * churn) run during the compared experiments, so the contract covers
 * swapApp and budget sampling across shard boundaries too.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "csv_string.hpp"
#include "engine_test_util.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "policies/registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine/sharded_system.hpp"
#include "sim/system.hpp"
#include "util/logging.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

const std::vector<std::pair<int, int>> kShardThreadMatrix = {
    {1, 1}, {1, 8}, {4, 1}, {4, 8}, {16, 1}, {16, 8}};

TEST(EngineDeterminism, ScenarioExperimentBitIdenticalAcrossMatrix)
{
    SimConfig cfg = SimConfig::defaultConfig(16);
    cfg.seed = 0x5eedc0deULL;

    const auto run = [&](int shards, int threads) {
        ExperimentConfig ecfg;
        ecfg.budgetFraction = 0.9;
        ecfg.targetInstructions = 1e12; // scenario-bounded run
        ecfg.maxEpochs = 10;
        ecfg.shards = shards;
        ecfg.shardThreads = threads;
        ecfg.scenario = Scenario::parse(
            "name=churn|budget=step@0:0.9;step@0.02:0.6"
            "|workload=0.015:3:idle;0.03:7:swim");
        ExperimentResult res =
            runWorkload("MIX1", "FastCap", ecfg, cfg);
        return enginetest::serialize(res);
    };

    const std::string reference = run(1, 1);
    ASSERT_FALSE(reference.empty());
    for (const auto &[shards, threads] : kShardThreadMatrix)
        EXPECT_EQ(reference, run(shards, threads))
            << "shards=" << shards << " threads=" << threads;
}

TEST(EngineDeterminism, SweepCsvAndJsonByteIdenticalAcrossMatrix)
{
    const auto sweep = [&](int shards, int shard_threads,
                           int pool_threads) {
        SweepGrid grid;
        grid.configs = SweepGrid::configsForCores({16});
        grid.workloads = {"ILP1", "MEM1"};
        grid.policies = {"FastCap", "Uncapped"};
        grid.budgetFractions = {0.6};
        grid.targetInstructions = 1e6;
        grid.shards = shards;
        grid.shardThreads = shard_threads;
        SweepRunner runner(grid, pool_threads);
        return csvString(runner.run());
    };

    const std::string reference = sweep(1, 1, 1);
    ASSERT_FALSE(reference.empty());
    for (const auto &[shards, threads] : kShardThreadMatrix)
        EXPECT_EQ(reference, sweep(shards, threads, 2))
            << "shards=" << shards << " threads=" << threads;
}

/**
 * The auto rule must leave small systems on the monolithic engine:
 * a shards=0 run is bit-identical to a pre-engine run (the golden
 * CSV tier enforces the same property at the tool level).
 */
TEST(EngineDeterminism, AutoKeepsSmallSystemsOnMonolithicEngine)
{
    SimConfig cfg = SimConfig::defaultConfig(8);
    cfg.seed = 0x00c0ffeeULL;

    ExperimentConfig ecfg;
    ecfg.budgetFraction = 0.7;
    ecfg.targetInstructions = 1e6;

    auto policy = makePolicy("FastCap");
    ExperimentRunner runner(cfg, workloads::mix("MIX1", 8), *policy,
                            ecfg);
    EXPECT_NE(dynamic_cast<const ManyCoreSystem *>(&runner.system()),
              nullptr);

    ExperimentConfig forced = ecfg;
    forced.shards = 2;
    auto policy2 = makePolicy("FastCap");
    ExperimentRunner sharded(cfg, workloads::mix("MIX1", 8), *policy2,
                             forced);
    EXPECT_NE(dynamic_cast<const ShardedSystem *>(&sharded.system()),
              nullptr);
}

} // namespace
} // namespace fastcap
