/**
 * @file
 * The observe-only contract, enforced end to end in-process: result
 * CSVs are byte-identical with and without a metrics registry and a
 * tracer attached, at every shard / thread / machine-thread count.
 * This is the library-level counterpart of the telemetry_cli_cmp
 * gate.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "csv_string.hpp"
#include "harness/sweep.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/tracer.hpp"

using namespace fastcap;

namespace {

/** The one-point grid every sweep-side run executes. */
SweepGrid
onePointGrid(int shards, int shard_threads)
{
    SweepGrid grid;
    grid.configs = SweepGrid::configsForCores({16});
    grid.workloads = {"MIX1"};
    grid.policies = {"FastCap"};
    grid.budgetFractions = {0.6};
    grid.targetInstructions = 1e6;
    grid.shards = shards;
    grid.shardThreads = shard_threads;
    return grid;
}

std::string
sweepCsv(int shards, int shard_threads)
{
    return csvString(
        SweepRunner(onePointGrid(shards, shard_threads), 2).run());
}

/**
 * The grid's single point with a registry and a tracer attached,
 * configured as SweepRunner configures its runs (sweeps themselves
 * take no registry), rendered as the same one-row sweep CSV.
 */
std::string
instrumentedSweepCsv(int shards, int shard_threads)
{
    SweepResult res;
    res.grid = onePointGrid(shards, shard_threads);
    SweepRun run;
    run.point = res.grid.point(0);
    SimConfig sim = res.grid.configs[run.point.configIdx].sim;
    sim.seed = run.point.seed;

    telemetry::Registry registry;
    telemetry::Tracer tracer;
    ExperimentConfig ecfg;
    ecfg.budgetFraction = run.point.budgetFraction;
    ecfg.targetInstructions = res.grid.targetInstructions;
    ecfg.maxEpochs = res.grid.maxEpochs;
    ecfg.solver = res.grid.solver;
    ecfg.shards = shards;
    ecfg.shardThreads = shard_threads;
    ecfg.registry = &registry;
    ecfg.tracer = &tracer;
    run.result =
        runWorkload(run.point.workload, run.point.policy, ecfg, sim);
    EXPECT_FALSE(registry.snapshot().empty());
    res.runs.push_back(std::move(run));
    return csvString(res);
}

std::string
clusterCsv(bool instrumented, int machine_threads)
{
    telemetry::Registry registry;
    telemetry::Tracer tracer;
    ClusterConfig cfg;
    cfg.machines = 3;
    cfg.machine = SimConfig::defaultConfig(8);
    cfg.trace = "gen:poisson,rate=200,horizon=0.1,seed=9";
    cfg.maxEpochs = 5;
    cfg.machineThreads = machine_threads;
    cfg.failures = {{1, 2, 4}};
    if (instrumented) {
        cfg.registry = &registry;
        cfg.tracer = &tracer;
    }
    Cluster cluster(cfg);
    const ClusterResult res = cluster.run();
    return csvString(res);
}

} // namespace

TEST(TelemetryByteIdentity, SweepAcrossShardsAndThreads)
{
    // Every (instrumented, shards, threads) combination must emit the
    // same bytes: telemetry is observe-only AND the engine is
    // partition-independent, so one reference covers the whole grid.
    const std::string reference = sweepCsv(1, 1);
    ASSERT_FALSE(reference.empty());
    for (const int shards : {1, 16}) {
        for (const int threads : {1, 8}) {
            EXPECT_EQ(sweepCsv(shards, threads), reference)
                << "uninstrumented, shards " << shards << ", threads "
                << threads;
            EXPECT_EQ(instrumentedSweepCsv(shards, threads), reference)
                << "instrumented, shards " << shards << ", threads "
                << threads;
        }
    }
}

TEST(TelemetryByteIdentity, ClusterAcrossMachineThreads)
{
    const std::string reference = clusterCsv(false, 1);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(clusterCsv(true, 1), reference);
    EXPECT_EQ(clusterCsv(true, 4), reference);
    EXPECT_EQ(clusterCsv(false, 4), reference);
}
