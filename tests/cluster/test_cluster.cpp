/**
 * @file
 * Tests for the rack-scale Cluster: bit-identical output across
 * machine-thread counts and engine layouts, per-epoch rack budget
 * conservation, machine failure and re-convergence, and dispatch
 * determinism of the cluster-wide trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "csv_string.hpp"
#include "harness/peak_power.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"

namespace fastcap {
namespace {

ClusterConfig
smallRack()
{
    ClusterConfig cfg;
    cfg.machines = 4;
    cfg.machine = SimConfig::defaultConfig(16);
    cfg.workload = "idle";
    cfg.rackBudgetFraction = 0.5;
    cfg.trace = "gen:flash,rate=300,horizon=0.2,max-cores=8,"
                "apps=swim+applu,flash-start=0.005,"
                "flash-duration=0.02,flash-factor=6,seed=11";
    cfg.maxEpochs = 8;
    cfg.machineThreads = 1;
    return cfg;
}

/** Every numeric field of a rack run, bit-exact. */
std::string
serialize(const ClusterResult &res)
{
    std::string s;
    const auto bits = [&s](double v) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64 " ",
                      doubleBits(v));
        s += buf;
    };
    bits(res.installedPeak);
    s += std::to_string(res.dispatched) + " " +
        std::to_string(res.completed) + " " +
        std::to_string(res.dropped) + " " +
        std::to_string(res.lost) + "\n";
    for (const ClusterEpochRecord &e : res.epochs) {
        s += std::to_string(e.epoch) + " ";
        bits(e.startTime);
        bits(e.rackBudget);
        bits(e.usableBudget);
        bits(e.assignedTotal);
        bits(e.totalPower);
        s += std::to_string(e.aliveMachines) + " " +
            std::to_string(e.busyCores) + " " +
            std::to_string(e.pendingJobs) + " " +
            std::to_string(e.dropped) + " " +
            std::to_string(e.lost) + " ";
        for (Watts w : e.machineBudget)
            bits(w);
        for (Watts w : e.machinePower)
            bits(w);
        s += '\n';
    }
    return s;
}

TEST(Cluster, BitIdenticalAcrossMachineThreadsAndShards)
{
    clearPeakPowerCache();
    ClusterConfig base = smallRack();
    const ClusterResult ref = Cluster(base).run();
    const std::string ref_bits = serialize(ref);
    EXPECT_GT(ref.dispatched, 0u);

    for (const auto &[threads, shards, shard_threads] :
         std::vector<std::tuple<int, int, int>>{
             {8, 0, 1}, {0, 0, 1}, {1, 4, 2}, {8, 4, 2}}) {
        ClusterConfig cfg = smallRack();
        cfg.machineThreads = threads;
        cfg.shards = shards;
        cfg.shardThreads = shard_threads;
        // A forced shard count selects the sharded engine — a
        // different contention model with its own measured peak — so
        // only compare layouts against a baseline on the same engine.
        if (shards != 0) {
            ClusterConfig serial = smallRack();
            serial.shards = shards;
            serial.shardThreads = 1;
            serial.machineThreads = 1;
            EXPECT_EQ(serialize(Cluster(serial).run()),
                      serialize(Cluster(cfg).run()))
                << "threads=" << threads << " shards=" << shards;
        } else {
            EXPECT_EQ(ref_bits, serialize(Cluster(cfg).run()))
                << "threads=" << threads;
        }
    }
}

TEST(Cluster, ArbiterConservesRackBudgetEveryEpoch)
{
    clearPeakPowerCache();
    ClusterConfig cfg = smallRack();
    cfg.failures = {{2, 3, 6}};
    const ClusterResult res = Cluster(cfg).run();
    ASSERT_EQ(res.epochs.size(), 8u);
    for (const ClusterEpochRecord &e : res.epochs) {
        // Conservation: grants sum to exactly the usable budget...
        EXPECT_NEAR(e.assignedTotal, e.usableBudget,
                    1e-6 * std::max(e.usableBudget, 1.0))
            << "epoch " << e.epoch;
        // ...and no machine exceeds its peak share of the rack.
        const Watts peak =
            res.installedPeak / static_cast<double>(cfg.machines);
        for (std::size_t m = 0; m < e.machineBudget.size(); ++m)
            EXPECT_LE(e.machineBudget[m], peak + 1e-9)
                << "epoch " << e.epoch << " machine " << m;
    }
}

TEST(Cluster, FailureKillsAndRestoreReconverges)
{
    clearPeakPowerCache();
    ClusterConfig cfg = smallRack();
    cfg.failures = {{1, 2, 5}};
    Cluster cluster(cfg);
    const ClusterResult res = cluster.run();

    const Watts peak =
        res.installedPeak / static_cast<double>(cfg.machines);
    for (const ClusterEpochRecord &e : res.epochs) {
        const bool down = e.epoch >= 2 && e.epoch < 5;
        EXPECT_EQ(e.aliveMachines, down ? 3 : 4)
            << "epoch " << e.epoch;
        if (down) {
            // The dead machine gets no watts and burns none; its
            // share flows to the survivors.
            EXPECT_EQ(e.machineBudget[1], 0.0) << "epoch " << e.epoch;
            EXPECT_EQ(e.machinePower[1], 0.0) << "epoch " << e.epoch;
            EXPECT_NEAR(e.usableBudget,
                        std::min(e.rackBudget, 3.0 * peak),
                        1e-9 * res.installedPeak);
        } else {
            EXPECT_NEAR(e.usableBudget,
                        std::min(e.rackBudget, 4.0 * peak),
                        1e-9 * res.installedPeak);
        }
    }
    // Once restored, the machine is arbitrated for again.
    EXPECT_GT(res.epochs.back().machineBudget[1], 0.0);
    EXPECT_GT(res.epochs.back().machinePower[1], 0.0);
}

TEST(Cluster, RestoreEpochStaysWithinUsableBudget)
{
    // A flash crowd on 8 x 128 cores, machine 3 down over epochs 2-3:
    // the restored machine claims its full peak in epoch 4, like a new
    // one, so its grant covers its floor power and the rack stays
    // within what it may use.
    clearPeakPowerCache();
    ClusterConfig cfg;
    cfg.machines = 8;
    cfg.machine = SimConfig::defaultConfig(128);
    cfg.rackBudgetFraction = 0.5;
    cfg.maxEpochs = 6;
    cfg.trace = "gen:flash,rate=40000,horizon=0.05,max-cores=128,"
                "flash-start=0.005,flash-duration=0.03,flash-factor=8,"
                "seed=3";
    cfg.failures = {{3, 2, 4}};
    Logger::global().level(LogLevel::Silent);
    const ClusterResult res = Cluster(cfg).run();
    Logger::global().level(LogLevel::Warn);
    ASSERT_EQ(res.epochs.size(), 6u);
    const ClusterEpochRecord &restored = res.epochs[4];
    EXPECT_EQ(restored.aliveMachines, 8);
    EXPECT_LE(restored.totalPower, 1.005 * restored.usableBudget);
}

TEST(Cluster, FailureLossAccountingIsConsistent)
{
    clearPeakPowerCache();
    ClusterConfig cfg = smallRack();
    cfg.failures = {{0, 4, -1}}; // permanent
    const ClusterResult res = Cluster(cfg).run();
    // Every dispatched job is completed, shed, lost to the failure,
    // or still in flight on a live machine at the end of the run.
    EXPECT_GE(res.dispatched,
              res.completed + res.dropped + res.lost);
    std::size_t lost_in_epochs = 0;
    for (const ClusterEpochRecord &e : res.epochs)
        lost_in_epochs += e.lost;
    EXPECT_EQ(lost_in_epochs, res.lost);
}

TEST(Cluster, WholeRackDownLosesArrivals)
{
    clearPeakPowerCache();
    ClusterConfig cfg = smallRack();
    cfg.machines = 2;
    cfg.failures = {{0, 1, -1}, {1, 1, -1}};
    const ClusterResult res = Cluster(cfg).run();
    EXPECT_EQ(res.epochs.back().aliveMachines, 0);
    // Arrivals after the outage have nowhere to go.
    EXPECT_GT(res.lost, 0u);
    // With nobody alive, nothing is assigned and nothing is usable.
    EXPECT_EQ(res.epochs.back().usableBudget, 0.0);
    EXPECT_EQ(res.epochs.back().assignedTotal, 0.0);
}

TEST(Cluster, RackScheduleMovesTheBudget)
{
    clearPeakPowerCache();
    ClusterConfig cfg = smallRack();
    cfg.trace.clear();
    cfg.maxEpochs = 4;
    // Default epoch length is 5 ms: drop the rack budget from epoch 2
    // on (t >= 10 ms).
    cfg.rackSchedule = BudgetSchedule::parse("step@0:0.8;step@0.01:0.3");
    const ClusterResult res = Cluster(cfg).run();
    EXPECT_NEAR(res.epochs[0].rackBudget, 0.8 * res.installedPeak,
                1e-9 * res.installedPeak);
    EXPECT_NEAR(res.epochs[3].rackBudget, 0.3 * res.installedPeak,
                1e-9 * res.installedPeak);
    EXPECT_LT(res.epochs[3].assignedTotal,
              res.epochs[0].assignedTotal);
}

TEST(Cluster, CsvIsDeterministicAcrossMachineThreads)
{
    clearPeakPowerCache();
    ClusterConfig cfg = smallRack();
    cfg.failures = {{3, 2, 6}};
    const std::string serial = csvString(Cluster(cfg).run());
    cfg.machineThreads = 8;
    const std::string parallel = csvString(Cluster(cfg).run());
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("epoch,rack_budget_w"), std::string::npos);
}

TEST(Cluster, ValidatesConfiguration)
{
    ClusterConfig cfg = smallRack();
    cfg.machines = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = smallRack();
    cfg.floorFraction = 1.0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = smallRack();
    cfg.failures = {{9, 0, -1}};
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = smallRack();
    cfg.failures = {{0, 5, 5}};
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = smallRack();
    cfg.policy = "NotAPolicy";
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Cluster, RejectsNanFractions)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    ClusterConfig cfg = smallRack();
    cfg.rackBudgetFraction = nan;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = smallRack();
    cfg.floorFraction = nan;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = smallRack();
    cfg.floorFraction = 0.0; // the closed end stays valid
    EXPECT_NO_THROW(cfg.validate());
}

} // namespace
} // namespace fastcap
