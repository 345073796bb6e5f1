/**
 * @file
 * /proc-style introspection: after an instrumented run, the registry
 * the run was handed answers the paths the CLI dumps — per-core
 * frequency, engine and pool state, arbiter grants, solver class
 * counts — and a run without one publishes nothing anywhere.
 */

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "harness/experiment.hpp"
#include "telemetry/registry.hpp"

using namespace fastcap;
using telemetry::Registry;

namespace {

/** Run a small single-machine experiment publishing into `reg`. */
void
runInstrumentedSim(Registry *reg)
{
    ExperimentConfig ecfg;
    ecfg.budgetFraction = 0.6;
    ecfg.targetInstructions = 5e6;
    // Force the sharded engine so /engine/* instrumentation fires
    // (8 cores would otherwise auto-select the monolithic engine).
    ecfg.shards = 2;
    ecfg.shardThreads = 2;
    ecfg.registry = reg;
    const SimConfig scfg = SimConfig::defaultConfig(8);
    runWorkload("MIX1", "FastCap", ecfg, scfg);
}

void
runInstrumentedCluster(Registry *reg)
{
    ClusterConfig cfg;
    cfg.machines = 2;
    cfg.machine = SimConfig::defaultConfig(8);
    cfg.maxEpochs = 3;
    cfg.registry = reg;
    Cluster cluster(cfg);
    cluster.run();
}

/** The deterministic tree: every metric outside /wall/. */
std::vector<std::pair<std::string, std::string>>
deterministicTree(const Registry &reg)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (auto &kv : reg.snapshot())
        if (kv.first.compare(0, 6, "/wall/") != 0)
            out.push_back(std::move(kv));
    return out;
}

} // namespace

TEST(Introspect, SolverAndMachinePaths)
{
    Registry reg;
    runInstrumentedSim(&reg);

    // Solver subtree: non-empty, with a positive solve count.
    const auto solver = reg.query("/solver");
    EXPECT_FALSE(solver.empty());
    const auto solves = reg.query("/solver/solves");
    ASSERT_EQ(solves.size(), 1u);
    EXPECT_GT(std::strtoull(solves[0].second.c_str(), nullptr, 10),
              0u);
    ASSERT_EQ(reg.query("/solver/classes").size(), 1u);

    // Per-core frequency gauges exist and carry a plausible value.
    const auto freq = reg.query("/machine/0/core/0/freq");
    ASSERT_EQ(freq.size(), 1u);
    EXPECT_GT(std::strtod(freq[0].second.c_str(), nullptr), 0.0);
    const auto cores = reg.query("/machine/0/core");
    EXPECT_EQ(cores.size(), 8u);

    // Engine instrumentation fired under the machine's prefix, and
    // the shard pool's wall-clock metrics under /wall/.
    EXPECT_FALSE(reg.query("/machine/0/engine/windows").empty());
    EXPECT_EQ(reg.query("/machine/0/engine/shard").size(), 2u);
    EXPECT_TRUE(reg.query("/engine").empty());
    EXPECT_FALSE(reg.query("/wall/pool/tasks").empty());
    EXPECT_TRUE(reg.query("/pool").empty());
}

TEST(Introspect, RunsPublishOnlyIntoTheirOwnRegistry)
{
    // No process-wide state: a run without a registry publishes
    // nothing anywhere, and two instrumented runs of the same
    // configuration build the same deterministic tree.
    Registry first;
    runInstrumentedSim(&first);
    const auto tree = deterministicTree(first);
    ASSERT_FALSE(tree.empty());

    runInstrumentedSim(nullptr);
    EXPECT_EQ(deterministicTree(first), tree);

    Registry second;
    runInstrumentedSim(&second);
    EXPECT_EQ(deterministicTree(second), tree);
    EXPECT_EQ(deterministicTree(first), tree);
}

TEST(Introspect, ClusterArbiterPaths)
{
    Registry reg;
    runInstrumentedCluster(&reg);

    const auto grants = reg.query("/cluster/arbiter/grants");
    ASSERT_EQ(grants.size(), 1u);
    // 2 machines x 3 epochs = 6 grants.
    EXPECT_EQ(grants[0].second, "6");
    const auto rounds = reg.query("/cluster/arbiter/rounds");
    ASSERT_EQ(rounds.size(), 1u);
    EXPECT_EQ(rounds[0].second, "3");
    EXPECT_EQ(reg.query("/cluster/arbiter/grant").size(), 2u);

    // Both machines instrumented their own subtree.
    EXPECT_FALSE(reg.query("/machine/0").empty());
    EXPECT_FALSE(reg.query("/machine/1").empty());
}

TEST(Introspect, TraceMetricsSurviveAFailAndRestore)
{
    // Machine 0 fails at epoch 2 and is restored at epoch 5; the
    // trace keeps both machines shedding before and after. The
    // registry must count what the restored machine sheds and places
    // as it counted what the original did.
    Registry reg;
    ClusterConfig cfg;
    cfg.machines = 2;
    cfg.machine = SimConfig::defaultConfig(16);
    cfg.trace = "gen:poisson,rate=3000,horizon=0.2,seed=3";
    cfg.maxEpochs = 30;
    cfg.failures = {{0, 2, 5}};
    cfg.registry = &reg;
    Cluster cluster(cfg);
    const ClusterResult res = cluster.run();

    ASSERT_GT(res.dropped, 0u);
    ASSERT_GT(res.lost, 0u);
    EXPECT_EQ(reg.counter("/trace/shed").value(), res.dropped);
    // Every completed job was placed on a core first.
    EXPECT_GE(reg.counter("/trace/placed").value(), res.completed);
}
