/**
 * @file
 * Tests for the parallel sweep subsystem: SplitMix64 seed derivation,
 * cross-product enumeration, grid validation, and the determinism
 * contract (byte-identical CSV for any worker count).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "csv_string.hpp"
#include "harness/sweep.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

TEST(SplitMix64, MatchesReferenceVectors)
{
    // Reference outputs of Vigna's splitmix64.c for seed 0 and for
    // the simulator's default seed.
    EXPECT_EQ(splitmix64(0, 0), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(splitmix64(0, 1), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(splitmix64(0, 2), 0x06c45d188009454fULL);
    EXPECT_EQ(splitmix64(0x5eedf00dULL, 0), 0x48f04efcd891b5edULL);
    EXPECT_EQ(splitmix64(0x5eedf00dULL, 1), 0x94552dd5153eff37ULL);
    EXPECT_EQ(splitmix64(0x5eedf00dULL, 2), 0x1c8c93945c88d10eULL);
}

TEST(SplitMix64, DerivedRunSeedsAreDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 4096; ++i)
        seen.insert(splitmix64(0x5eedf00dULL, i));
    EXPECT_EQ(seen.size(), 4096u);
}

SweepGrid
smallGrid()
{
    SweepGrid grid;
    grid.configs = SweepGrid::configsForCores({4});
    grid.workloads = {"ILP1", "MEM1"};
    grid.policies = {"FastCap", "Uncapped"};
    grid.budgetFractions = {0.6};
    grid.targetInstructions = 3e5;
    grid.maxEpochs = 50;
    return grid;
}

TEST(SweepGrid, EnumeratesTheFullCrossProduct)
{
    SweepGrid grid;
    grid.configs = SweepGrid::configsForCores({4, 8});
    grid.workloads = {"ILP1", "MEM1", "MIX2"};
    grid.policies = {"FastCap", "Eql-Pwr"};
    grid.budgetFractions = {0.5, 0.7};
    grid.replicates = 2;
    ASSERT_EQ(grid.runCount(), 2u * 3u * 2u * 2u * 2u);

    // Every index decodes to in-range coordinates; runIndexOf is the
    // exact inverse; the full coordinate set is covered exactly once.
    std::set<std::string> seen;
    for (std::size_t i = 0; i < grid.runCount(); ++i) {
        const SweepPoint p = grid.point(i);
        EXPECT_EQ(p.runIndex, i);
        EXPECT_EQ(grid.runIndexOf(p.configIdx, p.workloadIdx,
                                  p.policyIdx, p.budgetIdx,
                                  p.replicate),
                  i);
        EXPECT_EQ(p.config, grid.configs[p.configIdx].name);
        EXPECT_EQ(p.workload, grid.workloads[p.workloadIdx]);
        EXPECT_EQ(p.policy, grid.policies[p.policyIdx]);
        EXPECT_DOUBLE_EQ(p.budgetFraction,
                         grid.budgetFractions[p.budgetIdx]);
        EXPECT_EQ(p.seed, splitmix64(grid.baseSeed, i));
        seen.insert(p.config + "|" + p.workload + "|" + p.policy +
                    "|" + std::to_string(p.budgetIdx) + "|" +
                    std::to_string(p.replicate));
    }
    EXPECT_EQ(seen.size(), grid.runCount());
}

TEST(SweepGrid, PairedSeedsCollapsePolicyAndBudgetAxes)
{
    SweepGrid grid = smallGrid();
    grid.budgetFractions = {0.5, 0.7};
    grid.replicates = 2;
    grid.pairSeedsAcrossPolicies = true;

    for (std::size_t i = 0; i < grid.runCount(); ++i) {
        const SweepPoint p = grid.point(i);
        // Same (config, workload, replicate), first policy/budget:
        // must carry the identical seed.
        const SweepPoint paired = grid.point(grid.runIndexOf(
            p.configIdx, p.workloadIdx, 0, 0, p.replicate));
        EXPECT_EQ(p.seed, paired.seed) << "run " << i;
    }
    // Different workloads or replicates still differ.
    EXPECT_NE(grid.point(0).seed,
              grid.point(grid.runIndexOf(0, 1, 0, 0, 0)).seed);
    EXPECT_NE(grid.point(0).seed,
              grid.point(grid.runIndexOf(0, 0, 0, 0, 1)).seed);
}

TEST(SweepRunner, PairedSeedsGiveBaselineTheSameTrace)
{
    SweepGrid grid = smallGrid();
    grid.pairSeedsAcrossPolicies = true;
    const SweepResult sw = SweepRunner(grid, 4).run();
    // Uncapped and FastCap runs of the same workload used one seed.
    const std::size_t w = grid.workloadIndex("ILP1");
    EXPECT_EQ(sw.at(0, w, grid.policyIndex("FastCap"), 0).point.seed,
              sw.at(0, w, grid.policyIndex("Uncapped"), 0).point.seed);
}

TEST(SweepGrid, ReplicatesAreInnermost)
{
    SweepGrid grid = smallGrid();
    grid.replicates = 3;
    const SweepPoint a = grid.point(0);
    const SweepPoint b = grid.point(1);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.replicate, 0);
    EXPECT_EQ(b.replicate, 1);
    EXPECT_NE(a.seed, b.seed);
}

std::string jsonString(const SweepResult &sw); // defined below

/** Two-scenario axis: a budget drop and a sinusoid. */
std::vector<Scenario>
twoScenarios()
{
    Scenario drop;
    drop.name = "drop";
    drop.budget.addStep(0.0, 0.9);
    drop.budget.addStep(0.01, 0.5);
    Scenario wave;
    wave.name = "wave";
    wave.budget.addSine(0.0, 0.7, 0.1, 0.02);
    return {drop, wave};
}

TEST(SweepGrid, ScenarioAxisEntersTheCrossProduct)
{
    SweepGrid grid = smallGrid();
    ASSERT_EQ(grid.scenarioCount(), 1u);
    EXPECT_FALSE(grid.hasScenarioAxis());
    EXPECT_EQ(grid.scenarioName(0), "constant");

    grid.scenarios = twoScenarios();
    grid.replicates = 2;
    ASSERT_EQ(grid.scenarioCount(), 2u);
    ASSERT_EQ(grid.runCount(), 1u * 2u * 2u * 2u * 1u * 2u);

    std::set<std::string> seen;
    for (std::size_t i = 0; i < grid.runCount(); ++i) {
        const SweepPoint p = grid.point(i);
        EXPECT_EQ(p.runIndex, i);
        EXPECT_EQ(grid.runIndexOf(p.configIdx, p.workloadIdx,
                                  p.scenarioIdx, p.policyIdx,
                                  p.budgetIdx, p.replicate),
                  i);
        EXPECT_EQ(p.scenario,
                  grid.scenarios[p.scenarioIdx].name);
        seen.insert(p.workload + "|" + p.scenario + "|" + p.policy +
                    "|" + std::to_string(p.replicate));
    }
    EXPECT_EQ(seen.size(), grid.runCount());
    // The scenario axis sits between workloads and policies.
    EXPECT_EQ(grid.point(0).scenario, "drop");
    const SweepPoint q =
        grid.point(grid.runIndexOf(0, 0, 1, 0, 0, 0));
    EXPECT_EQ(q.scenario, "wave");
    EXPECT_EQ(q.workload, grid.point(0).workload);
}

TEST(SweepGrid, WithoutScenarioAxisIndicesAndSeedsAreUnchanged)
{
    // The backward-compatibility contract: a grid that does not use
    // the scenario axis enumerates and seeds exactly as before the
    // axis existed.
    SweepGrid grid = smallGrid();
    grid.budgetFractions = {0.5, 0.7};
    grid.replicates = 2;
    const auto reps = static_cast<std::size_t>(grid.replicates);
    for (std::size_t i = 0; i < grid.runCount(); ++i) {
        const SweepPoint p = grid.point(i);
        EXPECT_EQ((((p.configIdx * grid.workloads.size() +
                     p.workloadIdx) *
                        grid.policies.size() +
                    p.policyIdx) *
                       grid.budgetFractions.size() +
                   p.budgetIdx) *
                          reps +
                      static_cast<std::size_t>(p.replicate),
                  i);
        EXPECT_EQ(p.seed, splitmix64(grid.baseSeed, i));
        EXPECT_EQ(p.scenarioIdx, 0u);
        EXPECT_EQ(p.scenario, "constant");
    }

    grid.pairSeedsAcrossPolicies = true;
    for (std::size_t i = 0; i < grid.runCount(); ++i) {
        const SweepPoint p = grid.point(i);
        const std::size_t trace =
            (p.configIdx * grid.workloads.size() + p.workloadIdx) *
                reps +
            static_cast<std::size_t>(p.replicate);
        EXPECT_EQ(p.seed, splitmix64(grid.baseSeed, trace));
    }
}

TEST(SweepGrid, PairedSeedsDistinguishScenarios)
{
    SweepGrid grid = smallGrid();
    grid.scenarios = twoScenarios();
    grid.pairSeedsAcrossPolicies = true;
    // Same trace coordinates, different policy: same seed.
    EXPECT_EQ(grid.point(grid.runIndexOf(0, 0, 0, 0, 0, 0)).seed,
              grid.point(grid.runIndexOf(0, 0, 0, 1, 0, 0)).seed);
    // Different scenario: different seed.
    EXPECT_NE(grid.point(grid.runIndexOf(0, 0, 0, 0, 0, 0)).seed,
              grid.point(grid.runIndexOf(0, 0, 1, 0, 0, 0)).seed);
}

TEST(SweepRunner, ScenarioGridsAreDeterministicAcrossWorkerCounts)
{
    SweepGrid grid = smallGrid();
    grid.targetInstructions = 1e12; // horizon runs, never complete
    grid.maxEpochs = 6;
    grid.scenarios = twoScenarios();
    const std::string csv1 = csvString(SweepRunner(grid, 1).run());
    const std::string csv4 = csvString(SweepRunner(grid, 4).run());
    EXPECT_FALSE(csv1.empty());
    EXPECT_EQ(csv1, csv4);
    // Scenario labels reach the CSV.
    EXPECT_NE(csv1.find(",drop,"), std::string::npos);
    EXPECT_NE(csv1.find(",wave,"), std::string::npos);
}

TEST(SweepResult, ScenarioColumnAppearsOnlyWithTheAxis)
{
    SweepGrid grid = smallGrid();
    grid.workloads = {"ILP1"};
    grid.policies = {"FastCap"};
    const std::string plain = csvString(SweepRunner(grid, 1).run());
    EXPECT_EQ(plain.find("scenario"), std::string::npos)
        << "constant grids must keep the historical CSV header";

    grid.scenarios = twoScenarios();
    grid.targetInstructions = 1e12;
    grid.maxEpochs = 4;
    const SweepResult sw = SweepRunner(grid, 2).run();
    const std::string csv = csvString(sw);
    EXPECT_NE(csv.find("run,config,workload,scenario,policy"),
              std::string::npos);
    const std::string json = jsonString(sw);
    EXPECT_NE(json.find("\"scenario\": \"drop\""),
              std::string::npos);
    // Scenario-axis coordinate access resolves to the right runs.
    EXPECT_EQ(sw.at(0, 0, 1, 0, 0, 0).point.scenario, "wave");
}

TEST(SweepGrid, ValidationCatchesBadGrids)
{
    SweepGrid grid = smallGrid();
    grid.workloads.clear();
    EXPECT_THROW(grid.validate(), FatalError);

    grid = smallGrid();
    grid.policies = {"NoSuchPolicy"};
    EXPECT_THROW(grid.validate(), FatalError);

    grid = smallGrid();
    grid.workloads = {"NoSuchWorkload"};
    EXPECT_THROW(grid.validate(), FatalError);

    grid = smallGrid();
    grid.budgetFractions = {1.7};
    EXPECT_THROW(grid.validate(), FatalError);

    grid = smallGrid();
    grid.replicates = 0;
    EXPECT_THROW(grid.validate(), FatalError);

    // Duplicates would run the same nominal coordinates twice and
    // make name lookups ambiguous.
    grid = smallGrid();
    grid.workloads = {"ILP1", "MEM1", "ILP1"};
    EXPECT_THROW(grid.validate(), FatalError);

    grid = smallGrid();
    grid.policies = {"FastCap", "FastCap"};
    EXPECT_THROW(grid.validate(), FatalError);

    grid = smallGrid();
    grid.configs.push_back(grid.configs.front());
    EXPECT_THROW(grid.validate(), FatalError);

    // Scenario names must be present and unique.
    grid = smallGrid();
    grid.scenarios = twoScenarios();
    grid.scenarios[1].name = "drop";
    EXPECT_THROW(grid.validate(), FatalError);

    grid = smallGrid();
    grid.scenarios = twoScenarios();
    grid.scenarios[0].name.clear();
    EXPECT_THROW(grid.validate(), FatalError);

    // Workload events beyond any config's core count fail before the
    // fan-out, not on a worker thread.
    grid = smallGrid(); // 4-core config
    grid.scenarios = twoScenarios();
    grid.scenarios[0].workload.add(0.01, 9, "idle");
    EXPECT_THROW(grid.validate(), FatalError);

    EXPECT_NO_THROW(smallGrid().validate());

    grid = smallGrid();
    grid.scenarios = twoScenarios();
    EXPECT_NO_THROW(grid.validate());
}

TEST(SweepGrid, LookupByName)
{
    const SweepGrid grid = smallGrid();
    EXPECT_EQ(grid.workloadIndex("MEM1"), 1u);
    EXPECT_EQ(grid.policyIndex("Uncapped"), 1u);
    EXPECT_THROW(grid.workloadIndex("MIX1"), FatalError);
    EXPECT_THROW(grid.policyIndex("Eql-Pwr"), FatalError);
}

TEST(SweepRunner, CsvIsByteIdenticalAcrossWorkerCounts)
{
    // The tentpole determinism contract: same grid, same base seed,
    // byte-identical CSV with 1, 4 and 8 workers.
    const SweepGrid grid = smallGrid();
    const std::string csv1 = csvString(SweepRunner(grid, 1).run());
    const std::string csv4 = csvString(SweepRunner(grid, 4).run());
    const std::string csv8 = csvString(SweepRunner(grid, 8).run());
    EXPECT_FALSE(csv1.empty());
    EXPECT_EQ(csv1, csv4);
    EXPECT_EQ(csv1, csv8);

    // Paired-seed mode upholds the same contract.
    SweepGrid paired = smallGrid();
    paired.pairSeedsAcrossPolicies = true;
    EXPECT_EQ(csvString(SweepRunner(paired, 1).run()),
              csvString(SweepRunner(paired, 8).run()));
}

TEST(SweepRunner, ResultsKeepRunIndexOrderAndCoordinates)
{
    const SweepGrid grid = smallGrid();
    const SweepResult sw = SweepRunner(grid, 4).run();
    ASSERT_EQ(sw.runs.size(), grid.runCount());
    for (std::size_t i = 0; i < sw.runs.size(); ++i) {
        const SweepRun &r = sw.runs[i];
        EXPECT_EQ(r.point.runIndex, i);
        EXPECT_EQ(r.result.workload, r.point.workload);
        EXPECT_EQ(r.result.policy, r.point.policy);
        EXPECT_DOUBLE_EQ(r.result.budgetFraction,
                         r.point.budgetFraction);
        EXPECT_TRUE(r.result.allCompleted()) << "run " << i;
    }
    // Coordinate access resolves to the same records.
    const SweepRun &rec = sw.at(0, grid.workloadIndex("MEM1"),
                                grid.policyIndex("FastCap"), 0);
    EXPECT_EQ(rec.point.workload, "MEM1");
    EXPECT_EQ(rec.point.policy, "FastCap");
}

TEST(SweepRunner, MatchesSerialSingleRuns)
{
    // A parallel sweep must reproduce exactly what running each grid
    // point alone produces.
    const SweepGrid grid = smallGrid();
    const SweepResult sw = SweepRunner(grid, 8).run();
    for (std::size_t i = 0; i < grid.runCount(); ++i) {
        const SweepRun solo = SweepRunner::runOne(grid, i);
        const SweepRun &par = sw.at(i);
        ASSERT_EQ(solo.result.epochs.size(),
                  par.result.epochs.size());
        EXPECT_DOUBLE_EQ(solo.result.averagePower(),
                         par.result.averagePower());
        for (std::size_t a = 0; a < solo.result.apps.size(); ++a)
            EXPECT_DOUBLE_EQ(solo.result.apps[a].completionTime,
                             par.result.apps[a].completionTime);
    }
}

TEST(SweepRunner, WorkersAreBoundedByRunsAndNeverNegative)
{
    // Results do not depend on the worker count, so a 2-run grid asked
    // for 8 workers runs on 2. A negative count is an error, not the
    // hardware default.
    SweepGrid grid = smallGrid();
    grid.workloads = {"ILP1"};
    ASSERT_EQ(grid.runCount(), 2u);
    EXPECT_EQ(SweepRunner(grid, 8).run().threads, 2);
    EXPECT_EQ(SweepRunner(grid, 1).run().threads, 1);
    EXPECT_THROW(SweepRunner(grid, -1), FatalError);
}

std::string
jsonString(const SweepResult &sw)
{
    std::FILE *tmp = std::tmpfile();
    EXPECT_NE(tmp, nullptr);
    sw.writeJson(tmp);
    std::string out = fileContents(tmp);
    std::fclose(tmp);
    return out;
}

TEST(SweepResult, JsonContainsEveryRun)
{
    SweepGrid grid = smallGrid();
    grid.workloads = {"ILP1"};
    const SweepResult sw = SweepRunner(grid, 2).run();
    const std::string json = jsonString(sw);

    EXPECT_NE(json.find("\"workload\": \"ILP1\""), std::string::npos);
    EXPECT_NE(json.find("\"policy\": \"Uncapped\""),
              std::string::npos);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), '\n');
}

TEST(SweepResult, JsonEscapesConfigNames)
{
    SweepGrid grid = smallGrid();
    grid.workloads = {"ILP1"};
    grid.policies = {"FastCap"};
    grid.configs[0].name = "8c \"turbo\"\\v1";
    const SweepResult sw = SweepRunner(grid, 1).run();
    const std::string json = jsonString(sw);
    EXPECT_NE(json.find("\"8c \\\"turbo\\\"\\\\v1\""),
              std::string::npos);
}

TEST(SweepResult, WallSecondsNeverReachesSerializedOutput)
{
    // Backs the wall-clock lint waivers in SweepRunner::run(): the
    // elapsed time measured via util wallSeconds() is operator
    // console output only. Two identical runs take different wall
    // time, so any leak into the CSV or JSON breaks byte-identity
    // here (and would break the 1-vs-N-thread cmp gate).
    SweepGrid grid = smallGrid();
    grid.workloads = {"ILP1"};
    const SweepResult first = SweepRunner(grid, 2).run();
    const SweepResult second = SweepRunner(grid, 2).run();
    EXPECT_GT(first.wallSeconds, 0.0);
    EXPECT_EQ(csvString(first), csvString(second));
    EXPECT_EQ(jsonString(first), jsonString(second));
    EXPECT_EQ(csvString(first).find("wallSeconds"),
              std::string::npos);
    EXPECT_EQ(jsonString(first).find("wallSeconds"),
              std::string::npos);
}

} // namespace
} // namespace fastcap
