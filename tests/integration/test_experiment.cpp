/**
 * @file
 * Integration tests for the experiment runner: epoch mechanics,
 * completion semantics, determinism, peak-power measurement and
 * mid-run budget changes.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/fastcap_policy.hpp"
#include "harness/experiment.hpp"
#include "harness/peak_power.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

/** The auto engine rule: monolithic up to 64 cores. */
const EngineConfig kAuto{};

ExperimentConfig
quickConfig(double budget = 0.6, double instr = 10e6)
{
    ExperimentConfig cfg;
    cfg.budgetFraction = budget;
    cfg.targetInstructions = instr;
    cfg.maxEpochs = 300;
    return cfg;
}

TEST(Experiment, RunsToCompletionAndRecordsEpochs)
{
    const ExperimentResult res = runWorkload(
        "MID1", "FastCap", quickConfig(), SimConfig::defaultConfig(16));
    EXPECT_TRUE(res.allCompleted());
    EXPECT_FALSE(res.epochs.empty());
    EXPECT_EQ(res.apps.size(), 16u);
    EXPECT_EQ(res.policy, "FastCap");
    EXPECT_EQ(res.workload, "MID1");
    EXPECT_GT(res.budget, 0.0);
    EXPECT_GT(res.peakPower, res.budget);

    for (const AppResult &a : res.apps) {
        EXPECT_TRUE(a.completed) << a.app;
        EXPECT_GT(a.completionTime, 0.0);
        EXPECT_GT(a.tpi, 0.0);
    }
    // Epoch records have sane shapes.
    for (const EpochRecord &e : res.epochs) {
        EXPECT_EQ(e.coreFreqIdx.size(), 16u);
        EXPECT_GT(e.totalPower, 0.0);
        EXPECT_NEAR(e.totalPower,
                    e.corePower + e.memPower + 10.0, 1e-6);
    }
}

TEST(Experiment, DeterministicAcrossRuns)
{
    const SimConfig scfg = SimConfig::defaultConfig(8);
    const ExperimentResult a =
        runWorkload("MIX1", "FastCap", quickConfig(), scfg);
    const ExperimentResult b =
        runWorkload("MIX1", "FastCap", quickConfig(), scfg);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.epochs[i].totalPower,
                         b.epochs[i].totalPower);
        EXPECT_EQ(a.epochs[i].memFreqIdx, b.epochs[i].memFreqIdx);
    }
    for (std::size_t i = 0; i < a.apps.size(); ++i)
        EXPECT_DOUBLE_EQ(a.apps[i].completionTime,
                         b.apps[i].completionTime);
}

TEST(Experiment, EpochDurationsCoverRunAndTruncateAtCompletion)
{
    const SimConfig scfg = SimConfig::defaultConfig(8);
    const ExperimentResult res =
        runWorkload("MIX1", "FastCap", quickConfig(), scfg);
    ASSERT_TRUE(res.allCompleted());
    ASSERT_FALSE(res.epochs.empty());

    // Every epoch but the last covers the full epoch length; the
    // last is truncated at the final completion.
    for (std::size_t i = 0; i + 1 < res.epochs.size(); ++i)
        EXPECT_DOUBLE_EQ(res.epochs[i].duration, scfg.epochLength)
            << "epoch " << i;
    const EpochRecord &last = res.epochs.back();
    EXPECT_GT(last.duration, 0.0);
    EXPECT_LE(last.duration, scfg.epochLength);

    Seconds finish = 0.0;
    for (const AppResult &a : res.apps)
        finish = std::max(finish, a.completionTime);
    EXPECT_NEAR(last.startTime + last.duration, finish, 1e-12);

    // The energy-weighted run average equals sum(P dt) / sum(dt).
    double energy = 0.0;
    double time = 0.0;
    for (const EpochRecord &e : res.epochs) {
        energy += e.totalPower * e.duration;
        time += e.duration;
    }
    EXPECT_NEAR(res.averagePower(), energy / time, 1e-9);
}

TEST(Experiment, UncappedFinishesFasterThanCapped)
{
    const SimConfig scfg = SimConfig::defaultConfig(16);
    const ExperimentResult capped =
        runWorkload("ILP2", "FastCap", quickConfig(0.5), scfg);
    const ExperimentResult base =
        runWorkload("ILP2", "Uncapped", quickConfig(0.5), scfg);
    ASSERT_TRUE(capped.allCompleted());
    ASSERT_TRUE(base.allCompleted());
    for (std::size_t i = 0; i < capped.apps.size(); ++i)
        EXPECT_GE(capped.apps[i].tpi, base.apps[i].tpi * 0.98);
}

TEST(Experiment, PeakPowerMatchesPaperScale)
{
    // Paper: ~120 W at 16 cores, ~60 W at 4, ~210 at 32, ~375 at 64.
    // Our measured peaks must land in the same bands (within ~25%).
    const Watts p16 = measuredPeakPower(SimConfig::defaultConfig(16), kAuto);
    EXPECT_GT(p16, 85.0);
    EXPECT_LT(p16, 150.0);

    const Watts p4 = measuredPeakPower(SimConfig::defaultConfig(4), kAuto);
    EXPECT_GT(p4, 35.0);
    EXPECT_LT(p4, 80.0);

    const Watts p64 = measuredPeakPower(SimConfig::defaultConfig(64), kAuto);
    EXPECT_GT(p64, 280.0);
    EXPECT_LT(p64, 470.0);

    // Monotone in core count.
    const Watts p32 = measuredPeakPower(SimConfig::defaultConfig(32), kAuto);
    EXPECT_GT(p32, p16);
    EXPECT_GT(p64, p32);
}

TEST(Experiment, PeakPowerMemoized)
{
    const SimConfig cfg = SimConfig::defaultConfig(16);
    const Watts a = measuredPeakPower(cfg, kAuto);
    const Watts b = measuredPeakPower(cfg, kAuto);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(Experiment, BudgetChangeMidRunShiftsPower)
{
    SimConfig scfg = SimConfig::defaultConfig(16);
    auto policy = FastCapPolicy();
    ExperimentConfig ecfg = quickConfig(0.8, 100e6);
    ExperimentRunner runner(scfg, workloads::mix("ILP2", 16), policy,
                            ecfg);

    // Warm epochs at 80%, then drop to 45%.
    std::vector<double> high_powers;
    for (int e = 0; e < 6; ++e)
        high_powers.push_back(runner.step().totalPower);
    runner.budgetFraction(0.45);
    for (int e = 0; e < 2; ++e)
        runner.step(); // settle
    std::vector<double> low_powers;
    for (int e = 0; e < 4; ++e)
        low_powers.push_back(runner.step().totalPower);

    double high_avg = 0.0;
    for (double p : high_powers)
        high_avg += p;
    high_avg /= high_powers.size();
    double low_avg = 0.0;
    for (double p : low_powers)
        low_avg += p;
    low_avg /= low_powers.size();

    EXPECT_LT(low_avg, high_avg * 0.85)
        << "power must track the reduced budget";
    EXPECT_LT(low_avg, 0.52 * runner.peakPower());
}

TEST(Experiment, InvalidConfigsAreFatal)
{
    SimConfig scfg = SimConfig::defaultConfig(4);
    auto policy = FastCapPolicy();
    ExperimentConfig bad = quickConfig();
    bad.budgetFraction = 1.5;
    EXPECT_THROW(ExperimentRunner(scfg, workloads::mix("ILP1", 4),
                                  policy, bad),
                 FatalError);
    bad = quickConfig();
    bad.targetInstructions = 0.0;
    EXPECT_THROW(ExperimentRunner(scfg, workloads::mix("ILP1", 4),
                                  policy, bad),
                 FatalError);
}

TEST(Experiment, NonFiniteBudgetsAreFatal)
{
    // NaN compares false with everything, so a range check written
    // as `x <= 0 || x > 1` would let it through.
    SimConfig scfg = SimConfig::defaultConfig(4);
    auto policy = FastCapPolicy();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double b : {nan, inf, -inf}) {
        ExperimentConfig bad = quickConfig();
        bad.budgetFraction = b;
        EXPECT_THROW(ExperimentRunner(scfg, workloads::mix("ILP1", 4),
                                      policy, bad),
                     FatalError)
            << b;
    }
    ExperimentRunner runner(scfg, workloads::mix("ILP1", 4), policy,
                            quickConfig());
    for (double b : {nan, inf, 0.0})
        EXPECT_THROW(runner.budgetFraction(b), FatalError) << b;
    runner.budgetFraction(1.0);
}

TEST(Experiment, NonFiniteTargetsAndEpochCapsAreFatal)
{
    SimConfig scfg = SimConfig::defaultConfig(4);
    auto policy = FastCapPolicy();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double t : {nan, inf, -inf}) {
        ExperimentConfig bad = quickConfig();
        bad.targetInstructions = t;
        EXPECT_THROW(ExperimentRunner(scfg, workloads::mix("ILP1", 4),
                                      policy, bad),
                     FatalError)
            << t;
    }
    // A run of zero or fewer epochs would end with nothing to report.
    for (int epochs : {0, -1}) {
        ExperimentConfig bad = quickConfig();
        bad.maxEpochs = epochs;
        EXPECT_THROW(ExperimentRunner(scfg, workloads::mix("ILP1", 4),
                                      policy, bad),
                     FatalError)
            << epochs;
    }
}

TEST(Experiment, ValidateRejectsEachBadKnob)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    quickConfig().validate();

    ExperimentConfig bad = quickConfig();
    bad.budgetFraction = 0.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = quickConfig();
    bad.targetInstructions = -1.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = quickConfig();
    bad.maxEpochs = 0;
    EXPECT_THROW(bad.validate(), FatalError);
    // 0 means "determine P̄ automatically"; any other value is used
    // as P̄ itself, so it must be a finite, positive power.
    for (double p : {nan, -1.0, inf, -inf}) {
        bad = quickConfig();
        bad.peakPowerOverride = p;
        EXPECT_THROW(bad.validate(), FatalError) << p;
    }
    ExperimentConfig ok = quickConfig();
    ok.peakPowerOverride = 123.0;
    ok.validate();
}

TEST(Experiment, ConfigIsValidatedBeforeTheEngineIsBuilt)
{
    // No applications at all would make the engine's constructor
    // throw; the budget error must come first.
    SimConfig scfg = SimConfig::defaultConfig(4);
    auto policy = FastCapPolicy();
    ExperimentConfig bad = quickConfig();
    bad.budgetFraction = 1.5;
    try {
        ExperimentRunner runner(scfg, {}, policy, bad);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("budget fraction"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Experiment, MaxEpochsBoundsRun)
{
    ExperimentConfig cfg = quickConfig(0.6, 1e12); // unreachable
    cfg.maxEpochs = 5;
    const ExperimentResult res = runWorkload(
        "ILP1", "FastCap", cfg, SimConfig::defaultConfig(4));
    EXPECT_FALSE(res.allCompleted());
    EXPECT_EQ(res.epochs.size(), 5u);
}

TEST(Experiment, LastInputsExposeCounters)
{
    SimConfig scfg = SimConfig::defaultConfig(4);
    auto policy = FastCapPolicy();
    ExperimentRunner runner(scfg, workloads::mix("MEM2", 4), policy,
                            quickConfig());
    runner.step();
    const PolicyInputs &in = runner.lastInputs();
    ASSERT_EQ(in.cores.size(), 4u);
    for (const CoreModel &c : in.cores) {
        EXPECT_GT(c.zbar, 0.0);
        EXPECT_GT(c.ipa, 0.0);
        EXPECT_GT(c.pi, 0.0);
        EXPECT_GE(c.alpha, 0.3);
        EXPECT_LE(c.alpha, 4.0);
    }
    ASSERT_EQ(in.memory.controllers.size(), 1u);
    EXPECT_GE(in.memory.controllers[0].q, 1.0);
    EXPECT_GT(in.memory.controllers[0].sm, 0.0);
    EXPECT_GT(in.budget, 0.0);
}

} // namespace
} // namespace fastcap
