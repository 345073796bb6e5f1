/**
 * @file
 * Faithfulness of the counter-derived policy inputs (Section III-C):
 * the z̄ recovered through Eq. 9 must track the workload's true think
 * time, the fitted power-law parameters must land near the
 * simulator's ground truth, and the instructions-per-access input
 * must match the profile's miss rate.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/fastcap_policy.hpp"
#include "harness/experiment.hpp"
#include "sim/app_profile.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

/** Single-phase app so ground truth is a constant. */
AppProfile
flatApp(double mpki, double cpi, double activity = 0.8)
{
    Phase p;
    p.instructions = 1e9;
    p.mpki = mpki;
    p.cpiExec = cpi;
    p.wpki = mpki * 0.3;
    p.activity = activity;
    return AppProfile("flat", p);
}

TEST(InputsFidelity, Eq9RecoversTrueThinkTime)
{
    SimConfig scfg = SimConfig::defaultConfig(4);
    scfg.thinkJitterSigma = 0.0; // exact think times

    const double mpki = 5.0;
    const double cpi = 1.2;
    std::vector<AppProfile> apps(4, flatApp(mpki, cpi));

    FastCapPolicy policy;
    ExperimentConfig ecfg;
    ecfg.budgetFraction = 0.95; // effectively uncapped
    ecfg.targetInstructions = 1e9;
    ExperimentRunner runner(scfg, std::move(apps), policy, ecfg);
    runner.step();
    runner.step();

    // True z̄ = instructions-per-miss * CPI / f_max.
    const double zbar_true =
        (1000.0 / mpki) * cpi / scfg.coreLadder.max();
    const PolicyInputs &in = runner.lastInputs();
    for (const CoreModel &c : in.cores) {
        EXPECT_NEAR(c.zbar, zbar_true, 0.05 * zbar_true);
        EXPECT_NEAR(c.ipa, 1000.0 / mpki, 0.05 * 1000.0 / mpki);
    }
}

TEST(InputsFidelity, FittedAlphaNearGroundTruth)
{
    // After visiting a few distinct frequencies under a binding cap,
    // the fitted alpha must land in the V^2f-implied band (~2-3.3)
    // and the fitted P_i must predict measured power decently.
    SimConfig scfg = SimConfig::defaultConfig(16);
    FastCapPolicy policy;
    ExperimentConfig ecfg;
    ecfg.budgetFraction = 0.55;
    ecfg.targetInstructions = 1e9;
    ExperimentRunner runner(scfg, workloads::mix("ILP1", 16), policy,
                            ecfg);
    for (int e = 0; e < 8; ++e)
        runner.step();

    const PolicyInputs &in = runner.lastInputs();
    int fitted = 0;
    for (const CoreModel &c : in.cores) {
        if (c.alpha != 2.5) // bootstrap default means not yet fit
            ++fitted;
        EXPECT_GE(c.alpha, 1.0);
        EXPECT_LE(c.alpha, 4.0);
        EXPECT_GT(c.pi, 0.0);
        EXPECT_LT(c.pi, 2.0 * scfg.corePower.dynMax);
    }
    EXPECT_GT(fitted, 8) << "most cores should have real fits by now";
}

TEST(InputsFidelity, MemoryBetaNearOne)
{
    // Eq. 3: beta close to 1 (frequency-only scaling of bus/DIMMs).
    SimConfig scfg = SimConfig::defaultConfig(16);
    FastCapPolicy policy;
    ExperimentConfig ecfg;
    ecfg.budgetFraction = 0.6;
    ecfg.targetInstructions = 1e9;
    ExperimentRunner runner(scfg, workloads::mix("MID1", 16), policy,
                            ecfg);
    for (int e = 0; e < 8; ++e)
        runner.step();

    const PolicyInputs &in = runner.lastInputs();
    EXPECT_GE(in.memory.beta, 0.3);
    EXPECT_LE(in.memory.beta, 2.0);
    EXPECT_GT(in.memory.pm, 0.0);
}

TEST(InputsFidelity, PowerModelPredictionErrorSmall)
{
    // Section III-A: "the modeling error is less than 10%". Check the
    // fitted model's prediction of the *next* window's core power
    // (same frequency) against the measurement.
    SimConfig scfg = SimConfig::defaultConfig(16);
    FastCapPolicy policy;
    ExperimentConfig ecfg;
    ecfg.budgetFraction = 0.6;
    ecfg.targetInstructions = 1e9;
    ExperimentRunner runner(scfg, workloads::mix("MID3", 16), policy,
                            ecfg);
    EpochRecord last;
    for (int e = 0; e < 6; ++e)
        last = runner.step();

    const PolicyInputs &before = runner.lastInputs();
    std::vector<double> predicted(before.cores.size());
    for (std::size_t i = 0; i < before.cores.size(); ++i) {
        // Predict dynamic power at the currently selected ratio.
        const double x = before.coreRatios[last.coreFreqIdx[i]];
        predicted[i] = before.cores[i].pi *
            std::pow(x, before.cores[i].alpha) +
            before.cores[i].pStatic;
    }
    runner.step();
    const PolicyInputs &after = runner.lastInputs();

    double err = 0.0;
    for (std::size_t i = 0; i < after.cores.size(); ++i)
        err += std::abs(predicted[i] - after.cores[i].measuredPower) /
            after.cores[i].measuredPower;
    err /= static_cast<double>(after.cores.size());
    EXPECT_LT(err, 0.20)
        << "mean per-core prediction error (paper reports <10% on "
           "full-length epochs; sampled windows add noise)";
}

} // namespace
} // namespace fastcap
