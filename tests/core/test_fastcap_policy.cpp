/**
 * @file
 * Tests for the FastCap policy wrapper: ladder mapping (Algorithm 1,
 * line 16), CPU-only behaviour and the uncapped baseline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/fastcap_policy.hpp"
#include "core/solver.hpp"
#include "util/rng.hpp"

namespace fastcap {
namespace {

PolicyInputs
inputs(double budget)
{
    PolicyInputs in;
    in.cores.resize(4);
    const double zbars[] = {600e-9, 300e-9, 120e-9, 25e-9};
    for (int i = 0; i < 4; ++i) {
        in.cores[i].zbar = zbars[i];
        in.cores[i].cache = 7.5e-9;
        in.cores[i].pi = 2.5 + 0.2 * i;
        in.cores[i].alpha = 2.8;
        in.cores[i].pStatic = 1.0;
        in.cores[i].ipa = 800.0;
    }
    ControllerModel ctl;
    ctl.q = 1.4;
    ctl.u = 1.8;
    ctl.sm = 33e-9;
    ctl.sbBar = 1.875e-9;
    in.memory.controllers = {ctl};
    in.memory.pm = 12.0;
    in.memory.beta = 1.1;
    in.memory.pStatic = 12.0;
    in.accessProbs.assign(4, {1.0});
    for (int i = 0; i < 10; ++i) {
        in.coreRatios.push_back((2.2 + 0.2 * i) / 4.0);
        in.memRatios.push_back((206.0 + 66.0 * i) / 800.0);
    }
    in.background = 10.0;
    in.budget = budget;
    return in;
}

TEST(FastCapPolicy, DecisionShapesMatchInputs)
{
    FastCapPolicy policy;
    const PolicyInputs in = inputs(40.0);
    const PolicyDecision dec = policy.decide(in);
    ASSERT_EQ(dec.coreFreqIdx.size(), 4u);
    for (std::size_t idx : dec.coreFreqIdx)
        EXPECT_LT(idx, in.coreRatios.size());
    EXPECT_LT(dec.memFreqIdx, in.memRatios.size());
    EXPECT_GT(dec.evaluations, 0);
}

TEST(FastCapPolicy, AbundantBudgetSelectsMaxima)
{
    FastCapPolicy policy;
    const PolicyDecision dec = policy.decide(inputs(1000.0));
    for (std::size_t idx : dec.coreFreqIdx)
        EXPECT_EQ(idx, 9u);
    EXPECT_EQ(dec.memFreqIdx, 9u);
}

TEST(FastCapPolicy, TightBudgetSelectsMinima)
{
    FastCapPolicy policy;
    const PolicyDecision dec = policy.decide(inputs(5.0));
    for (std::size_t idx : dec.coreFreqIdx)
        EXPECT_EQ(idx, 0u);
    EXPECT_EQ(dec.memFreqIdx, 0u);
}

TEST(FastCapPolicy, MemoryBoundCoreGetsLowerFrequencyAtFixedMemory)
{
    // With the memory pinned at its maximum (CPU-only variant), the
    // memory-bound core 3 (z̄ = 25 ns) needs less core frequency than
    // the compute-bound core 0 for the same fractional degradation:
    // most of its turn-around is response time it cannot influence.
    // (When FastCap also slows the memory, the opposite can hold: a
    // memory-bound core may speed *up* to compensate — the swim-in-
    // MIX4 effect of Fig. 7.)
    CpuOnlyPolicy policy;
    const PolicyDecision dec = policy.decide(inputs(45.0));
    EXPECT_LE(dec.coreFreqIdx[3], dec.coreFreqIdx[0]);
}

TEST(CpuOnlyPolicy, PinsMemoryAtMax)
{
    CpuOnlyPolicy policy;
    const PolicyInputs in = inputs(45.0);
    const PolicyDecision dec = policy.decide(in);
    EXPECT_EQ(dec.memFreqIdx, in.memRatios.size() - 1);
    EXPECT_FALSE(policy.usesMemoryDvfs());
}

TEST(CpuOnlyPolicy, CoresCompensateForFixedMemory)
{
    // With memory pinned at max power, the cores must absorb the
    // entire cut: CPU-only core levels <= FastCap core levels is not
    // guaranteed per-core, but the average must be.
    FastCapPolicy fastcap;
    CpuOnlyPolicy cpu_only;
    const PolicyInputs in = inputs(45.0);
    const PolicyDecision d_fc = fastcap.decide(in);
    const PolicyDecision d_co = cpu_only.decide(in);

    double sum_fc = 0.0;
    double sum_co = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        sum_fc += static_cast<double>(d_fc.coreFreqIdx[i]);
        sum_co += static_cast<double>(d_co.coreFreqIdx[i]);
    }
    EXPECT_LE(sum_co, sum_fc)
        << "fixed-max memory leaves less budget for cores";
}

TEST(UncappedPolicy, AlwaysMaxEverything)
{
    UncappedPolicy policy;
    const PolicyDecision dec = policy.decide(inputs(1.0));
    for (std::size_t idx : dec.coreFreqIdx)
        EXPECT_EQ(idx, 9u);
    EXPECT_EQ(dec.memFreqIdx, 9u);
    EXPECT_EQ(dec.evaluations, 0);
}

TEST(MapToLadders, SnapsToClosestRatios)
{
    const PolicyInputs in = inputs(40.0);
    InnerSolution sol;
    sol.coreRatios = {1.0, 0.55, 0.56, 0.774};
    sol.memRatio = in.memRatios[4];
    sol.predictedPower = 42.0;
    const PolicyDecision dec = mapToLadders(in, sol, 4, 7);
    EXPECT_EQ(dec.coreFreqIdx[0], 9u);
    EXPECT_EQ(dec.coreFreqIdx[1], 0u);
    EXPECT_EQ(dec.coreFreqIdx[2], 0u);  // 0.56 closest to 0.55
    // 0.774 lies between 0.75 (idx 4) and 0.80 (idx 5); closest 0.775
    // -> allow either adjacent snap depending on ties.
    EXPECT_GE(dec.coreFreqIdx[3], 4u);
    EXPECT_LE(dec.coreFreqIdx[3], 5u);
    EXPECT_EQ(dec.memFreqIdx, 4u);
    EXPECT_EQ(dec.evaluations, 7);
    EXPECT_DOUBLE_EQ(dec.predictedPower, 42.0);
}

TEST(MapToLadders, SnapsOutOfRangeRatiosToTheLadderEnds)
{
    // Core ladder 2.2..4.0 GHz in 0.2 GHz steps, as ratios of 4 GHz.
    const PolicyInputs in = inputs(40.0);
    InnerSolution sol;
    sol.coreRatios = {4.0 / 4.0, 2.2 / 4.0, 2.29 / 4.0,
                      2.31 / 4.0, 5.0 / 4.0, 1.0 / 4.0};
    const PolicyDecision dec = mapToLadders(in, sol, 0, 0);
    const std::vector<std::size_t> want{9, 0, 0, 1, 9, 0};
    EXPECT_EQ(dec.coreFreqIdx, want);
}

TEST(MapToLadders, TiesSnapToTheHigherLevel)
{
    // Quarter steps: every midpoint is an exact binary tie.
    PolicyInputs in = inputs(40.0);
    in.coreRatios = {0.25, 0.5, 0.75, 1.0};
    InnerSolution sol;
    sol.coreRatios = {0.375, 0.625, 0.875, 0.25};
    const PolicyDecision dec = mapToLadders(in, sol, 0, 0);
    const std::vector<std::size_t> want{1, 2, 3, 0};
    EXPECT_EQ(dec.coreFreqIdx, want);
}

/** The historical per-core ladder walk, as the regression oracle. */
std::size_t
referenceClosestIndex(const std::vector<double> &ratios, double ratio)
{
    std::size_t best = 0;
    double best_d = std::abs(ratios[0] - ratio);
    for (std::size_t i = 1; i < ratios.size(); ++i) {
        const double d = std::abs(ratios[i] - ratio);
        if (d <= best_d) {
            best_d = d;
            best = i;
        }
    }
    return best;
}

TEST(MapToLadders, ClassMemoisedMappingBitIdenticalToPerCoreWalk)
{
    const PolicyInputs in = inputs(40.0);
    // Ratio mix a class-collapsed solve emits: heavy duplication, plus
    // the adversarial values a ladder walk could mishandle — exact
    // ladder entries, midpoints between levels (ties), the f_min
    // clamp, both zero signs, and the 1.0 saturation value.
    const std::vector<double> pool = {
        1.0,          in.coreRatios.front(), in.coreRatios[3],
        0.625,        // midpoint of idx 1 (0.60) and idx 2 (0.65): tie
        0.55000000001, 0.9137, 0.0, -0.0, 0.3121};
    Rng rng(0xfadedcafeULL);
    InnerSolution sol;
    sol.coreRatios.resize(257);
    for (double &x : sol.coreRatios)
        x = pool[rng.below(pool.size())];

    const PolicyDecision dec = mapToLadders(in, sol, 2, 11);
    ASSERT_EQ(dec.coreFreqIdx.size(), sol.coreRatios.size());
    for (std::size_t i = 0; i < sol.coreRatios.size(); ++i)
        EXPECT_EQ(dec.coreFreqIdx[i],
                  referenceClosestIndex(in.coreRatios,
                                        sol.coreRatios[i]))
            << "core " << i << " ratio " << sol.coreRatios[i];
}

// mapToLadders maps each core's ratio on its own: permuting the
// order the ratios arrive in must map every ratio value, both zero
// signs included, to the same ladder index. If the mapping of one
// core ever came to depend on the cores before it (shared state, a
// cache filled by whichever duplicate came first), some permutation
// would disagree.
TEST(MapToLadders, InsertionOrderPermutationBitIdentity)
{
    const PolicyInputs in = inputs(40.0);
    const std::vector<double> pool = {
        1.0,   in.coreRatios.front(), in.coreRatios[3],
        0.625, 0.55000000001, 0.9137, 0.0, -0.0, 0.3121};
    Rng rng(0x5eedf00dULL);
    std::vector<double> base(129);
    for (double &x : base)
        x = pool[rng.below(pool.size())];

    // Reference mapping per exact bit pattern, from the identity
    // permutation.
    InnerSolution sol;
    sol.coreRatios = base;
    const PolicyDecision ref = mapToLadders(in, sol, 2, 1);
    ASSERT_EQ(ref.coreFreqIdx.size(), base.size());

    std::vector<std::size_t> order(base.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (int trial = 0; trial < 16; ++trial) {
        // Fisher-Yates with the deterministic test Rng: a fresh
        // insertion order (and so bucket history) each trial.
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        InnerSolution perm;
        perm.coreRatios.reserve(base.size());
        for (std::size_t src : order)
            perm.coreRatios.push_back(base[src]);
        const PolicyDecision dec = mapToLadders(in, perm, 2, 1);
        ASSERT_EQ(dec.coreFreqIdx.size(), order.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(dec.coreFreqIdx[i], ref.coreFreqIdx[order[i]])
                << "trial " << trial << " core " << i << " ratio "
                << perm.coreRatios[i];
    }
}

} // namespace
} // namespace fastcap
