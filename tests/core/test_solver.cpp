/**
 * @file
 * Tests for the FastCap solver: Theorem 1 (tight constraints at the
 * optimum), Eq. 8 consistency, fairness of the inner solution, ladder
 * clamping, Algorithm 1 vs exhaustive search and vs the eager search
 * it replaced, and budget monotonicity properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace fastcap {
namespace {

/**
 * A heterogeneous 4-core scenario: two compute-bound cores, one
 * balanced, one memory-bound, single controller.
 */
PolicyInputs
scenario(double budget_watts)
{
    PolicyInputs in;
    in.cores.resize(4);
    const double zbars[] = {600e-9, 500e-9, 120e-9, 25e-9};
    const double pis[] = {3.2, 3.0, 2.4, 1.2};
    const double alphas[] = {2.9, 3.0, 2.7, 2.5};
    for (int i = 0; i < 4; ++i) {
        in.cores[i].zbar = zbars[i];
        in.cores[i].cache = 7.5e-9;
        in.cores[i].pi = pis[i];
        in.cores[i].alpha = alphas[i];
        in.cores[i].pStatic = 1.0;
        in.cores[i].ipa = 1000.0;
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
    // 10-level ladders like the paper.
    for (int i = 0; i < 10; ++i) {
        in.coreRatios.push_back((2.2 + 0.2 * i) / 4.0);
        in.memRatios.push_back((206.0 + 66.0 * i) / 800.0);
    }
    in.background = 10.0;
    in.budget = budget_watts;
    return in;
}

/** Max power of the scenario: all ratios 1. */
double
scenarioMaxPower(const PolicyInputs &in)
{
    double p = in.staticPower() + in.memory.pm;
    for (const CoreModel &c : in.cores)
        p += c.pi;
    return p;
}

TEST(Solver, AbundantBudgetGivesMaxEverything)
{
    PolicyInputs in = scenario(1000.0);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    EXPECT_EQ(res.memIndex, in.memRatios.size() - 1);
    EXPECT_NEAR(res.best.d, 1.0, 1e-6);
    for (double x : res.best.coreRatios)
        EXPECT_NEAR(x, 1.0, 1e-6);
    EXPECT_TRUE(res.best.budgetFeasible);
}

TEST(Solver, Theorem1PowerConstraintTightWhenBinding)
{
    PolicyInputs in = scenario(0.0);
    in.budget = 0.75 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();

    // Theorem 1: the optimal solution consumes the entire budget.
    // The discrete memory ladder can strand at most one memory-level
    // power step of the budget, hence the asymmetric tolerance.
    EXPECT_LE(res.best.predictedPower, in.budget * 1.001);
    EXPECT_GT(res.best.predictedPower, 0.93 * in.budget);
    EXPECT_LT(res.best.d, 1.0);
    EXPECT_TRUE(res.best.budgetFeasible);
}

TEST(Solver, Theorem1PerformanceConstraintTight)
{
    // Constraint 5 is an equality for every core at the optimum:
    // each unclamped core's turn-around equals T̄_i / D exactly.
    PolicyInputs in = scenario(0.0);
    in.budget = 0.7 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    const QueuingModel &qm = solver.queuing();

    const double x_min = in.minCoreRatio();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const double x = res.best.coreRatios[i];
        if (x <= x_min + 1e-9 || x >= 1.0 - 1e-9)
            continue; // ladder-clamped cores may deviate
        const double d_i = qm.performance(i, x, res.best.memRatio);
        EXPECT_NEAR(d_i, res.best.d, 1e-4)
            << "core " << i << " deviates from the common D";
    }
}

TEST(Solver, FairnessAllCoresShareDegradation)
{
    PolicyInputs in = scenario(0.0);
    in.budget = 0.65 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    const QueuingModel &qm = solver.queuing();

    // Performance factors of unclamped cores agree; clamped cores can
    // only do better (they are pinned at a frequency *above* what
    // equal degradation would require... or at the floor, doing
    // worse is impossible given the budget holds).
    double min_d = 1.0;
    double max_d = 0.0;
    const double x_min = in.minCoreRatio();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const double x = res.best.coreRatios[i];
        if (x <= x_min + 1e-9)
            continue;
        const double d_i = qm.performance(i, x, res.best.memRatio);
        min_d = std::min(min_d, d_i);
        max_d = std::max(max_d, d_i);
    }
    EXPECT_LT(max_d - min_d, 1e-3);
}

TEST(Solver, Eq8Consistency)
{
    // z_i reconstructed from the returned ratios matches Eq. 8.
    PolicyInputs in = scenario(0.0);
    in.budget = 0.7 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    const QueuingModel &qm = solver.queuing();

    const double x_min = in.minCoreRatio();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const double x = res.best.coreRatios[i];
        if (x <= x_min + 1e-9 || x >= 1.0 - 1e-9)
            continue;
        const Seconds z = in.cores[i].zbar / x;
        const Seconds z_eq8 = qm.minTurnaround(i) / res.best.d -
            in.cores[i].cache -
            qm.responseTime(i, res.best.memRatio);
        EXPECT_NEAR(z, z_eq8, 1e-6 * z);
    }
}

TEST(Solver, TinyBudgetPinsEverythingAtFloor)
{
    PolicyInputs in = scenario(1.0); // absurd 1 W budget
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    EXPECT_FALSE(res.best.budgetFeasible);
    for (double x : res.best.coreRatios)
        EXPECT_NEAR(x, in.minCoreRatio(), 1e-9);
    EXPECT_EQ(res.memIndex, 0u);
}

TEST(Solver, DMonotoneInBudget)
{
    // More budget can never hurt the achieved D (the infeasible
    // region's penalty values are also monotone in the budget).
    double prev_d = -std::numeric_limits<double>::infinity();
    const double max_power = scenarioMaxPower(scenario(1.0));
    for (double frac : {0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
        PolicyInputs in = scenario(frac * max_power);
        FastCapSolver solver(in);
        const SolveResult res = solver.solve();
        EXPECT_GE(res.best.d, prev_d - 1e-9)
            << "budget fraction " << frac;
        prev_d = res.best.d;
    }
}

TEST(Solver, PowerNeverExceedsBudgetWhenFeasible)
{
    // Fractions above the platform's floor power (~64% of max here:
    // statics dominate this small scenario).
    for (double frac : {0.68, 0.75, 0.9}) {
        PolicyInputs in = scenario(0.0);
        in.budget = frac * scenarioMaxPower(in);
        FastCapSolver solver(in);
        const SolveResult res = solver.solve();
        ASSERT_TRUE(res.best.budgetFeasible);
        EXPECT_LE(res.best.predictedPower,
                  in.budget * (1.0 + 1e-3));
    }
}

TEST(Solver, BinarySearchMatchesExhaustive)
{
    // Algorithm 1's binary search must land on (a point as good as)
    // the exhaustive optimum.
    for (double frac : {0.5, 0.6, 0.7, 0.85}) {
        PolicyInputs in = scenario(0.0);
        in.budget = frac * scenarioMaxPower(in);

        SolverOptions tight;
        tight.dTolerance = 1e-8;
        FastCapSolver fast(in, tight);
        const SolveResult res_fast = fast.solve();

        SolverOptions tight_full = tight;
        tight_full.exhaustiveMemSearch = true;
        FastCapSolver full(in, tight_full);
        const SolveResult res_full = full.solve();

        EXPECT_NEAR(res_fast.best.d, res_full.best.d,
                    1e-5 * std::abs(res_full.best.d) + 1e-12)
            << "budget fraction " << frac;
    }
}

TEST(Solver, BinarySearchUsesFewerEvaluations)
{
    PolicyInputs in = scenario(0.0);
    in.budget = 0.6 * scenarioMaxPower(in);

    FastCapSolver fast(in);
    (void)fast.solve();
    SolverOptions exhaustive;
    exhaustive.exhaustiveMemSearch = true;
    FastCapSolver full(in, exhaustive);
    (void)full.solve();

    // O(log M) vs O(M): with M=10, the search needs at most ~8
    // distinct evaluations (memoized).
    EXPECT_LE(fast.evaluations(), 8);
    EXPECT_EQ(full.evaluations(), 10);
}

TEST(Solver, MemoryBoundWorkloadKeepsMemoryFast)
{
    // All cores memory-bound: small z̄, low core power. Slowing the
    // memory is expensive in performance; the solver should keep the
    // memory level high and shed core power instead.
    PolicyInputs in = scenario(0.0);
    for (CoreModel &c : in.cores) {
        c.zbar = 20e-9;
        c.pi = 3.0; // enough core power to shed without touching memory
    }
    in.budget = 0.85 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    EXPECT_GE(res.memIndex, in.memRatios.size() / 2);
}

TEST(Solver, ComputeBoundWorkloadSlowsMemory)
{
    // All cores compute-bound: memory frequency barely affects
    // turn-around, so the solver harvests memory power.
    PolicyInputs in = scenario(0.0);
    for (CoreModel &c : in.cores)
        c.zbar = 900e-9;
    in.budget = 0.7 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    EXPECT_LE(res.memIndex, 2u);
}

TEST(Solver, EvaluationsLinearInCores)
{
    // The number of inner evaluations is independent of N (each is
    // O(N)); this is the O(N log M) claim's structure.
    for (std::size_t n : {4u, 16u, 64u}) {
        PolicyInputs in = scenario(0.0);
        const CoreModel proto = in.cores[0];
        in.cores.assign(n, proto);
        in.accessProbs.assign(n, {1.0});
        in.budget = 0.6 * scenarioMaxPower(in);
        FastCapSolver solver(in);
        (void)solver.solve();
        EXPECT_LE(solver.evaluations(), 8)
            << "evaluations must not grow with N (" << n << ")";
    }
}

TEST(Solver, RejectsDegenerateInputs)
{
    PolicyInputs empty;
    empty.budget = 10.0;
    empty.memRatios = {1.0};
    EXPECT_THROW(FastCapSolver s(empty), FatalError);

    PolicyInputs in = scenario(50.0);
    in.memRatios.clear();
    EXPECT_THROW(FastCapSolver s2(in), FatalError);

    PolicyInputs in3 = scenario(50.0);
    in3.budget = -1.0;
    EXPECT_THROW(FastCapSolver s3(in3), FatalError);
}

// --- Algorithm 1's search: lazy neighbour probes -------------------

using LevelEval = std::function<double(std::size_t)>;

/**
 * The memory-level search as it was before its neighbour probes went
 * lazy, kept as the oracle (returning the level instead of filling a
 * SolveResult): every probed level's upper and lower neighbours are
 * evaluated before either is compared.
 */
std::size_t
eagerSearchMemLevels(std::size_t floor_idx, std::size_t m,
                     const WarmStart &warm, const LevelEval &eval)
{
    if (warm.valid) {
        const std::size_t h = std::clamp(warm.memIndex, floor_idx, m - 1);
        const double d_h = eval(h);
        const double d_up =
            (h + 1 <= m - 1) ? eval(h + 1)
                             : -std::numeric_limits<double>::infinity();
        const double d_down =
            (h >= floor_idx + 1)
                ? eval(h - 1)
                : -std::numeric_limits<double>::infinity();
        if (d_h >= d_up && d_h >= d_down)
            return h;
    }

    std::size_t lo = floor_idx;
    std::size_t hi = m - 1;
    std::size_t mid = (lo + hi) / 2;
    while (lo < hi) {
        mid = (lo + hi) / 2;
        const double d_mid = eval(mid);
        const double d_up =
            (mid + 1 <= hi) ? eval(mid + 1)
                            : -std::numeric_limits<double>::infinity();
        const double d_down =
            (mid >= lo + 1) ? eval(mid - 1)
                            : -std::numeric_limits<double>::infinity();

        if (d_up > d_mid) {
            lo = mid + 1;       // ascending to the right
        } else if (d_down > d_mid) {
            hi = mid - 1;       // ascending to the left
        } else {
            lo = hi = mid;      // local (= global, unimodal) optimum
        }
    }
    return lo;
}

/** A search's chosen level and the distinct levels it evaluated. */
struct SearchRun
{
    std::size_t idx = 0;
    int evaluated = 0;
};

SearchRun
runSearch(const std::function<std::size_t(const LevelEval &)> &search,
          const std::vector<double> &d)
{
    std::vector<bool> seen(d.size(), false);
    SearchRun run;
    run.idx = search([&](std::size_t idx) {
        if (!seen.at(idx)) {
            seen[idx] = true;
            ++run.evaluated;
        }
        return d[idx];
    });
    return run;
}

/** Synthetic D(m) curves of every shape the search may meet. */
std::vector<double>
syntheticCurve(Rng &rng, std::size_t m, int shape)
{
    std::vector<double> d(m);
    const std::size_t peak = rng.below(m);
    switch (shape) {
      case 0: // unimodal, strict
        for (std::size_t i = 0; i < m; ++i)
            d[i] = 1.0 - 0.05 * std::abs(static_cast<double>(i) -
                                         static_cast<double>(peak)) -
                rng.uniform(0.0, 0.01);
        d[peak] = 1.0;
        break;
      case 1: // unimodal on a coarse grid: plateaus and exact ties
        for (std::size_t i = 0; i < m; ++i)
            d[i] = 0.5 - 0.1 * static_cast<double>(
                (i > peak ? i - peak : peak - i) / (1 + rng.below(3)));
        break;
      case 2: { // infeasible levels below a feasible unimodal tail
        const std::size_t feasible = rng.below(m);
        for (std::size_t i = 0; i < m; ++i)
            d[i] = i < feasible
                ? -0.1 * static_cast<double>(feasible - i) // penalty
                : 0.9 - 0.03 * std::abs(static_cast<double>(i) -
                                        static_cast<double>(
                                            std::max(peak, feasible)));
        break;
      }
      case 3: // every level infeasible
        for (std::size_t i = 0; i < m; ++i)
            d[i] = -0.01 * static_cast<double>(m - i) -
                rng.uniform(0.0, 0.001);
        break;
      case 4: // flat
        std::fill(d.begin(), d.end(), 0.75);
        break;
      default: // not unimodal: a few values, many ties
        for (double &v : d)
            v = 0.1 * static_cast<double>(rng.below(4));
        break;
    }
    return d;
}

TEST(SolverSearch, LazyNeighboursChooseTheEagerLevel)
{
    // searchMemLevels evaluates a probed level's lower neighbour only
    // when the upper one has not beaten it. On every curve, from every
    // floor and with every warm-start hint (none, each level, and out
    // of range), it must choose the level the eager search chooses,
    // evaluating no level that search did not, and fewer on some.
    Rng rng(24);
    int runs = 0;
    int fewer = 0;
    for (std::size_t m = 1; m <= 16; ++m) {
        for (int shape = 0; shape < 6; ++shape) {
            for (int rep = 0; rep < 4; ++rep) {
                const std::vector<double> d = syntheticCurve(rng, m, shape);
                for (std::size_t floor_idx = 0; floor_idx < m;
                     ++floor_idx) {
                    std::vector<WarmStart> hints = {WarmStart{}};
                    for (std::size_t h = 0; h <= m + 1; ++h)
                        hints.push_back(WarmStart{true, h});
                    for (const WarmStart &warm : hints) {
                        const SearchRun lazy = runSearch(
                            [&](const LevelEval &eval) {
                                return searchMemLevels(floor_idx, m, warm,
                                                       eval);
                            },
                            d);
                        const SearchRun eager = runSearch(
                            [&](const LevelEval &eval) {
                                return eagerSearchMemLevels(floor_idx, m,
                                                            warm, eval);
                            },
                            d);
                        const std::string what = "m " + std::to_string(m) +
                            " shape " + std::to_string(shape) + " floor " +
                            std::to_string(floor_idx) + " hint " +
                            (warm.valid ? std::to_string(warm.memIndex)
                                        : std::string("none"));
                        ASSERT_EQ(lazy.idx, eager.idx) << what;
                        ASSERT_LE(lazy.evaluated, eager.evaluated) << what;
                        ++runs;
                        fewer += lazy.evaluated < eager.evaluated;
                    }
                }
            }
        }
    }
    EXPECT_GT(fewer, runs / 10) << "of " << runs << " searches";
}

TEST(SolverSearch, LazySolveMatchesEagerSearchBitForBit)
{
    // End to end, with per-socket budgets in play: FastCapSolver's
    // solve() returns, bit for bit, the inner solution at the level
    // the eager search picks over the same inner solves, and runs no
    // more of them.
    for (double frac : {0.55, 0.65, 0.75, 0.9}) {
        for (const double socket_frac : {0.8, 1.0, 1.3}) {
            PolicyInputs in = scenario(0.0);
            in.budget = frac * scenarioMaxPower(in);
            SolverOptions opts;
            const double half = socket_frac * in.budget / 2.0;
            opts.socketBudgets = {{0, 2, half}, {2, 2, half}};
            const std::size_t m = in.memRatios.size();
            const std::size_t floor_idx =
                minMemIndexForUtilisation(in, opts.maxBusUtilisation);
            ASSERT_GT(m - floor_idx, 3u);

            for (std::size_t hint = 0; hint <= m; ++hint) {
                opts.warmStart = WarmStart{hint < m, hint};
                FastCapSolver lazy(in, opts);
                const SolveResult got = lazy.solve();

                FastCapSolver eager(in, opts);
                std::vector<InnerSolution> memo(m);
                std::vector<bool> have(m, false);
                const std::size_t idx = eagerSearchMemLevels(
                    floor_idx, m, opts.warmStart, [&](std::size_t level) {
                        if (!have[level]) {
                            memo[level] = eager.solveAtMemIndex(level);
                            have[level] = true;
                        }
                        return memo[level].d;
                    });
                const std::string what = "budget " + std::to_string(frac) +
                    " socket " + std::to_string(socket_frac) + " hint " +
                    std::to_string(hint);
                ASSERT_EQ(got.memIndex, idx) << what;
                const InnerSolution &want = memo[idx];
                EXPECT_EQ(doubleBits(got.best.d), doubleBits(want.d)) << what;
                EXPECT_EQ(doubleBits(got.best.predictedPower),
                          doubleBits(want.predictedPower))
                    << what;
                EXPECT_EQ(got.best.budgetFeasible, want.budgetFeasible)
                    << what;
                EXPECT_EQ(got.best.saturatedLow, want.saturatedLow) << what;
                EXPECT_EQ(got.best.saturatedHigh, want.saturatedHigh)
                    << what;
                ASSERT_EQ(got.best.coreRatios.size(),
                          want.coreRatios.size());
                for (std::size_t i = 0; i < want.coreRatios.size(); ++i)
                    EXPECT_EQ(doubleBits(got.best.coreRatios[i]),
                              doubleBits(want.coreRatios[i]))
                        << what << " core " << i;
                EXPECT_LE(got.evaluations, eager.evaluations()) << what;
            }
        }
    }
}

/** Budget sweep property: Theorem 1 holds across the binding range. */
class SolverBudgetProperty : public ::testing::TestWithParam<double>
{};

TEST_P(SolverBudgetProperty, TightWheneverBinding)
{
    PolicyInputs in = scenario(0.0);
    const double max_power = scenarioMaxPower(in);
    in.budget = GetParam() * max_power;
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();

    const double floor = [&] {
        PolicyInputs tiny = scenario(1.0);
        FastCapSolver s(tiny);
        return s.solveAtMemIndex(0).predictedPower;
    }();

    if (in.budget >= max_power) {
        EXPECT_NEAR(res.best.d, 1.0, 1e-6);
    } else if (in.budget > floor * 1.02) {
        // Binding region: full budget consumed (Theorem 1). The
        // discrete memory ladder leaves at most the gap between
        // adjacent memory power levels unharvested.
        EXPECT_GT(res.best.predictedPower, 0.90 * in.budget);
        EXPECT_LE(res.best.predictedPower, in.budget * 1.001);
    }
}

INSTANTIATE_TEST_SUITE_P(BudgetSweep, SolverBudgetProperty,
                         ::testing::Values(0.45, 0.5, 0.55, 0.6, 0.65,
                                           0.7, 0.75, 0.8, 0.85, 0.9,
                                           0.95, 1.0));

} // namespace
} // namespace fastcap
