/**
 * @file
 * Tests for the solver hot path introduced for many-core scaling
 * (ISSUE 4): the structure-of-arrays / equivalence-class inner solve
 * must be *bit-identical* to the per-core reference implementation,
 * the warm-started memory search must pick the same level as a cold
 * search, and warm-started experiments must reproduce cold-start
 * epoch records exactly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/fastcap_policy.hpp"
#include "core/solver.hpp"
#include "harness/experiment.hpp"
#include "policies/registry.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

/** Heterogeneous inputs with a controllable number of classes. */
PolicyInputs
classedInputs(std::size_t n, std::size_t distinct, std::uint64_t seed)
{
    Rng rng(seed);
    PolicyInputs in;

    std::vector<CoreModel> protos(distinct);
    for (CoreModel &c : protos) {
        c.zbar = rng.uniform(20e-9, 800e-9);
        c.cache = 7.5e-9;
        c.pi = rng.uniform(1.0, 3.5);
        c.alpha = rng.uniform(2.2, 3.1);
        c.pStatic = rng.uniform(0.8, 1.2);
        c.ipa = rng.uniform(100.0, 2000.0);
    }
    in.cores.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        in.cores[i] = protos[i % distinct];

    ControllerModel ctl;
    ctl.q = 1.4;
    ctl.u = 1.8;
    ctl.sm = 33e-9;
    ctl.sbBar = 1.875e-9;
    in.memory.controllers = {ctl};
    in.memory.pm = 8.0 + 0.25 * static_cast<double>(n);
    in.memory.beta = 1.1;
    in.memory.pStatic = 12.0;
    in.accessProbs.assign(n, {1.0});

    for (int i = 0; i < 10; ++i) {
        in.coreRatios.push_back((2.2 + 0.2 * i) / 4.0);
        in.memRatios.push_back((206.0 + 66.0 * i) / 800.0);
    }
    in.background = 10.0;

    double max_power = in.staticPower() + in.memory.pm;
    for (const CoreModel &c : in.cores)
        max_power += c.pi;
    in.budget = rng.uniform(0.45, 0.9) * max_power;
    return in;
}

/** EXPECT bit-equality of two inner solutions. */
void
expectBitIdentical(const InnerSolution &a, const InnerSolution &b,
                   const std::string &what)
{
    EXPECT_EQ(a.d, b.d) << what;
    EXPECT_EQ(a.memRatio, b.memRatio) << what;
    EXPECT_EQ(a.predictedPower, b.predictedPower) << what;
    EXPECT_EQ(a.budgetFeasible, b.budgetFeasible) << what;
    EXPECT_EQ(a.saturatedLow, b.saturatedLow) << what;
    EXPECT_EQ(a.saturatedHigh, b.saturatedHigh) << what;
    ASSERT_EQ(a.coreRatios.size(), b.coreRatios.size()) << what;
    for (std::size_t i = 0; i < a.coreRatios.size(); ++i)
        ASSERT_EQ(a.coreRatios[i], b.coreRatios[i])
            << what << " core " << i;
}

TEST(SolverHotPath, HomogeneousMixCollapsesToOneClass)
{
    const PolicyInputs in = classedInputs(64, 1, 7);
    FastCapSolver solver(in);
    EXPECT_EQ(solver.numClasses(), 1u);
}

TEST(SolverHotPath, ClassCountMatchesDistinctCores)
{
    const PolicyInputs in = classedInputs(64, 5, 11);
    FastCapSolver solver(in);
    EXPECT_EQ(solver.numClasses(), 5u);
}

TEST(SolverHotPath, DistinctAccessRowsSplitClasses)
{
    // Same core parameters, different controller-access rows: the
    // queuing response differs, so they must not share a class.
    PolicyInputs in = classedInputs(4, 1, 13);
    ControllerModel second = in.memory.controllers[0];
    second.sm = 55e-9;
    in.memory.controllers.push_back(second);
    in.accessProbs.assign(4, {0.5, 0.5});
    in.accessProbs[2] = {0.9, 0.1};
    FastCapSolver solver(in);
    EXPECT_EQ(solver.numClasses(), 2u);
}

/**
 * Class ids by an independent grouping: a std::map over the exact-bit
 * key (the five model fields, then the access row), ids handed out in
 * first-occurrence order.
 */
std::vector<std::uint32_t>
referenceClassIds(const PolicyInputs &in)
{
    std::map<std::vector<std::uint64_t>, std::uint32_t> ids;
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const CoreModel &c = in.cores[i];
        std::vector<std::uint64_t> key = {
            doubleBits(c.zbar), doubleBits(c.cache), doubleBits(c.pi),
            doubleBits(c.alpha), doubleBits(c.pStatic)};
        for (double p : in.accessProbs[i])
            key.push_back(doubleBits(p));
        const auto next = static_cast<std::uint32_t>(ids.size());
        out.push_back(ids.emplace(key, next).first->second);
    }
    return out;
}

/** The solver's class table must group exactly as the reference. */
void
expectReferenceClasses(const PolicyInputs &in, std::size_t want_classes)
{
    const std::vector<std::uint32_t> want = referenceClassIds(in);
    FastCapSolver solver(in);
    ASSERT_EQ(solver.numClasses(), want_classes);
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(solver.classOf(i), want[i]) << "core " << i;
}

TEST(SolverClassTable, AllDistinctRackShape)
{
    // Fitted inputs on a 1024-core machine: every core its own class.
    const PolicyInputs in = classedInputs(1024, 1024, 41);
    expectReferenceClasses(in, 1024);
}

TEST(SolverClassTable, SignedZerosStaySeparate)
{
    // Keys are exact bits: +0.0 and -0.0 compare equal as doubles
    // but must not share a class. All 1024 keys here are equal as
    // doubles and no two have the same bits: the bits of the core
    // index pick the sign of the five model fields, all zero, and of
    // five zeros appended to the access row. Such keys meet in probe
    // chains, where only the exact-bit comparison keeps them apart.
    PolicyInputs in = classedInputs(1024, 1, 43);
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const auto zero = [i](int bit) {
            return ((i >> bit) & 1) ? -0.0 : 0.0;
        };
        CoreModel &c = in.cores[i];
        c.zbar = zero(0);
        c.cache = zero(1);
        c.pi = zero(2);
        c.alpha = zero(3);
        c.pStatic = zero(4);
        for (int bit = 5; bit < 10; ++bit)
            in.accessProbs[i].push_back(zero(bit));
    }
    expectReferenceClasses(in, 1024);
}

TEST(SolverClassTable, AccessRowsDifferingOnlyAtTheEnd)
{
    // All cores share their model fields; only the rows differ. 128
    // rows differ only in their last entry, 64 only in length (one
    // row padded with zeros), and each row appears twice, so keys
    // both collide in the table and recur.
    PolicyInputs in = classedInputs(384, 1, 47);
    in.memory.controllers.assign(66, in.memory.controllers[0]);
    double last = 0.5;
    for (std::size_t j = 0; j < 128; ++j) {
        in.accessProbs[j] = {0.25, 0.25, last};
        in.accessProbs[j + 192] = in.accessProbs[j];
        last = std::nextafter(last, 1.0);
    }
    for (std::size_t j = 0; j < 64; ++j) {
        in.accessProbs[128 + j] = {0.5, 0.5};
        in.accessProbs[128 + j].resize(2 + j, 0.0);
        in.accessProbs[320 + j] = in.accessProbs[128 + j];
    }
    expectReferenceClasses(in, 192);
}

TEST(SolverClassTable, RepeatedKeysInterleavedWithDistinct)
{
    // Three keys recur at every even core, each odd core is unique:
    // recurring keys must find their class past the distinct keys
    // that collide with them in the table.
    const PolicyInputs distinct = classedInputs(512, 512, 53);
    const PolicyInputs repeated = classedInputs(512, 3, 59);
    PolicyInputs in = distinct;
    for (std::size_t i = 0; i < in.cores.size(); i += 2)
        in.cores[i] = repeated.cores[i];
    expectReferenceClasses(in, 3 + 256);
}

TEST(SolverClassTable, AllDistinctSolveBitIdenticalToReference)
{
    const PolicyInputs in = classedInputs(1024, 1024, 61);
    FastCapSolver fast(in);
    SolverOptions ref_opts;
    ref_opts.referenceImpl = true;
    FastCapSolver ref(in, ref_opts);
    const SolveResult a = fast.solve();
    const SolveResult b = ref.solve();
    EXPECT_EQ(fast.numClasses(), 1024u);
    EXPECT_EQ(a.memIndex, b.memIndex);
    expectBitIdentical(a.best, b.best, "1024 distinct cores");
}

TEST(SolverHotPath, InnerSolveBitIdenticalToReference)
{
    for (const std::size_t distinct : {std::size_t{1}, std::size_t{4},
                                       std::size_t{32}}) {
        const PolicyInputs in = classedInputs(32, distinct, 21);
        FastCapSolver fast(in);
        SolverOptions ref_opts;
        ref_opts.referenceImpl = true;
        FastCapSolver ref(in, ref_opts);
        for (std::size_t m = 0; m < in.memRatios.size(); ++m) {
            expectBitIdentical(
                fast.solveAtMemIndex(m), ref.solveAtMemIndex(m),
                "level " + std::to_string(m) + " distinct " +
                    std::to_string(distinct));
        }
    }
}

TEST(SolverHotPath, FullSolveBitIdenticalToReference)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const PolicyInputs in = classedInputs(48, 6, seed);
        FastCapSolver fast(in);
        SolverOptions ref_opts;
        ref_opts.referenceImpl = true;
        FastCapSolver ref(in, ref_opts);
        const SolveResult a = fast.solve();
        const SolveResult b = ref.solve();
        EXPECT_EQ(a.memIndex, b.memIndex) << "seed " << seed;
        expectBitIdentical(a.best, b.best,
                           "seed " + std::to_string(seed));
    }
}

TEST(SolverHotPath, SocketBudgetsBitIdenticalToReference)
{
    const PolicyInputs in = classedInputs(16, 4, 33);
    SolverOptions opts;
    opts.socketBudgets = {{0, 8, in.budget * 0.45},
                          {8, 8, in.budget * 0.55}};
    SolverOptions ref_opts = opts;
    ref_opts.referenceImpl = true;

    FastCapSolver fast(in, opts);
    FastCapSolver ref(in, ref_opts);
    const SolveResult a = fast.solve();
    const SolveResult b = ref.solve();
    EXPECT_EQ(a.memIndex, b.memIndex);
    expectBitIdentical(a.best, b.best, "socket solve");
}

/** EXPECT bit-equality (not just ==) of D, power and every ratio. */
void
expectSameBits(const InnerSolution &a, const InnerSolution &b,
               const std::string &what)
{
    EXPECT_EQ(doubleBits(a.d), doubleBits(b.d)) << what;
    EXPECT_EQ(doubleBits(a.predictedPower), doubleBits(b.predictedPower))
        << what;
    ASSERT_EQ(a.coreRatios.size(), b.coreRatios.size()) << what;
    for (std::size_t i = 0; i < a.coreRatios.size(); ++i)
        ASSERT_EQ(doubleBits(a.coreRatios[i]), doubleBits(b.coreRatios[i]))
            << what << " core " << i;
}

/** Cores at the floor, strictly inside the ladder, and at x = 1. */
struct RatioMix
{
    std::size_t floor = 0;
    std::size_t interior = 0;
    std::size_t one = 0;
};

RatioMix
ratioMix(const InnerSolution &sol, double min_ratio)
{
    RatioMix mix;
    for (const double x : sol.coreRatios) {
        if (x == 1.0)
            ++mix.one;
        else if (x == min_ratio)
            ++mix.floor;
        else
            ++mix.interior;
    }
    return mix;
}

/**
 * Every memory level, then the full search, on one optimised and one
 * reference solver: the saturated-term skip and the same-D reuse must
 * not move a bit. Returns the mix of every per-level solution.
 */
std::vector<RatioMix>
expectSaturatedBitsMatch(const PolicyInputs &in, SolverOptions opts,
                         const std::string &what)
{
    SolverOptions ref_opts = opts;
    ref_opts.referenceImpl = true;
    FastCapSolver fast(in, opts);
    FastCapSolver ref(in, ref_opts);
    std::vector<RatioMix> mixes;
    for (std::size_t m = 0; m < in.memRatios.size(); ++m) {
        const InnerSolution a = fast.solveAtMemIndex(m);
        expectSameBits(a, ref.solveAtMemIndex(m),
                       what + " level " + std::to_string(m));
        mixes.push_back(ratioMix(a, in.minCoreRatio()));
    }
    const SolveResult a = fast.solve();
    const SolveResult b = ref.solve();
    EXPECT_EQ(a.memIndex, b.memIndex) << what;
    expectSameBits(a.best, b.best, what + " solve");
    return mixes;
}

TEST(SolverHotPath, SaturatedTermsBitIdenticalToReference)
{
    Logger::global().level(LogLevel::Silent);

    // Budget below the floor power: every class pinned at x_min.
    PolicyInputs in = classedInputs(32, 8, 71);
    in.budget = in.staticPower() * 1.001;
    for (const RatioMix &mix :
         expectSaturatedBitsMatch(in, {}, "all at floor"))
        EXPECT_EQ(mix.floor, in.cores.size());

    // Ample budget on exactly representable model constants: at the
    // top memory level D = maxD = 1 and every class sits at x = 1.
    in = classedInputs(32, 8, 73);
    for (CoreModel &c : in.cores) {
        c.zbar = std::ldexp(std::round(std::ldexp(c.zbar, 30)), -30);
        c.cache = std::ldexp(1.0, -27);
    }
    in.memory.controllers[0].q = 1.0;
    in.memory.controllers[0].u = 1.0;
    in.memory.controllers[0].sm = std::ldexp(1.0, -25);
    in.memory.controllers[0].sbBar = std::ldexp(1.0, -29);
    in.budget *= 100.0;
    const std::vector<RatioMix> ample =
        expectSaturatedBitsMatch(in, {}, "all at one");
    EXPECT_EQ(ample.back().one, in.cores.size());
    for (const RatioMix &mix : ample)
        EXPECT_EQ(mix.floor, 0u);

    // A bus-dominated response time and a high frequency floor: at
    // the low memory levels, memory-bound classes reach x = 1 while
    // compute-bound ones sit at the floor and the rest in between.
    in = classedInputs(48, 12, 3);
    in.memory.controllers[0].sm = 2e-9;
    in.memory.controllers[0].sbBar = 20e-9;
    in.coreRatios = {0.6, 0.7, 0.8, 0.9, 1.0};
    double max_power = in.staticPower() + in.memory.pm;
    for (const CoreModel &c : in.cores)
        max_power += c.pi;
    in.budget = 0.8 * max_power;
    bool mixed = false;
    for (const RatioMix &mix :
         expectSaturatedBitsMatch(in, {}, "floor, interior and one"))
        mixed = mixed || (mix.floor > 0 && mix.interior > 0 && mix.one > 0);
    EXPECT_TRUE(mixed) << "no solution mixed all three kinds of class";

    // One-level core ladder: x_min == 1, so the floor and x = 1
    // branches coincide.
    in = classedInputs(32, 8, 79);
    in.coreRatios = {1.0};
    for (const RatioMix &mix :
         expectSaturatedBitsMatch(in, {}, "one-level ladder"))
        EXPECT_EQ(mix.one, in.cores.size());

    // Socket budgets: the socket probes overwrite part of the scratch
    // between the global root's last probe and the final terms at
    // that same D (when the global budget binds), or at a socket's D.
    in = classedInputs(16, 4, 83);
    for (const double share : {0.3, 0.6}) {
        SolverOptions opts;
        opts.socketBudgets = {{0, 8, in.budget * share},
                              {8, 8, in.budget * (1.2 - share)}};
        expectSaturatedBitsMatch(in, opts,
                                 "socket share " + std::to_string(share));
    }

    // A new x_b must not reuse the scratch: above the ladder top,
    // maxD pins at 1 (the binding class's R does not depend on x_b),
    // so an infeasible solve ends at the very D_lo the next solve
    // probes first, while the other class's ratio there moves with R.
    in = classedInputs(8, 2, 89);
    ControllerModel flat = in.memory.controllers[0];
    flat.u = 0.0;
    in.memory.controllers.insert(in.memory.controllers.begin(), flat);
    for (std::size_t i = 0; i < in.cores.size(); ++i)
        in.accessProbs[i] = i % 2 == 0 ? std::vector<double>{1.0, 0.0}
                                       : std::vector<double>{0.0, 1.0};
    in.coreRatios = {1e-6, 1.0};
    in.budget = in.staticPower() * 1.001;
    SolverOptions ref_opts;
    ref_opts.referenceImpl = true;
    FastCapSolver fast(in);
    FastCapSolver ref(in, ref_opts);
    for (const double x_b : {1.0, 1.5, 2.0, 1.25})
        expectSameBits(fast.solveAtMemRatio(x_b), ref.solveAtMemRatio(x_b),
                       "x_b " + std::to_string(x_b));

    Logger::global().level(LogLevel::Warn);
}

TEST(SolverHotPath, LazyFloorTermsBitIdenticalToReference)
{
    // A class's floor term is computed the first time it lands on
    // f_min and kept. One solver walks the memory levels top down and
    // back up: the first solves pin no class at the floor, later ones
    // pin some of them, at different levels different ones, and the
    // way back up reuses terms computed on the way down. Every inner
    // solve must match a reference solver bit for bit.
    Logger::global().level(LogLevel::Silent);
    PolicyInputs in = classedInputs(48, 12, 3);
    in.memory.controllers[0].sm = 2e-9;
    in.memory.controllers[0].sbBar = 20e-9;
    in.coreRatios = {0.6, 0.7, 0.8, 0.9, 1.0};
    double max_power = in.staticPower() + in.memory.pm;
    for (const CoreModel &c : in.cores)
        max_power += c.pi;
    in.budget = 0.8 * max_power;

    SolverOptions ref_opts;
    ref_opts.referenceImpl = true;
    FastCapSolver fast(in);
    FastCapSolver ref(in, ref_opts);
    const std::size_t m = in.memRatios.size();
    std::vector<std::size_t> order;
    for (std::size_t i = m; i-- > 0;)
        order.push_back(i);
    for (std::size_t i = 0; i < m; ++i)
        order.push_back(i);
    std::vector<RatioMix> mixes;
    for (const std::size_t level : order) {
        const InnerSolution a = fast.solveAtMemIndex(level);
        expectSameBits(a, ref.solveAtMemIndex(level),
                       "level " + std::to_string(level));
        mixes.push_back(ratioMix(a, in.minCoreRatio()));
    }
    // Down the levels: no floor, then some classes on it, then more
    // (whose terms are computed only then); each level below the top
    // has classes off the floor too.
    std::size_t first_floor = 0;
    while (first_floor < m && mixes[first_floor].floor == 0)
        ++first_floor;
    ASSERT_GT(first_floor, 0u);
    ASSERT_LT(first_floor + 1, m);
    EXPECT_LT(mixes[first_floor].floor, in.cores.size());
    EXPECT_GT(mixes[first_floor + 1].floor, mixes[first_floor].floor);
    EXPECT_LT(mixes[m - 1].floor, in.cores.size());
    Logger::global().level(LogLevel::Warn);
}

TEST(SolverHotPath, WarmStartPicksTheColdLevel)
{
    // Any hint — right, wrong, or out of range — must leave the
    // chosen level and solution identical to a cold search.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const PolicyInputs in = classedInputs(24, 3, seed * 101);
        FastCapSolver cold(in);
        const SolveResult want = cold.solve();

        for (std::size_t hint = 0; hint < in.memRatios.size();
             hint += 3) {
            SolverOptions opts;
            opts.warmStart.valid = true;
            opts.warmStart.memIndex = hint;
            FastCapSolver warm(in, opts);
            const SolveResult got = warm.solve();
            EXPECT_EQ(got.memIndex, want.memIndex)
                << "seed " << seed << " hint " << hint;
            expectBitIdentical(got.best, want.best,
                               "seed " + std::to_string(seed) +
                                   " hint " + std::to_string(hint));
        }
    }
}

TEST(SolverHotPath, AccurateWarmStartSkipsLevelProbes)
{
    const PolicyInputs in = classedInputs(24, 3, 5);
    FastCapSolver cold(in);
    const SolveResult want = cold.solve();

    SolverOptions opts;
    opts.warmStart.valid = true;
    opts.warmStart.memIndex = want.memIndex;
    FastCapSolver warm(in, opts);
    const SolveResult got = warm.solve();
    EXPECT_EQ(got.memIndex, want.memIndex);
    EXPECT_LE(got.evaluations, 3)
        << "confirming a correct hint needs the hint and its "
           "neighbours only";
    EXPECT_LE(got.evaluations, want.evaluations);
}

TEST(SolverHotPath, SaturatedLowSurfacesInfeasibleBudget)
{
    PolicyInputs in = classedInputs(16, 2, 3);
    in.budget = in.staticPower() * 1.001; // below any dynamic floor
    Logger::global().level(LogLevel::Silent);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    Logger::global().level(LogLevel::Warn);
    EXPECT_FALSE(res.best.budgetFeasible);
    EXPECT_TRUE(res.best.saturatedLow)
        << "infeasibility must be an explicit diagnostic";
    EXPECT_FALSE(res.best.saturatedHigh);
    EXPECT_LT(res.best.d, 0.0) << "penalty ordering preserved";
}

TEST(SolverHotPath, SaturatedHighSurfacesAmpleBudget)
{
    PolicyInputs in = classedInputs(16, 2, 3);
    in.budget = in.budget * 100.0; // more than all-max draw
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    EXPECT_TRUE(res.best.budgetFeasible);
    EXPECT_TRUE(res.best.saturatedHigh)
        << "budget above the level's ceiling clamps D at maxD";
    EXPECT_FALSE(res.best.saturatedLow);
}

/**
 * The governor benchmark's input shape: every core's parameters
 * drawn independently around compute-, balanced- and memory-bound
 * archetypes (all classes distinct), at a given fraction of the
 * all-max model power.
 */
PolicyInputs
governorShapedInputs(std::size_t n, double budget_fraction,
                     std::uint64_t seed)
{
    Rng rng(seed);
    PolicyInputs in;
    const double archetype[4][2] = {{500e-9, 800e-9},
                                    {250e-9, 500e-9},
                                    {80e-9, 200e-9},
                                    {15e-9, 40e-9}};
    in.cores.resize(n);
    for (CoreModel &c : in.cores) {
        const double *z = archetype[rng.below(4)];
        c.zbar = rng.uniform(z[0], z[1]);
        c.cache = rng.uniform(5e-9, 10e-9);
        c.pi = rng.uniform(1.2, 3.5);
        c.alpha = rng.uniform(2.3, 3.1);
        c.pStatic = rng.uniform(0.4, 0.6);
        c.ipa = rng.uniform(100.0, 2500.0);
    }
    ControllerModel ctl;
    ctl.q = rng.uniform(1.2, 1.8);
    ctl.u = rng.uniform(1.5, 2.2);
    ctl.sm = 33e-9;
    ctl.sbBar = 1.875e-9;
    in.memory.controllers = {ctl};
    in.memory.pm = 8.0 + 0.25 * static_cast<double>(n);
    in.memory.beta = 1.1;
    in.memory.pStatic = 12.0;
    in.accessProbs.assign(n, {1.0});
    for (int i = 0; i < 10; ++i) {
        const double x = i / 9.0;
        in.coreRatios.push_back(0.55 + 0.45 * x);
        in.memRatios.push_back(0.2575 + 0.7425 * x);
    }
    in.background = 10.0;

    double max_power = in.staticPower() + in.memory.pm;
    for (const CoreModel &c : in.cores)
        max_power += c.pi;
    in.budget = budget_fraction * max_power;
    return in;
}

TEST(SolverHotPath, BisectingInnerSolveHalvesResidualCalls)
{
    // solveMonotone replays the D bisection against a certified
    // bracket: same root, about half the residual calls, and fewer
    // again once a solve is seeded with the previous level's root
    // and skips f(d_hi), and once the pre-phase's probes are the
    // replay's own midpoints. The optimised and reference paths share
    // it, so only a count can see the gain go. The historical
    // bisection makes 22 calls per solve at the solver's tolerances;
    // unseeded certification ~10. Levels solved in ascending order
    // measure 6.04 calls per unsaturated solve; the bound allows one
    // more.
    int solves = 0;
    int calls = 0;
    for (const double fraction : {0.4, 0.6, 0.85}) {
        const PolicyInputs in = governorShapedInputs(1024, fraction, 1);
        FastCapSolver solver(in);
        for (std::size_t idx = 0; idx < in.memRatios.size(); ++idx) {
            const InnerSolution sol = solver.solveAtMemIndex(idx);
            if (sol.saturatedLow || sol.saturatedHigh)
                continue;
            EXPECT_LE(sol.rootIterations, 22)
                << "budget " << fraction << " level " << idx;
            ++solves;
            calls += sol.rootIterations;
        }
    }
    ASSERT_GT(solves, 10);
    EXPECT_LE(static_cast<double>(calls) / solves, 7.0)
        << solves << " bisecting inner solves";
}

TEST(SolverHotPath, InnerSolvesIndependentOfSolveOrder)
{
    // Each system-wide D solve is seeded with the root of the last
    // unsaturated one, so its call count depends on which levels came
    // before it. Nothing else may: every level solved in ascending,
    // descending and shuffled order returns the same bits. The
    // reference path is seeded the same way, so in any one order its
    // call counts match the class path's.
    for (const double fraction : {0.4, 0.6, 0.85}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const PolicyInputs in =
                governorShapedInputs(1024, fraction, seed);
            const std::size_t m = in.memRatios.size();
            std::vector<std::size_t> ascending(m);
            for (std::size_t i = 0; i < m; ++i)
                ascending[i] = i;
            std::vector<std::size_t> shuffled = ascending;
            Rng rng(seed);
            for (std::size_t i = m - 1; i > 0; --i)
                std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
            const std::vector<std::vector<std::size_t>> orders = {
                ascending, {ascending.rbegin(), ascending.rend()},
                shuffled};

            std::vector<InnerSolution> first;
            bool orders_differ_in_calls = false;
            for (const std::vector<std::size_t> &order : orders) {
                FastCapSolver solver(in);
                SolverOptions ref_opts;
                ref_opts.referenceImpl = true;
                FastCapSolver reference(in, ref_opts);
                std::vector<InnerSolution> sols(m);
                for (const std::size_t idx : order) {
                    sols[idx] = solver.solveAtMemIndex(idx);
                    const InnerSolution ref =
                        reference.solveAtMemIndex(idx);
                    EXPECT_EQ(ref.rootIterations, sols[idx].rootIterations)
                        << "budget " << fraction << " level " << idx;
                }
                if (first.empty()) {
                    first = std::move(sols);
                    continue;
                }
                for (std::size_t idx = 0; idx < m; ++idx) {
                    expectBitIdentical(
                        sols[idx], first[idx],
                        "budget " + std::to_string(fraction) + " seed " +
                            std::to_string(seed) + " level " +
                            std::to_string(idx));
                    orders_differ_in_calls |= sols[idx].rootIterations !=
                        first[idx].rootIterations;
                }
            }
            // The seeds really differ between orders.
            EXPECT_TRUE(orders_differ_in_calls)
                << "budget " << fraction << " seed " << seed;
        }
    }
}

TEST(SolverHotPath, RootIterationsSumEveryInnerSolve)
{
    // SolveResult::rootIterations (published as /solver/iterations)
    // counts the residual calls of every inner solve the search ran,
    // not only the chosen level's.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const PolicyInputs in = classedInputs(64, 64, seed);
        SolverOptions opts;
        opts.exhaustiveMemSearch = true;
        FastCapSolver exhaustive(in, opts);
        const SolveResult res = exhaustive.solve();

        FastCapSolver levels(in);
        const std::size_t floor_idx =
            minMemIndexForUtilisation(in, opts.maxBusUtilisation);
        int sum = 0;
        for (std::size_t idx = floor_idx; idx < in.memRatios.size(); ++idx)
            sum += levels.solveAtMemIndex(idx).rootIterations;
        EXPECT_EQ(res.rootIterations, sum) << "seed " << seed;
        EXPECT_GT(res.rootIterations, res.best.rootIterations);

        // The binary search runs a subset of those inner solves, in
        // its own order: each seeds the next, so the calls are the
        // ones the same levels make when solved in that order.
        FastCapSolver search(in);
        const SolveResult probed = search.solve();
        FastCapSolver replayed(in);
        std::vector<bool> solved(in.memRatios.size(), false);
        std::vector<double> d(in.memRatios.size());
        int search_sum = 0;
        const std::size_t idx = searchMemLevels(
            floor_idx, in.memRatios.size(), WarmStart{},
            [&](std::size_t level) {
                if (!solved[level]) {
                    const InnerSolution sol =
                        replayed.solveAtMemIndex(level);
                    search_sum += sol.rootIterations;
                    d[level] = sol.d;
                    solved[level] = true;
                }
                return d[level];
            });
        EXPECT_EQ(probed.memIndex, idx) << "seed " << seed;
        EXPECT_EQ(probed.evaluations, replayed.evaluations());
        EXPECT_LT(probed.evaluations, res.evaluations);
        EXPECT_EQ(probed.rootIterations, search_sum) << "seed " << seed;
        EXPECT_GT(probed.rootIterations, probed.best.rootIterations);
    }
}

TEST(SolverHotPath, RegistryPassesSolverOptionsThrough)
{
    const PolicyInputs in = classedInputs(8, 2, 9);
    SolverOptions ref_opts;
    ref_opts.referenceImpl = true;
    ref_opts.exhaustiveMemSearch = true;

    auto fast = makePolicy("FastCap");
    auto ref = makePolicy("FastCap", ref_opts);
    const PolicyDecision a = fast->decide(in);
    const PolicyDecision b = ref->decide(in);
    ASSERT_EQ(a.coreFreqIdx.size(), b.coreFreqIdx.size());
    for (std::size_t i = 0; i < a.coreFreqIdx.size(); ++i)
        EXPECT_EQ(a.coreFreqIdx[i], b.coreFreqIdx[i]);
    EXPECT_EQ(a.memFreqIdx, b.memFreqIdx);
    EXPECT_EQ(a.predictedPower, b.predictedPower);
    EXPECT_GT(b.evaluations, a.evaluations)
        << "exhaustive reference scans every level";
}

TEST(SolverHotPath, WarmExperimentMatchesColdStartBitForBit)
{
    // End to end: FastCapPolicy warm-starts from the second epoch on.
    // Every physical quantity of every epoch — frequencies, powers,
    // instruction rates, completions — must match a policy whose
    // warm state is wiped before each decision. Only the evaluation
    // count (the complexity metric the warm start exists to reduce)
    // may differ.
    ExperimentConfig cfg;
    cfg.budgetFraction = 0.6;
    cfg.targetInstructions = 5e6;
    cfg.maxEpochs = 40;

    SimConfig sim = SimConfig::defaultConfig(8);
    sim.seed = 0xc01dca5eULL;

    /** FastCap with the warm-start hint dropped before every epoch. */
    class ColdFastCap : public FastCapPolicy
    {
      public:
        PolicyDecision
        decide(const PolicyInputs &inputs) override
        {
            reset(); // forget the previous epoch
            return FastCapPolicy::decide(inputs);
        }
    };

    FastCapPolicy warm_policy;
    ColdFastCap cold_policy;
    const std::vector<AppProfile> apps =
        workloads::mix("MIX1", sim.numCores);

    ExperimentRunner warm_run(sim, apps, warm_policy, cfg);
    const ExperimentResult warm = warm_run.run();
    ExperimentRunner cold_run(sim, apps, cold_policy, cfg);
    const ExperimentResult cold = cold_run.run();

    ASSERT_EQ(warm.epochs.size(), cold.epochs.size());
    int warm_evals = 0;
    int cold_evals = 0;
    for (std::size_t e = 0; e < warm.epochs.size(); ++e) {
        const EpochRecord &w = warm.epochs[e];
        const EpochRecord &c = cold.epochs[e];
        ASSERT_EQ(w.coreFreqIdx, c.coreFreqIdx) << "epoch " << e;
        ASSERT_EQ(w.memFreqIdx, c.memFreqIdx) << "epoch " << e;
        ASSERT_EQ(w.totalPower, c.totalPower) << "epoch " << e;
        ASSERT_EQ(w.corePower, c.corePower) << "epoch " << e;
        ASSERT_EQ(w.memPower, c.memPower) << "epoch " << e;
        ASSERT_EQ(w.ips, c.ips) << "epoch " << e;
        ASSERT_EQ(w.budget, c.budget) << "epoch " << e;
        ASSERT_EQ(w.duration, c.duration) << "epoch " << e;
        warm_evals += w.evaluations;
        cold_evals += c.evaluations;
    }
    ASSERT_EQ(warm.apps.size(), cold.apps.size());
    for (std::size_t i = 0; i < warm.apps.size(); ++i) {
        EXPECT_EQ(warm.apps[i].completionTime,
                  cold.apps[i].completionTime);
        EXPECT_EQ(warm.apps[i].completed, cold.apps[i].completed);
    }
    EXPECT_LT(warm_evals, cold_evals)
        << "the warm start must actually skip level probes";
}

} // namespace
} // namespace fastcap
