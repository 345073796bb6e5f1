/**
 * @file
 * Tests for root finding and least-squares fitting — the numeric
 * engines behind the FastCap inner solve and the online model fitter —
 * including the oracle holding solveMonotone's certified bisection
 * replay to the historical bisection's bits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/math.hpp"
#include "util/rng.hpp"

#include "reference_fit.hpp"

namespace fastcap {
namespace {

TEST(SolveMonotone, FindsSimpleRoot)
{
    const auto f = [](double x) { return x * x - 4.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x, 2.0, 1e-9);
}

TEST(SolveMonotone, AcceptsRootAtEndpoint)
{
    const auto at_lo = [](double x) { return x - 1.0; };
    const RootResult lo = solveMonotone(at_lo, 1.0, 5.0);
    EXPECT_TRUE(lo.converged);
    EXPECT_FALSE(lo.saturated);
    EXPECT_DOUBLE_EQ(lo.x, 1.0);

    const auto at_hi = [](double x) { return x - 5.0; };
    const RootResult hi = solveMonotone(at_hi, 1.0, 5.0);
    EXPECT_TRUE(hi.converged);
    EXPECT_FALSE(hi.saturated);
    EXPECT_DOUBLE_EQ(hi.x, 5.0);
}

TEST(SolveMonotone, SwapsReversedBracket)
{
    const auto f = [](double x) { return x - 3.0; };
    const RootResult r = solveMonotone(f, 10.0, 0.0);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x, 3.0, 1e-9);
}

TEST(SolveMonotone, SaturatesLowWhenAlwaysPositive)
{
    // f(lo) > 0: even the lowest x overshoots the target.
    const auto f = [](double x) { return x + 1.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_DOUBLE_EQ(r.x, 0.0);
}

TEST(SolveMonotone, SaturatesHighWhenAlwaysNegative)
{
    const auto f = [](double x) { return x - 100.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_DOUBLE_EQ(r.x, 10.0);
}

TEST(SolveMonotone, FindsInteriorRoot)
{
    const auto f = [](double x) { return std::pow(x, 3.0) - 27.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x, 3.0, 1e-8);
}

// Regression: endpoint convergence used to leave iterations == 0
// even though the solve evaluated f, so callers metering cost could
// not tell a solved bracket from one never run.
TEST(SolveMonotone, EndpointConvergenceCountsEvaluations)
{
    // Residuals just below zero at lo and just above it at hi, both
    // within tol_f: roots found after evaluating both endpoints.
    const auto near_lo = [](double x) { return x - 1.0 - 1e-12; };
    const RootResult lo = solveMonotone(near_lo, 1.0, 5.0);
    EXPECT_TRUE(lo.converged);
    EXPECT_DOUBLE_EQ(lo.x, 1.0);
    EXPECT_EQ(lo.iterations, 2) << "f(lo) and f(hi) were evaluated";

    const auto near_hi = [](double x) { return x - 5.0 + 1e-12; };
    const RootResult hi = solveMonotone(near_hi, 1.0, 5.0);
    EXPECT_TRUE(hi.converged);
    EXPECT_DOUBLE_EQ(hi.x, 5.0);
    EXPECT_EQ(hi.iterations, 2);
}

TEST(SolveMonotone, InteriorRootCountsAllEvaluations)
{
    int calls = 0;
    const auto f = [&calls](double x) {
        ++calls;
        return std::cbrt(x - 3.0);
    };
    const RootResult r = solveMonotone(f, 0.0, 10.0, 1e-12, 1e-12);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, calls)
        << "iterations must equal the evaluations consumed";
    EXPECT_GT(r.iterations, 2);
}

// Regression (ISSUE 4): saturated endpoints used to report
// converged=true with a large residual, indistinguishable from a
// genuine root. The saturated flag makes infeasibility explicit.
TEST(SolveMonotone, FlagsSaturatedLowEndpoint)
{
    // An unseeded solve probes hi, then lo.
    const auto f = [](double x) { return x + 50.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.saturated) << "residual 50 at the clamp";
    EXPECT_DOUBLE_EQ(r.x, 0.0);
    EXPECT_EQ(r.iterations, 2);
}

TEST(SolveMonotone, FlagsSaturatedHighEndpoint)
{
    // f(hi) < -2 tol_f proves f(lo) < 0: one call.
    const auto f = [](double x) { return x - 100.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.saturated);
    EXPECT_DOUBLE_EQ(r.x, 10.0);
    EXPECT_EQ(r.iterations, 1);
}

TEST(SolveMonotone, GenuineEndpointRootIsNotSaturated)
{
    // f(lo) = 0 exactly: the clamp and the root coincide; this is a
    // solution, not a saturation diagnostic.
    const auto f = [](double x) { return x; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_FALSE(r.saturated);
    EXPECT_DOUBLE_EQ(r.x, 0.0);
}

TEST(SolveMonotone, InteriorRootIsNotSaturated)
{
    const auto f = [](double x) { return x - 4.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_FALSE(r.saturated);
    EXPECT_NEAR(r.x, 4.0, 1e-8);
}

TEST(FitLinear, ExactTwoPointFit)
{
    const std::vector<double> xs{1.0, 3.0};
    const std::vector<double> ys{2.0, 8.0};
    const LinearFit fit = fitLinear(xs, ys);
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.slope, 3.0, 1e-12);
    EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLinear, RejectsDegenerateInput)
{
    const std::vector<double> xs{2.0, 2.0};
    const std::vector<double> ys{1.0, 3.0};
    EXPECT_FALSE(fitLinear(xs, ys).valid);
    EXPECT_FALSE(fitLinear(std::vector<double>{1.0},
                           std::vector<double>{1.0}).valid);
}

TEST(FitLinear, NoisyFitRecoversSlope)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 50; ++i) {
        const double x = 0.1 * i;
        xs.push_back(x);
        ys.push_back(2.5 * x + 1.0 + ((i % 2) ? 0.01 : -0.01));
    }
    const LinearFit fit = fitLinear(xs, ys);
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.slope, 2.5, 0.01);
    EXPECT_GT(fit.r2, 0.999);
}

TEST(FitPowerLaw, RecoversExactPowerLaw)
{
    // y = 3.5 x^2.7 — the Eq. 2 shape.
    std::vector<double> xs, ys;
    for (double x : {0.55, 0.75, 1.0}) {
        xs.push_back(x);
        ys.push_back(3.5 * std::pow(x, 2.7));
    }
    const PowerLawFit fit = fitPowerLaw(xs, ys);
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.scale, 3.5, 1e-9);
    EXPECT_NEAR(fit.exponent, 2.7, 1e-9);
}

TEST(FitPowerLaw, IgnoresNonPositivePoints)
{
    const std::vector<double> xs{-1.0, 0.5, 1.0, 0.0};
    const std::vector<double> ys{5.0, std::sqrt(0.5) * 2.0, 2.0, 7.0};
    const PowerLawFit fit = fitPowerLaw(xs, ys);
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.exponent, 0.5, 1e-9);
    EXPECT_NEAR(fit.scale, 2.0, 1e-9);
}

TEST(FitPowerLaw, InvalidWithOneUsablePoint)
{
    const std::vector<double> xs{1.0};
    const std::vector<double> ys{2.0};
    EXPECT_FALSE(fitPowerLaw(xs, ys).valid);
}

TEST(ApproxEqual, RelativeToleranceSemantics)
{
    EXPECT_TRUE(approxEqual(1e9, 1e9 + 1.0, 1e-8));
    EXPECT_FALSE(approxEqual(1.0, 1.1, 1e-3));
    EXPECT_TRUE(approxEqual(0.0, 0.0));
}

/** Property sweep: monotone solve hits the budget across scales. */
class SolveMonotoneProperty
    : public ::testing::TestWithParam<double>
{};

TEST_P(SolveMonotoneProperty, RootResidualSmall)
{
    const double target = GetParam();
    const auto f = [target](double d) {
        // Shape of FastCap's inner residual: sum of power-law terms
        // minus a budget.
        return 10.0 * std::pow(d, 3.0) + 4.0 * d - target;
    };
    const RootResult r = solveMonotone(f, 1e-6, 1.0);
    ASSERT_TRUE(r.converged);
    if (f(1e-6) > 0.0) {
        EXPECT_DOUBLE_EQ(r.x, 1e-6);
    } else if (f(1.0) < 0.0) {
        EXPECT_DOUBLE_EQ(r.x, 1.0);
    } else {
        EXPECT_NEAR(f(r.x), 0.0, 1e-6 * std::max(1.0, target));
    }
}

INSTANTIATE_TEST_SUITE_P(Targets, SolveMonotoneProperty,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 13.9,
                                           14.0, 100.0));


// --- Replay oracle -------------------------------------------------
// solveMonotone skips the residual call at bisection midpoints its
// secant pre-phase has certified. It must still return exactly what
// the plain bisection returned; the reference below is that
// bisection, kept verbatim.

using Residual = std::function<double(double)>;

RootResult
historicalBisectCore(const Residual &f, double lo, double flo, double hi,
                     double fhi, double tol_x, double tol_f,
                     int max_iter, RootResult res)
{
    if (std::abs(flo) <= tol_f) {
        res.x = lo;
        res.fx = flo;
        res.converged = true;
        return res;
    }
    if (std::abs(fhi) <= tol_f) {
        res.x = hi;
        res.fx = fhi;
        res.converged = true;
        return res;
    }
    if (flo * fhi > 0.0) {
        if (std::abs(flo) < std::abs(fhi)) {
            res.x = lo;
            res.fx = flo;
        } else {
            res.x = hi;
            res.fx = fhi;
        }
        return res;
    }

    double mid = 0.5 * (lo + hi);
    double fmid = flo;
    for (int it = 0; it < max_iter; ++it) {
        mid = 0.5 * (lo + hi);
        fmid = f(mid);
        ++res.iterations;
        if (std::abs(fmid) <= tol_f || (hi - lo) * 0.5 <= tol_x) {
            res.x = mid;
            res.fx = fmid;
            res.converged = true;
            return res;
        }
        if (flo * fmid < 0.0) {
            hi = mid;
            fhi = fmid;
        } else {
            lo = mid;
            flo = fmid;
        }
    }
    if (max_iter <= 0) {
        res.x = std::abs(flo) < std::abs(fhi) ? lo : hi;
        res.fx = std::abs(flo) < std::abs(fhi) ? flo : fhi;
    } else {
        res.x = mid;
        res.fx = fmid;
    }
    res.converged = false;
    return res;
}

RootResult
historicalSolveMonotone(const Residual &f, double lo, double hi,
                        double tol_x, double tol_f, int max_iter)
{
    RootResult res;
    if (lo > hi)
        std::swap(lo, hi);

    const double flo = f(lo);
    res.iterations = 1;
    if (flo >= 0.0) {
        res.x = lo;
        res.fx = flo;
        res.converged = true;
        res.saturated = std::abs(flo) > tol_f;
        return res;
    }
    const double fhi = f(hi);
    res.iterations = 2;
    if (fhi <= 0.0) {
        res.x = hi;
        res.fx = fhi;
        res.converged = true;
        res.saturated = std::abs(fhi) > tol_f;
        return res;
    }
    return historicalBisectCore(f, lo, flo, hi, fhi, tol_x, tol_f,
                                max_iter, res);
}

/** One oracle case: a residual on a bracket, with its tolerances. */
struct ReplayCase
{
    Residual f;
    double lo = 0.0;
    double hi = 1.0;
    double tolX = 1e-12;
    double tolF = 1e-9;
    int maxIter = 200;
    /** The exact root, where the family knows it; NaN otherwise. */
    double root = std::numeric_limits<double>::quiet_NaN();
};

std::string
describe(const ReplayCase &c)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "[%.17g, %.17g] tol_x %.3g tol_f %.3g max_iter %d",
                  c.lo, c.hi, c.tolX, c.tolF, c.maxIter);
    return buf;
}

/** EXPECT the bits of two results (not the call counts) to agree. */
void
expectSameBits(const RootResult &got, const RootResult &want,
               const std::string &what)
{
    EXPECT_EQ(doubleBits(got.x), doubleBits(want.x)) << what;
    EXPECT_EQ(doubleBits(got.fx), doubleBits(want.fx)) << what;
    EXPECT_EQ(got.converged, want.converged) << what;
    EXPECT_EQ(got.saturated, want.saturated) << what;
}

/** Call totals of the two solvers over a set of cases. */
struct ReplayTally
{
    long calls = 0;
    long historical = 0;
    int cases = 0;
    int failures = 0;
};

/**
 * Run both solvers on one case, the new one from `seed`, and compare:
 * same bits, `iterations` equal to the calls made, and at most the
 * pre-phase's worst case (16 secant steps, one call each) above the
 * historical count. Returns the new solver's result.
 */
RootResult
checkReplay(const ReplayCase &c, const std::string &family,
            ReplayTally &tally, const RootSeed &seed = {})
{
    int calls = 0;
    const Residual counted = [&](double x) {
        ++calls;
        return c.f(x);
    };
    const RootResult got = solveMonotone(counted, c.lo, c.hi, c.tolX,
                                         c.tolF, c.maxIter, seed);
    const RootResult want = historicalSolveMonotone(
        c.f, c.lo, c.hi, c.tolX, c.tolF, c.maxIter);
    ++tally.cases;
    tally.calls += got.iterations;
    tally.historical += want.iterations;
    const bool same = doubleBits(got.x) == doubleBits(want.x) &&
                      doubleBits(got.fx) == doubleBits(want.fx) &&
                      got.converged == want.converged &&
                      got.saturated == want.saturated &&
                      got.iterations == calls &&
                      calls <= want.iterations + 16;
    // Report the first few failures in full; the count says the rest.
    if (same || ++tally.failures > 5)
        return got;
    char buf[96];
    std::snprintf(buf, sizeof(buf), " seed %.17g slope %.17g", seed.x,
                  seed.slope);
    const std::string what = family + " " + describe(c) + buf;
    expectSameBits(got, want, what);
    EXPECT_EQ(got.iterations, calls) << what;
    EXPECT_LE(calls, want.iterations + 16) << what;
    return got;
}

/**
 * A seed of every kind the contract names: inside the bracket, at
 * the root (exact where the family knows it, else the unseeded
 * solve's), within a few tol_x of it, at and beyond either endpoint,
 * NaN and +-inf; with no slope, the unseeded solve's own bracket
 * slope, a neighbour's (that slope scaled by up to 8x either way),
 * zero, negative, +-inf, and magnitudes from 1e-300 to 1e300.
 */
RootSeed
randomSeed(Rng &rng, const ReplayCase &c, const RootResult &plain)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double root = std::isnan(c.root) ? plain.x : c.root;
    const double width = c.hi - c.lo;
    RootSeed seed;
    switch (rng.below(9)) {
      case 0: seed.x = rng.uniform(c.lo, c.hi); break;
      case 1: seed.x = root; break;
      case 2: seed.x = root + rng.uniform(-4.0, 4.0) * c.tolX; break;
      case 3: seed.x = c.lo; break;
      case 4: seed.x = c.hi; break;
      case 5: seed.x = c.lo - rng.uniform(0.0, 1.0) * width; break;
      case 6: seed.x = c.hi + rng.uniform(0.0, 1.0) * width; break;
      case 7: seed.x = nan; break;
      default: seed.x = rng.below(2) == 0 ? inf : -inf; break;
    }
    switch (rng.below(7)) {
      case 0: break;
      case 1: seed.slope = plain.slope; break;
      case 2: seed.slope = plain.slope * std::exp2(rng.uniform(-3.0, 3.0));
              break;
      case 3: seed.slope = -rng.uniform(0.0, 1.0) * std::abs(plain.slope);
              break;
      case 4: seed.slope = rng.below(2) == 0 ? inf : -inf; break;
      default: seed.slope = std::pow(10.0, rng.uniform(-300.0, 300.0));
               break;
    }
    return seed;
}

/** max_iter in {0, ..., 9, 200}; tol_x, tol_f in 1e-14..1e-2. */
void
randomTolerances(Rng &rng, ReplayCase &c)
{
    const std::uint64_t pick = rng.below(11);
    c.maxIter = pick == 10 ? 200 : static_cast<int>(pick);
    c.tolX = std::pow(10.0, rng.uniform(-14.0, -2.0));
    c.tolF = std::pow(10.0, rng.uniform(-14.0, -2.0));
}

/**
 * FastCap's inner residual in D: sum_i P_i clip(z̄_i / (T_i/D - k_i))
 * ^ alpha_i + S - B, with the frequency floor x_min, the ceiling x = 1
 * and the solver's pow(1, alpha) shortcut, on [d_hi 1e-4, d_hi]. With
 * `solver_tolerances` the solve uses the solver's own settings.
 */
ReplayCase
solverShaped(Rng &rng, bool solver_tolerances)
{
    const std::size_t n = 1 + rng.below(16);
    std::vector<double> pi(n), zbar(n), k(n), t(n), alpha(n);
    const double x_min = rng.uniform(0.3, 0.7);
    double sum_pi = 0.0;
    double d_hi = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
        pi[i] = rng.uniform(0.5, 3.5);
        zbar[i] = rng.uniform(15e-9, 800e-9);
        k[i] = rng.uniform(5e-9, 60e-9);
        t[i] = (zbar[i] + k[i]) * rng.uniform(0.9, 1.3);
        alpha[i] = rng.uniform(2.2, 3.1);
        sum_pi += pi[i];
        d_hi = std::min(d_hi, t[i] / (zbar[i] + k[i]));
    }
    const double s = rng.uniform(5.0, 20.0);
    const double b = s + rng.uniform(0.15, 1.1) * sum_pi;

    ReplayCase c;
    c.f = [=](double d) {
        double p = s;
        for (std::size_t i = 0; i < n; ++i) {
            const double z = t[i] / d - k[i];
            double x = 1.0;
            if (z > zbar[i])
                x = std::max(zbar[i] / z, x_min);
            p += x == 1.0 ? pi[i] : pi[i] * std::pow(x, alpha[i]);
        }
        return p - b;
    };
    c.lo = d_hi * 1e-4;
    c.hi = d_hi;
    if (solver_tolerances) {
        c.tolX = d_hi * 1e-6;
        c.tolF = b * 1e-9;
        c.maxIter = 200;
    } else {
        randomTolerances(rng, c);
    }
    return c;
}

/** A bracket around 0 of random width and offset. */
void
randomBracket(Rng &rng, ReplayCase &c)
{
    c.lo = rng.uniform(-2.0, 0.0);
    c.hi = rng.uniform(0.5, 3.0);
}

/** c (x - r)^3: a root so flat that tol_f covers a wide interval. */
ReplayCase
flatCubic(Rng &rng)
{
    ReplayCase c;
    randomBracket(rng, c);
    const double r = rng.uniform(c.lo, c.hi);
    const double scale = std::pow(10.0, rng.uniform(-3.0, 3.0));
    c.f = [=](double x) {
        const double u = x - r;
        return scale * (u * u * u);
    };
    c.root = r;
    randomTolerances(rng, c);
    return c;
}

/** tanh(k (x - r)) up to k = 1e6: a near-step. */
ReplayCase
steepTanh(Rng &rng)
{
    ReplayCase c;
    randomBracket(rng, c);
    const double r = rng.uniform(c.lo, c.hi);
    const double k = std::pow(10.0, rng.uniform(1.0, 6.0));
    c.f = [=](double x) { return std::tanh(k * (x - r)); };
    c.root = r;
    randomTolerances(rng, c);
    return c;
}

/** A monotone staircase, sometimes with a plateau exactly at 0. */
ReplayCase
staircase(Rng &rng)
{
    ReplayCase c;
    randomBracket(rng, c);
    const std::size_t m = 2 + rng.below(8);
    std::vector<double> level(m), edge(m - 1);
    for (double &v : level)
        v = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-13.0, 0.0));
    std::sort(level.begin(), level.end());
    if (rng.below(3) == 0) {
        // Zeroing the level nearest 0 keeps the staircase sorted.
        *std::min_element(level.begin(), level.end(),
                          [](double p, double q) {
                              return std::abs(p) < std::abs(q);
                          }) = 0.0;
    }
    for (double &e : edge)
        e = rng.uniform(c.lo, c.hi);
    std::sort(edge.begin(), edge.end());
    c.f = [=](double x) {
        return level[static_cast<std::size_t>(
            std::upper_bound(edge.begin(), edge.end(), x) -
            edge.begin())];
    };
    randomTolerances(rng, c);
    return c;
}

/** s (x - r) with r a bisection midpoint of [0, 2^e]; tol_f 0 or 1e-12. */
ReplayCase
dyadicRoot(Rng &rng)
{
    ReplayCase c;
    c.lo = 0.0;
    c.hi = std::ldexp(1.0, static_cast<int>(rng.below(6)) - 2);
    const int depth = 1 + static_cast<int>(rng.below(20));
    const double r = c.hi *
        std::ldexp(static_cast<double>(2 * rng.below(std::uint64_t{1}
                                                      << (depth - 1)) + 1),
                   -depth);
    const double slope = std::pow(10.0, rng.uniform(-3.0, 3.0));
    c.f = [=](double x) { return slope * (x - r); };
    c.root = r;
    randomTolerances(rng, c);
    c.tolF = rng.below(2) == 0 ? 0.0 : 1e-12;
    return c;
}

/** expm1(k (x - r)): flat left, overflowing to +inf on the right. */
ReplayCase
steepExpm1(Rng &rng)
{
    ReplayCase c;
    randomBracket(rng, c);
    const double r = rng.uniform(c.lo, c.hi);
    const double k = std::pow(10.0, rng.uniform(0.0, 3.0));
    c.f = [=](double x) { return std::expm1(k * (x - r)); };
    c.root = r;
    randomTolerances(rng, c);
    return c;
}

TEST(SolveMonotone, ReplayBitIdenticalToHistoricalBisection)
{
    constexpr int kPerFamily = 17000;
    constexpr int kSeedsPerCase = 3;
    Rng rng(20261017);
    // Seeds come from their own stream, so the cases stay the ones
    // the unseeded oracle has always run.
    Rng seed_rng(20261018);
    ReplayTally solver_at_own_tolerances, bisecting, seeded;
    const auto run = [&](const std::string &family,
                         const std::function<ReplayCase()> &make) {
        ReplayTally tally, seeded_tally;
        for (int i = 0; i < kPerFamily; ++i) {
            const ReplayCase c = make();
            const RootResult plain = checkReplay(c, family, tally);
            for (int k = 0; k < kSeedsPerCase; ++k)
                checkReplay(c, family + " seeded", seeded_tally,
                            randomSeed(seed_rng, c, plain));
        }
        EXPECT_EQ(tally.failures, 0) << family << ": of " << tally.cases;
        EXPECT_EQ(seeded_tally.failures, 0)
            << family << " seeded: of " << seeded_tally.cases;
    };
    run("solver-shaped", [&] { return solverShaped(rng, false); });
    run("flat cubic", [&] { return flatCubic(rng); });
    run("steep tanh", [&] { return steepTanh(rng); });
    run("staircase", [&] { return staircase(rng); });
    run("dyadic root", [&] { return dyadicRoot(rng); });
    run("steep expm1", [&] { return steepExpm1(rng); });

    // The gain itself, at the settings FastCap's inner solve uses:
    // over the solves that bisect, at most 0.5x the historical calls
    // unseeded (0.43 measured). Seeded the way the solver seeds a
    // neighbouring memory level (a root up to 2% away, its slope off
    // by up to 25%), they make at most 6.5 calls on average (5.86
    // measured).
    for (int i = 0; i < kPerFamily; ++i) {
        const ReplayCase c = solverShaped(rng, true);
        ReplayTally one;
        const RootResult plain = checkReplay(c, "solver tolerances", one);
        solver_at_own_tolerances.failures += one.failures;
        if (one.historical > 2) {
            bisecting.cases += 1;
            bisecting.calls += one.calls;
            bisecting.historical += one.historical;
            RootSeed neighbour;
            neighbour.x = plain.x * (1.0 + seed_rng.uniform(-0.02, 0.02));
            neighbour.slope =
                plain.slope * seed_rng.uniform(1.0 / 1.25, 1.25);
            checkReplay(c, "solver tolerances seeded", seeded, neighbour);
        }
    }
    EXPECT_EQ(solver_at_own_tolerances.failures, 0);
    EXPECT_EQ(seeded.failures, 0);
    ASSERT_GT(bisecting.cases, kPerFamily / 4);
    EXPECT_LE(static_cast<double>(bisecting.calls),
              0.5 * static_cast<double>(bisecting.historical))
        << bisecting.cases << " bisecting solves";
    ASSERT_EQ(seeded.cases, bisecting.cases);
    EXPECT_LE(static_cast<double>(seeded.calls), 6.5 * seeded.cases)
        << seeded.cases << " seeded bisecting solves";
}

TEST(SolveMonotone, ReplayFollowsNanAtAnEvaluatedMidpoint)
{
    // A NaN where the replay calls f turns skipping off: from there
    // the historical loop runs unchanged (flo * NaN < 0 is false, so
    // every later midpoint moves lo). Inject it at every point the
    // clean replay evaluates that the bisection also visits.
    Rng rng(7);
    int injected = 0;
    for (int i = 0; i < 40; ++i) {
        ReplayCase c = i % 2 ? solverShaped(rng, true) : flatCubic(rng);
        c.maxIter = 200;
        std::vector<double> evaluated, midpoints;
        solveMonotone(
            [&](double x) {
                evaluated.push_back(x);
                return c.f(x);
            },
            c.lo, c.hi, c.tolX, c.tolF, c.maxIter);
        historicalSolveMonotone(
            [&](double x) {
                midpoints.push_back(x);
                return c.f(x);
            },
            c.lo, c.hi, c.tolX, c.tolF, c.maxIter);
        if (midpoints.size() <= 2)
            continue; // clamped at an endpoint: no midpoints
        for (const double p : evaluated) {
            if (std::find(midpoints.begin() + 2, midpoints.end(), p) ==
                midpoints.end())
                continue;
            const Residual nan_at_p = [&](double x) {
                return x == p ? std::numeric_limits<double>::quiet_NaN()
                              : c.f(x);
            };
            int calls = 0;
            const RootResult got = solveMonotone(
                [&](double x) {
                    ++calls;
                    return nan_at_p(x);
                },
                c.lo, c.hi, c.tolX, c.tolF, c.maxIter);
            const RootResult want = historicalSolveMonotone(
                nan_at_p, c.lo, c.hi, c.tolX, c.tolF, c.maxIter);
            expectSameBits(got, want, describe(c));
            EXPECT_EQ(got.iterations, calls);
            ++injected;
        }
    }
    EXPECT_GT(injected, 100);
}

TEST(SolveMonotone, NonFiniteEndpointsRunTheHistoricalLoop)
{
    // No certified bracket without finite endpoint residuals: the
    // loop runs as it always has, call for call. A seed changes that
    // only at hi: a non-finite f(lo) keeps the seed out (NaN would
    // flip the first bisection branch), while a certified upper bound
    // skips f(hi), and with it hi's NaN or +inf, which the replay
    // never reads. The bits stay the historical ones either way.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    struct Case
    {
        Residual f;
        bool bad_lo;
    };
    const std::vector<Case> cases = {
        {[&](double x) { return x <= 0.0 ? -inf : x - 0.3; }, true},
        {[&](double x) { return x >= 1.0 ? inf : x - 0.3; }, false},
        {[&](double x) { return x <= 0.0 ? nan : x - 0.3; }, true},
        {[&](double x) { return x >= 1.0 ? nan : x - 0.3; }, false},
        {[&](double x) { return std::expm1(2000.0 * (x - 0.3)); }, false},
    };
    const std::vector<RootSeed> seeds = {
        RootSeed{}, RootSeed{0.25}, RootSeed{0.3}, RootSeed{0.7, 1.0},
        RootSeed{0.999, 0.5}};
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const RootResult want = historicalSolveMonotone(
            cases[i].f, 0.0, 1.0, 1e-12, 1e-9, 200);
        for (const RootSeed &seed : seeds) {
            int calls = 0;
            const RootResult got = solveMonotone(
                [&](double x) {
                    ++calls;
                    return cases[i].f(x);
                },
                0.0, 1.0, 1e-12, 1e-9, 200, seed);
            const std::string what = "case " + std::to_string(i) +
                " seed " + std::to_string(seed.x);
            expectSameBits(got, want, what);
            EXPECT_EQ(got.iterations, calls) << what;
            if (std::isnan(seed.x) || cases[i].bad_lo)
                EXPECT_EQ(got.iterations, want.iterations) << what;
            else
                EXPECT_LE(got.iterations, want.iterations + 16) << what;
        }
    }
}

TEST(SolveMonotone, SeededSolveSkipsOnlyACertifiedHiProbe)
{
    // A seeded solve calls f(lo) first. f(hi) follows only when no
    // probe has certified an upper bound: here the seed sits below
    // the root and its slope step overshoots past hi, so the solve
    // needs f(hi) after all (and saturates on it).
    std::vector<double> probed;
    const auto below = [&](double x) {
        probed.push_back(x);
        return x - 2.0;
    };
    const RootResult sat =
        solveMonotone(below, 0.0, 1.0, 1e-12, 1e-9, 200, {0.5, 1.0});
    EXPECT_TRUE(sat.saturated);
    EXPECT_EQ(sat.x, 1.0);
    ASSERT_EQ(probed.size(), 3u);
    EXPECT_EQ(probed[0], 0.0);
    EXPECT_EQ(probed[1], 0.5);
    EXPECT_EQ(probed[2], 1.0);

    probed.clear();
    const auto line = [&](double x) {
        probed.push_back(x);
        return x - 0.3;
    };
    const RootResult root =
        solveMonotone(line, 0.0, 1.0, 1e-12, 1e-9, 200, {0.31, 1.0});
    EXPECT_FALSE(root.saturated);
    EXPECT_EQ(probed.front(), 0.0);
    EXPECT_EQ(probed[1], 0.31);
    EXPECT_EQ(std::count(probed.begin(), probed.end(), 1.0), 0);
    EXPECT_NEAR(root.x, 0.3, 1e-9);
    EXPECT_NEAR(root.slope, 1.0, 1e-6);
}

TEST(SolveMonotone, UnseededSolveProbesHiFirst)
{
    // f(hi) < -2 tol_f proves f(lo) < 0 (a NaN f(lo) takes the same
    // path), so the historical saturate-high result comes back after
    // one call. Closer to zero, f(lo) is still needed, and the rest
    // of the solve runs as before.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<Residual> saturating = {
        [](double x) { return x - 2.0; },
        [&](double x) { return x <= 0.0 ? nan : x - 2.0; },
    };
    for (const Residual &f : saturating) {
        std::vector<double> probed;
        const RootResult got = solveMonotone(
            [&](double x) {
                probed.push_back(x);
                return f(x);
            },
            0.0, 1.0, 1e-12, 1e-9, 200);
        expectSameBits(got, historicalSolveMonotone(f, 0.0, 1.0, 1e-12,
                                                    1e-9, 200),
                       "saturating");
        EXPECT_TRUE(got.saturated);
        ASSERT_EQ(probed.size(), 1u);
        EXPECT_EQ(probed[0], 1.0);
        EXPECT_EQ(got.iterations, 1);
    }
    for (const double offset : {1.5e-9, 2e-9, 0.0, -1e-9, -1.9e-9}) {
        const Residual f = [=](double x) { return x - 1.0 + offset; };
        std::vector<double> probed;
        const RootResult got = solveMonotone(
            [&](double x) {
                probed.push_back(x);
                return f(x);
            },
            0.0, 1.0, 1e-12, 1e-9, 200);
        const std::string what = "offset " + std::to_string(offset);
        expectSameBits(got, historicalSolveMonotone(f, 0.0, 1.0, 1e-12,
                                                    1e-9, 200),
                       what);
        ASSERT_GE(probed.size(), 2u) << what;
        EXPECT_EQ(probed[0], 1.0) << what;
        EXPECT_EQ(probed[1], 0.0) << what;
    }
}

TEST(SolveMonotone, WideResidualToleranceStillCertifies)
{
    // tol_f / f' far above tol_x: points within tol_x of the root
    // also lie within 2 tol_f of zero and certify nothing. The
    // pre-phase's probes are the replay's midpoints, chosen with the
    // slope in view, so the solve still makes fewer calls than the
    // historical bisection (30), which stops at the first midpoint
    // within tol_f.
    const Residual line = [](double x) { return x - 0.3; };
    const RootResult want =
        historicalSolveMonotone(line, 0.0, 1.0, 1e-12, 1e-9, 200);
    ASSERT_EQ(want.iterations, 30);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const RootSeed &seed :
         {RootSeed{}, RootSeed{0.25}, RootSeed{0.25, 1.0},
          RootSeed{0.3, 1.0}, RootSeed{0.7, nan}}) {
        std::vector<double> probed;
        const RootResult got = solveMonotone(
            [&](double x) {
                probed.push_back(x);
                return line(x);
            },
            0.0, 1.0, 1e-12, 1e-9, 200, seed);
        const std::string what = "seed " + std::to_string(seed.x);
        expectSameBits(got, want, what);
        EXPECT_LE(got.iterations, 30) << what;
        std::sort(probed.begin(), probed.end());
        EXPECT_EQ(std::adjacent_find(probed.begin(), probed.end()),
                  probed.end())
            << what << ": a point was evaluated twice";
    }
}

TEST(SolveMonotone, PrephaseValuesServeTheReplay)
{
    // The pre-phase's probes after the seed are the replay's own
    // midpoints, and the replay takes their values instead of calling
    // f again: at the solver's settings, no point is evaluated twice.
    Rng rng(20261019);
    for (int i = 0; i < 400; ++i) {
        const ReplayCase c = solverShaped(rng, true);
        const RootResult plain =
            solveMonotone(c.f, c.lo, c.hi, c.tolX, c.tolF, c.maxIter);
        RootSeed neighbour;
        neighbour.x = plain.x * (1.0 + rng.uniform(-0.02, 0.02));
        neighbour.slope = plain.slope * rng.uniform(1.0 / 1.25, 1.25);
        for (const RootSeed &seed : {RootSeed{}, neighbour}) {
            std::vector<double> probed;
            const RootResult got = solveMonotone(
                [&](double x) {
                    probed.push_back(x);
                    return c.f(x);
                },
                c.lo, c.hi, c.tolX, c.tolF, c.maxIter, seed);
            expectSameBits(got, plain, describe(c));
            std::sort(probed.begin(), probed.end());
            EXPECT_EQ(std::adjacent_find(probed.begin(), probed.end()),
                      probed.end())
                << describe(c) << ": a point was evaluated twice";
        }
    }
}

} // namespace
} // namespace fastcap
