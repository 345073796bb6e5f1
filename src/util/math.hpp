/**
 * @file
 * Numerical routines used by the FastCap solver: monotone root
 * finding and exact-bits and tolerance comparisons.
 */

#ifndef FASTCAP_UTIL_MATH_HPP
#define FASTCAP_UTIL_MATH_HPP

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

namespace fastcap {

/**
 * Bit pattern of a double: the *exact* equality key (-0.0 != 0.0,
 * NaNs by payload) used wherever "same value" must mean "same bits" —
 * solver equivalence classes, cache keys.
 */
inline std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Result of a 1-D root solve. */
struct RootResult
{
    double x = 0.0;        //!< located root (or best bracket midpoint)
    double fx = 0.0;       //!< residual f(x)
    /**
     * Function evaluations consumed, counted in every return path
     * (endpoint pre-checks included) so callers can meter cost even
     * when the solve exits before the main loop.
     */
    int iterations = 0;
    bool converged = false;
    /**
     * The solve clamped to a bracket endpoint whose residual exceeds
     * tol_f: no root lies inside [lo, hi]. Distinguishes a genuine
     * root at an endpoint (converged, !saturated) from a solve pinned
     * against the bracket (converged, saturated, |fx| large) — e.g. a
     * power budget below the platform's floor power.
     */
    bool saturated = false;
    /**
     * f's slope across the bracket the bisection skipped against,
     * (f(b) - f(a)) / (b - a); NaN when the solve certified none.
     * With x, it seeds a neighbouring solve.
     */
    double slope = std::numeric_limits<double>::quiet_NaN();
};

/**
 * Where a seeded solve starts: a point near the root, such as the
 * root of a neighbouring problem, and f's slope there. The default
 * seeds nothing.
 */
struct RootSeed
{
    double x = std::numeric_limits<double>::quiet_NaN();
    double slope = std::numeric_limits<double>::quiet_NaN();
};

/**
 * Solve f(x) = 0 for an f on [lo, hi] that is non-decreasing up to
 * rounding below tol_f, clamping to the endpoints when the root lies
 * outside the bracket: returns lo if f(lo) >= 0, hi if f(hi) <= 0. A
 * clamped solve whose endpoint residual exceeds tol_f reports
 * saturated = true (still converged: the clamp IS the answer for a
 * monotone f, but it is not a root and callers must not treat the
 * residual as small).
 *
 * Otherwise the result is the bisection's: midpoints of [lo, hi]
 * until |f(mid)| <= tol_f or the half-width is <= tol_x (converged),
 * or until max_iter midpoints (not converged, last midpoint). A short
 * secant pre-phase first certifies a bracket around the root, probing
 * the bisection's own midpoints, and the bisection then skips the
 * call at every midpoint outside the bracket, whose branch is already
 * known, and at every midpoint the pre-phase evaluated, whose value
 * it takes over; x, fx and the flags keep the same bits, only
 * `iterations` — the calls actually made — drops.
 *
 * An unseeded solve calls f(hi) first: a value below -2 tol_f proves
 * f(lo) < 0 by monotonicity (a NaN f(lo) would take the same path),
 * so it returns saturated at hi after that one call.
 *
 * A `seed` strictly inside (lo, hi) starts the pre-phase there, after
 * f(lo): it evaluates seed.x first, and its first step follows
 * seed.slope when that is positive and finite (the secant through lo
 * otherwise). Once the pre-phase has certified an upper bound (a
 * point with f > 2 tol_f), f(hi) is not called at all: by
 * monotonicity f(hi) > tol_f, so neither endpoint branch applies, and
 * the bisection never reads it. f(lo) is always called: a seed is
 * used only when f(lo) is finite and below -tol_f (a NaN would flip
 * the bisection's first branch; a root at lo needs f(hi) to tell),
 * with tol_f > 0 and max_iter > 0. A seed at or beyond an endpoint,
 * or NaN, seeds nothing. The seed only moves where the pre-phase looks,
 * so every result bit is the unseeded one; `iterations` depends on
 * the seed, and so on the order a caller runs related solves in.
 *
 * This is the shape of FastCap's inner solve: total power is
 * increasing in the performance factor D, and budgets above/below the
 * achievable range saturate at the frequency-ladder ends.
 */
RootResult solveMonotone(const std::function<double(double)> &f,
                         double lo, double hi,
                         double tol_x = 1e-12, double tol_f = 1e-9,
                         int max_iter = 200, const RootSeed &seed = {});

/** True if |a - b| <= tol * max(1, |a|, |b|). */
bool approxEqual(double a, double b, double tol = 1e-9);

} // namespace fastcap

#endif // FASTCAP_UTIL_MATH_HPP
