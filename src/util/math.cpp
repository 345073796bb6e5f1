#include "util/math.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace fastcap {

namespace {

/** Cap on the secant pre-phase's steps, one call each. */
constexpr int kMaxSecantSteps = 16;

/**
 * solveMonotone's pre-phase state: the replay's bracket [lo, hi], the
 * bracket [a, b] the pre-phase certifies, and the last two points its
 * secant runs through. b starts at hi, whose residual a seeded solve
 * may never evaluate. The secant's points are the replay's own
 * midpoints, and their values are kept here for the replay.
 */
struct Prephase
{
    double lo, hi;
    int maxIter;
    double a, fa;
    double b, fb;
    bool fbKnown; //!< fb holds f(b): f(hi) was called or b moved
    double x0, f0, x1, f1;
    int steps;
    int kept;
    std::array<double, kMaxSecantSteps> keptX, keptF;

    /** f at x, if x is a midpoint the pre-phase evaluated. */
    const double *
    keptAt(double x) const
    {
        for (int i = 0; i < kept; ++i)
            if (doubleBits(keptX[i]) == doubleBits(x))
                return &keptF[i];
        return nullptr;
    }
};

/** How a pre-phase run ended. */
enum class Certify { kDone, kNeedsHi, kNonFinite };

/**
 * The replay's next call, predicted from a root estimate `x` and f's
 * slope there: runs the replay's recurrence from [lo, hi], taking a
 * midpoint's branch from [a, b] or a kept value where they fix it,
 * and elsewhere from the side of x it lies on, until a midpoint whose
 * predicted |f| is within tol_f or the last one. Of the midpoints the
 * replay would call f at, the nearest to x on either side fix every
 * other one's branch once their values land on the predicted sides;
 * the one the replay ends on is returned last. NaN when the replay
 * would call f nowhere.
 */
double
nextReplayCall(const Prephase &p, double x, double slope, double tol_x,
               double tol_f)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    double lo = p.lo;
    double hi = p.hi;
    double below = nan;
    double above = nan;
    for (int it = 0; it < p.maxIter; ++it) {
        const double mid = 0.5 * (lo + hi);
        const bool narrow = (hi - lo) * 0.5 <= tol_x;
        const bool last = narrow || it + 1 == p.maxIter;
        bool up = false; // hi = mid: the replay's branch for f(mid) > 0
        if (!last && mid <= p.a) {
            up = false;
        } else if (!last && mid >= p.b) {
            up = true;
        } else if (const double *fmid = p.keptAt(mid)) {
            if (std::abs(*fmid) <= tol_f || narrow)
                break;
            up = *fmid > 0.0;
        } else {
            up = mid >= x;
            if (last || (slope > 0.0 && std::abs(mid - x) * slope <= tol_f)) {
                // Its value fixes its own side; the other side's
                // nearest goes first.
                const double other = up ? below : above;
                return std::isnan(other) ? mid : other;
            }
            (up ? above : below) = mid;
        }
        if (up)
            hi = mid;
        else
            lo = mid;
    }
    // The replay ends on a kept value.
    return std::isnan(below) ? above : below;
}

/**
 * solveMonotone's pre-phase: safeguarded secant steps shrink [a, b]
 * around the root. A seed inside [a, b] is evaluated first, and the
 * step from it follows the seed's slope when that is positive and
 * finite. Every later step evaluates, instead of the secant's
 * estimate, the replay's own midpoint next to it (nextReplayCall), so
 * its value serves the replay too; the pre-phase ends when the replay
 * has no call left. Only a value with |f| > 2 tol_f moves a bound, so
 * a bisection midpoint at or beyond a moved bound has that bound's
 * residual sign and is no root, by monotonicity up to rounding below
 * tol_f. Adds its calls to `calls`. Returns kNeedsHi when a step
 * leaves [a, b] while f(b) is unknown, and kNonFinite if f returned a
 * non-finite value, when nothing is certified.
 */
Certify
certifyBracket(const std::function<double(double)> &f, Prephase &p,
               const RootSeed &seed, double tol_x, double tol_f,
               int &calls)
{
    const bool seeded = seed.x > p.a && seed.x < p.b;
    const bool sloped =
        seeded && seed.slope > 0.0 && std::isfinite(seed.slope);
    for (; p.steps < kMaxSecantSteps; ++p.steps) {
        const bool at_seed = seeded && p.steps == 0;
        double x = seed.x;
        if (!at_seed) {
            const double slope = sloped && p.steps == 1
                ? seed.slope
                : (p.f1 - p.f0) / (p.x1 - p.x0);
            x = p.x1 - p.f1 / slope;
            if (!(x > p.a && x < p.b)) {
                if (!p.fbKnown)
                    return Certify::kNeedsHi;
                x = 0.5 * (p.a + p.b);
            }
            x = nextReplayCall(p, x, slope, tol_x, tol_f);
            if (std::isnan(x))
                return Certify::kDone;
        }
        const double fx = f(x);
        ++calls;
        if (!std::isfinite(fx))
            return Certify::kNonFinite;
        if (fx < -2.0 * tol_f && x > p.a) {
            p.a = x;
            p.fa = fx;
        } else if (fx > 2.0 * tol_f && x < p.b) {
            p.b = x;
            p.fb = fx;
            p.fbKnown = true;
        }
        if (!at_seed) {
            p.keptX[p.kept] = x;
            p.keptF[p.kept] = fx;
            ++p.kept;
        }
        p.x0 = p.x1;
        p.f0 = p.f1;
        p.x1 = x;
        p.f1 = fx;
    }
    return Certify::kDone;
}

} // namespace

RootResult
solveMonotone(const std::function<double(double)> &f, double lo, double hi,
              double tol_x, double tol_f, int max_iter,
              const RootSeed &seed)
{
    RootResult res;
    if (lo > hi)
        std::swap(lo, hi);

    // An unseeded solve probes hi first. A value below -2 tol_f
    // proves f(lo) < 0 by monotonicity, and a NaN f(lo) takes the
    // same path, so the historical saturate-high result comes back
    // after one call. A seeded solve starts at lo: its pre-phase
    // needs f(lo), and a certified upper bound may spare f(hi).
    const bool seeded = seed.x > lo && seed.x < hi;
    double fhi = std::numeric_limits<double>::quiet_NaN();
    if (!seeded) {
        fhi = f(hi);
        ++res.iterations;
        if (fhi < -2.0 * tol_f && fhi < 0.0) {
            res.x = hi;
            res.fx = fhi;
            res.converged = true;
            res.saturated = std::abs(fhi) > tol_f;
            return res;
        }
    }

    double flo = f(lo);
    ++res.iterations;
    if (flo >= 0.0) {
        // Even the lowest x overshoots: saturate low. Only flag the
        // clamp when the residual is genuinely large — an endpoint
        // sitting on the root within tol_f is a root, not saturation.
        res.x = lo;
        res.fx = flo;
        res.converged = true;
        res.saturated = std::abs(flo) > tol_f;
        return res;
    }

    // Certified bracket [a, b]: a bisection midpoint at or below a
    // (at or above b) takes the branch f(a) (f(b)) gives it without
    // calling f. The endpoints need no margin: no midpoint lies
    // beyond them, and one equal to them repeats their value. Only
    // the stand-in's sign and its magnitude above tol_f are read, and
    // tol_f^2 > 0 keeps flo * fmid clear of underflow, so the replay
    // below visits the historical midpoints and returns the
    // historical bits. The final midpoint is always evaluated, by
    // the replay or the pre-phase, and a midpoint the pre-phase
    // evaluated takes its kept value, the same bits f returns; a
    // non-finite value turns skipping off.
    // [a, b] = [lo, hi]; the secant's last point is lo until a seed
    // or hi is evaluated.
    Prephase p{lo, hi, max_iter, lo, flo, hi, 0.0, false,
               lo, flo, lo, flo, 0, 0, {}, {}};
    bool skip = std::isfinite(flo) && tol_f > 0.0 &&
                tol_f * tol_f > 0.0 && max_iter > 0;
    Certify pre = Certify::kNeedsHi;
    if (skip && std::abs(flo) > tol_f && seeded) {
        pre = certifyBracket(f, p, seed, tol_x, tol_f, res.iterations);
        skip = pre != Certify::kNonFinite;
    }
    // A moved b has f(b) > 2 tol_f, so f(hi) > tol_f: none of the
    // endpoint branches below can be taken, and the replay never
    // reads f(hi). Only without one is the probe needed.
    if (!(skip && p.fbKnown)) {
        if (seeded) {
            fhi = f(hi);
            ++res.iterations;
        }
        if (fhi <= 0.0) {
            // Even the highest x undershoots: saturate high.
            res.x = hi;
            res.fx = fhi;
            res.converged = true;
            res.saturated = std::abs(fhi) > tol_f;
            return res;
        }
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
        if (max_iter <= 0) {
            // No midpoint to evaluate: report the bracketing endpoint
            // with the smaller residual.
            const bool at_lo = std::abs(flo) < std::abs(fhi);
            res.x = at_lo ? lo : hi;
            res.fx = at_lo ? flo : fhi;
            return res;
        }
        p.fb = fhi;
        p.fbKnown = true;
        skip = skip && std::isfinite(fhi);
        if (skip && pre == Certify::kNeedsHi) {
            // Unseeded, or a seeded run stopped short of hi: the
            // secant goes on through its last point and hi.
            p.x0 = p.x1;
            p.f0 = p.f1;
            p.x1 = hi;
            p.f1 = fhi;
            skip = certifyBracket(f, p, RootSeed{}, tol_x, tol_f,
                                  res.iterations) != Certify::kNonFinite;
        }
    }
    if (skip)
        res.slope = (p.fb - p.fa) / (p.b - p.a);

    double mid = 0.5 * (lo + hi);
    double fmid = flo;
    for (int it = 0; it < max_iter; ++it) {
        mid = 0.5 * (lo + hi);
        const bool narrow = (hi - lo) * 0.5 <= tol_x;
        const bool last = narrow || it + 1 == max_iter;
        if (skip && !last && mid <= p.a) {
            fmid = p.fa;
        } else if (skip && !last && mid >= p.b) {
            fmid = p.fb;
        } else {
            if (const double *kept = p.keptAt(mid)) {
                fmid = *kept;
            } else {
                fmid = f(mid);
                ++res.iterations;
            }
            skip = skip && std::isfinite(fmid);
        }
        if (std::abs(fmid) <= tol_f || narrow) {
            res.x = mid;
            res.fx = fmid;
            res.converged = true;
            return res;
        }
        if (flo * fmid < 0.0) {
            hi = mid;
        } else {
            lo = mid;
            flo = fmid;
        }
    }
    // Iteration budget exhausted: report the last midpoint evaluated
    // (not a fresh one the loop never examined).
    res.x = mid;
    res.fx = fmid;
    return res;
}

bool
approxEqual(double a, double b, double tol)
{
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= tol * scale;
}

} // namespace fastcap
