#include "util/math.hpp"

#include <algorithm>
#include <cmath>

namespace fastcap {

namespace {

/** Cap on the secant pre-phase's steps (its probes come on top). */
constexpr int kMaxSecantSteps = 16;

/**
 * solveMonotone's pre-phase state: the bracket [a, b] it certifies
 * and the last two points its secant runs through. b starts at hi,
 * whose residual a seeded solve may never evaluate.
 */
struct Prephase
{
    double a, fa;
    double b, fb;
    bool fbKnown; //!< fb holds f(b): f(hi) was called or b moved
    double x0, f0, x1, f1;
    int steps;
};

/** How a pre-phase run ended. */
enum class Certify { kDone, kNeedsHi, kNonFinite };

/**
 * solveMonotone's pre-phase: safeguarded secant steps through the
 * last two evaluated points shrink [a, b] around the root. A seed
 * inside [a, b] is evaluated first, and the step from it follows the
 * seed's slope when that is positive and finite. Only a value with
 * |f| > 2 tol_f moves a bound, so a bisection midpoint at or beyond a
 * moved bound has that bound's residual sign and is no root, by
 * monotonicity up to rounding below tol_f. Adds its calls to
 * `calls`. Returns kNeedsHi when a step leaves [a, b] while f(b) is
 * unknown, and kNonFinite if f returned a non-finite value, when
 * nothing is certified.
 */
Certify
certifyBracket(const std::function<double(double)> &f, Prephase &p,
               const RootSeed &seed, double tol_x, double tol_f,
               int &calls)
{
    // Evaluates x and moves a bound to it if the residual allows.
    const auto probe = [&](double x) {
        const double fx = f(x);
        ++calls;
        if (fx < -2.0 * tol_f) {
            p.a = x;
            p.fa = fx;
        } else if (fx > 2.0 * tol_f) {
            p.b = x;
            p.fb = fx;
            p.fbKnown = true;
        }
        return fx;
    };
    const bool seeded = seed.x > p.a && seed.x < p.b;
    const bool sloped =
        seeded && seed.slope > 0.0 && std::isfinite(seed.slope);
    for (; p.steps < kMaxSecantSteps; ++p.steps) {
        double x = seed.x;
        bool converged = false;
        if (!seeded || p.steps > 0) {
            x = sloped && p.steps == 1
                ? p.x1 - p.f1 / seed.slope
                : p.x1 - p.f1 * (p.x1 - p.x0) / (p.f1 - p.f0);
            if (!(x > p.a && x < p.b)) {
                if (!p.fbKnown)
                    return Certify::kNeedsHi;
                x = 0.5 * (p.a + p.b);
            } else if (std::abs(x - p.x1) < 4.0 * tol_x) {
                // The estimate has converged: one point just past it,
                // on the far side from x1, closes the bracket around
                // it.
                x += std::copysign(0.1 * tol_x, x - p.x1);
                converged = true;
                if (!(x > p.a && x < p.b))
                    return Certify::kDone;
            }
        }
        const double fx = probe(x);
        if (!std::isfinite(fx))
            return Certify::kNonFinite;
        if (std::abs(fx) <= 2.0 * tol_f) {
            // At the root: points a tenth of tol_x either side of it
            // bound it instead.
            for (const double q : {x - 0.1 * tol_x, x + 0.1 * tol_x})
                if (q > p.a && q < p.b && !std::isfinite(probe(q)))
                    return Certify::kNonFinite;
            return Certify::kDone;
        }
        if (converged)
            return Certify::kDone;
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

    double flo = f(lo);
    res.iterations = 1;
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
    // historical bits. The final midpoint is always evaluated; a
    // non-finite value turns skipping off.
    // [a, b] = [lo, hi]; the secant's last point is lo until a seed
    // or hi is evaluated.
    Prephase p{lo, flo, hi, 0.0, false, lo, flo, lo, flo, 0};
    bool skip = std::isfinite(flo) && tol_f > 0.0 &&
                tol_f * tol_f > 0.0 && max_iter > 0;
    Certify pre = Certify::kNeedsHi;
    if (skip && std::abs(flo) > tol_f && seed.x > lo && seed.x < hi) {
        pre = certifyBracket(f, p, seed, tol_x, tol_f, res.iterations);
        skip = pre != Certify::kNonFinite;
    }
    // A moved b has f(b) > 2 tol_f, so f(hi) > tol_f: none of the
    // endpoint branches below can be taken, and the replay never
    // reads f(hi). Only without one is the probe needed.
    if (!(skip && p.fbKnown)) {
        const double fhi = f(hi);
        ++res.iterations;
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
            fmid = f(mid);
            ++res.iterations;
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

LinearFit
fitLinear(const std::vector<double> &xs, const std::vector<double> &ys)
{
    LinearFit fit;
    const size_t n = std::min(xs.size(), ys.size());
    if (n < 2)
        return fit;

    double sx = 0.0, sy = 0.0;
    for (size_t i = 0; i < n; ++i) {
        sx += xs[i];
        sy += ys[i];
    }
    const double mx = sx / static_cast<double>(n);
    const double my = sy / static_cast<double>(n);

    double sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if (sxx <= 0.0)
        return fit;

    fit.slope = sxy / sxx;
    fit.intercept = my - fit.slope * mx;
    fit.r2 = (syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 1.0;
    fit.valid = true;
    return fit;
}

PowerLawFit
fitPowerLaw(const std::vector<double> &xs, const std::vector<double> &ys)
{
    PowerLawFit fit;
    const size_t n = std::min(xs.size(), ys.size());

    std::vector<double> lx, ly;
    lx.reserve(n);
    ly.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (xs[i] > 0.0 && ys[i] > 0.0) {
            lx.push_back(std::log(xs[i]));
            ly.push_back(std::log(ys[i]));
        }
    }
    const LinearFit lin = fitLinear(lx, ly);
    if (!lin.valid)
        return fit;

    fit.scale = std::exp(lin.intercept);
    fit.exponent = lin.slope;
    fit.r2 = lin.r2;
    fit.valid = true;
    return fit;
}

bool
approxEqual(double a, double b, double tol)
{
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= tol * scale;
}

} // namespace fastcap
