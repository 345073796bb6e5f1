#include "util/math.hpp"

#include <algorithm>
#include <cmath>

namespace fastcap {

namespace {

/** Cap on the secant pre-phase's steps (its probes come on top). */
constexpr int kMaxSecantSteps = 16;

/**
 * solveMonotone's pre-phase: safeguarded secant steps through the
 * last two evaluated points shrink [a, b] around the root. Only a
 * value with |f| > 2 tol_f moves a bound, so a bisection midpoint at
 * or beyond a moved bound has that bound's residual sign and is no
 * root, by monotonicity up to rounding below tol_f. Adds its calls
 * to `calls`; returns false if f returned a non-finite value, when
 * nothing is certified.
 */
bool
certifyBracket(const std::function<double(double)> &f, double &a,
               double &fa, double &b, double &fb, double tol_x,
               double tol_f, int &calls)
{
    // Evaluates x and moves a bound to it if the residual allows.
    const auto probe = [&](double x) {
        const double fx = f(x);
        ++calls;
        if (fx < -2.0 * tol_f) {
            a = x;
            fa = fx;
        } else if (fx > 2.0 * tol_f) {
            b = x;
            fb = fx;
        }
        return fx;
    };
    double x0 = a, f0 = fa, x1 = b, f1 = fb;
    for (int step = 0; step < kMaxSecantSteps; ++step) {
        double x = x1 - f1 * (x1 - x0) / (f1 - f0);
        bool converged = false;
        if (!(x > a && x < b)) {
            x = 0.5 * (a + b);
        } else if (std::abs(x - x1) < 4.0 * tol_x) {
            // The estimate has converged: one point just past it, on
            // the far side from x1, closes the bracket around it.
            x += std::copysign(0.1 * tol_x, x - x1);
            converged = true;
            if (!(x > a && x < b))
                return true;
        }
        const double fx = probe(x);
        if (!std::isfinite(fx))
            return false;
        if (std::abs(fx) <= 2.0 * tol_f) {
            // At the root: points a tenth of tol_x either side of it
            // bound it instead.
            for (const double p : {x - 0.1 * tol_x, x + 0.1 * tol_x})
                if (p > a && p < b && !std::isfinite(probe(p)))
                    return false;
            return true;
        }
        if (converged)
            return true;
        x0 = x1;
        f0 = f1;
        x1 = x;
        f1 = fx;
    }
    return true;
}

} // namespace

RootResult
solveMonotone(const std::function<double(double)> &f, double lo, double hi,
              double tol_x, double tol_f, int max_iter)
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
    double fhi = f(hi);
    res.iterations = 2;
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

    // Certified bracket [a, b]: a bisection midpoint at or below a
    // (at or above b) takes the branch f(a) (f(b)) gives it without
    // calling f. The endpoints need no margin: no midpoint lies
    // beyond them, and one equal to them repeats their value. Only
    // the stand-in's sign and its magnitude above tol_f are read, and
    // tol_f^2 > 0 keeps flo * fmid clear of underflow, so the replay
    // below visits the historical midpoints and returns the
    // historical bits. The final midpoint is always evaluated; a
    // non-finite value turns skipping off.
    double a = lo, fa = flo, b = hi, fb = fhi;
    bool skip = std::isfinite(flo) && std::isfinite(fhi) &&
                tol_f > 0.0 && tol_f * tol_f > 0.0 && max_iter > 0 &&
                certifyBracket(f, a, fa, b, fb, tol_x, tol_f,
                               res.iterations);

    double mid = 0.5 * (lo + hi);
    double fmid = flo;
    for (int it = 0; it < max_iter; ++it) {
        mid = 0.5 * (lo + hi);
        const bool narrow = (hi - lo) * 0.5 <= tol_x;
        const bool last = narrow || it + 1 == max_iter;
        if (skip && !last && mid <= a) {
            fmid = fa;
        } else if (skip && !last && mid >= b) {
            fmid = fb;
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
            fhi = fmid;
        } else {
            lo = mid;
            flo = fmid;
        }
    }
    // Iteration budget exhausted: report the last midpoint actually
    // evaluated (not a fresh one the loop never examined). A
    // non-positive max_iter never evaluates a midpoint; report the
    // bracketing endpoint with the smaller residual instead.
    if (max_iter <= 0) {
        res.x = std::abs(flo) < std::abs(fhi) ? lo : hi;
        res.fx = std::abs(flo) < std::abs(fhi) ? flo : fhi;
    } else {
        res.x = mid;
        res.fx = fmid;
    }
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
