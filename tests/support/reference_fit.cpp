#include "reference_fit.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace fastcap {

LinearFit
fitLinear(const std::vector<double> &xs, const std::vector<double> &ys)
{
    LinearFit fit;
    const std::size_t n = std::min(xs.size(), ys.size());
    if (n < 2)
        return fit;

    double sx = 0.0, sy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sx += xs[i];
        sy += ys[i];
    }
    const double mx = sx / static_cast<double>(n);
    const double my = sy / static_cast<double>(n);

    double sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
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
    const std::size_t n = std::min(xs.size(), ys.size());

    std::vector<double> lx, ly;
    lx.reserve(n);
    ly.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
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

} // namespace fastcap
