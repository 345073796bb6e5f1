/**
 * @file
 * Batch least-squares fits: the from-scratch reference that the
 * governor's incremental power-law fit (core/model_fitter.hpp) is
 * checked against in the tests and timed against in bench_overhead.
 * No library code calls them.
 */

#ifndef FASTCAP_TESTS_SUPPORT_REFERENCE_FIT_HPP
#define FASTCAP_TESTS_SUPPORT_REFERENCE_FIT_HPP

#include <vector>

namespace fastcap {

/** Slope/intercept pair from a linear least-squares fit. */
struct LinearFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination; 1 means a perfect fit. */
    double r2 = 0.0;
    bool valid = false;
};

/**
 * Ordinary least squares y = slope * x + intercept.
 *
 * Needs at least two points with distinct x. With exactly two points
 * the fit is exact and r2 = 1.
 */
LinearFit fitLinear(const std::vector<double> &xs,
                    const std::vector<double> &ys);

/** Parameters of a power-law fit y = scale * x^exponent. */
struct PowerLawFit
{
    double scale = 0.0;
    double exponent = 0.0;
    double r2 = 0.0;
    bool valid = false;
};

/**
 * Fit y = scale * x^exponent by linear least squares in log-log space.
 *
 * Points with non-positive x or y are ignored (they have no
 * logarithm); the fit is invalid if fewer than two usable points with
 * distinct x remain. This is the fit FastCap's governor runs each
 * epoch to recover (P_i, alpha_i) from (frequency-ratio, dynamic
 * power) samples, computed from scratch over the whole history.
 */
PowerLawFit fitPowerLaw(const std::vector<double> &xs,
                        const std::vector<double> &ys);

} // namespace fastcap

#endif // FASTCAP_TESTS_SUPPORT_REFERENCE_FIT_HPP
