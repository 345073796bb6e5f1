#include "core/model_fitter.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/math.hpp"

namespace fastcap {

PowerLawTracker::PowerLawTracker(double default_exponent,
                                 double min_exponent,
                                 double max_exponent)
    : _defaultExponent(default_exponent), _minExponent(min_exponent),
      _maxExponent(max_exponent)
{
    _model.exponent = default_exponent;
}

void
PowerLawTracker::accumulate(const Sample &s, double sign)
{
    _sumLx += sign * s.lx;
    _sumLy += sign * s.ly;
    _sumLxx += sign * s.lx * s.lx;
    _sumLxy += sign * s.lx * s.ly;
}

void
PowerLawTracker::observe(double ratio, Watts dyn_power)
{
    if (ratio <= 0.0 || ratio > 1.0 + 1e-9) {
        warn("PowerLawTracker: ignoring out-of-range ratio %g", ratio);
        return;
    }
    if (dyn_power <= 0.0) {
        // A zero/negative dynamic-power measurement carries no
        // information for a multiplicative model; skip it.
        return;
    }

    std::size_t j = 0;
    while (j < _count && !approxEqual(at(j).ratio, ratio, 1e-6))
        ++j;
    if (j < _count) {
        // Refresh: smooth toward the new measurement so stale samples
        // at the same frequency do not fossilise.
        Sample &same = at(j);
        same.power = 0.5 * same.power + 0.5 * dyn_power;
        // Rank-1 moment swap: the old log-power contributions leave,
        // the smoothed ones enter; lx is unchanged. A lone sample's
        // moments are not read until a second sample arrives, which
        // sets them from it first (below), so it skips the log.
        if (_count > 1) {
            accumulate(same, -1.0);
            same.ly = std::log(same.power);
            accumulate(same, +1.0);
        }
    } else {
        if (_count == 1) {
            // The moments a lone sample's refreshes would have left:
            // each swap subtracts a term from a sum holding exactly
            // it, leaving +0, and adds the new one, so the sums are
            // +0 plus the sample's current terms.
            Sample &lone = at(0);
            lone.ly = std::log(lone.power);
            _sumLx = _sumLy = _sumLxx = _sumLxy = 0.0;
            accumulate(lone, +1.0);
        }
        const Sample s{ratio, dyn_power, std::log(ratio),
                       std::log(dyn_power)};
        // Push, then evict: the new sample's moments enter before the
        // oldest's leave, and the new sample takes the oldest's slot.
        accumulate(s, +1.0);
        if (_count < kHistory) {
            at(_count++) = s;
        } else {
            accumulate(at(0), -1.0);
            at(0) = s;
            _head = (_head + 1) % kHistory;
        }
    }
    refit();
}

void
PowerLawTracker::bootstrap(const Sample &s)
{
    // pow(1, y) is exactly 1 (C99 F.9.4.4), and so is s.power / 1:
    // a sample at the top of the ladder skips the pow with the same
    // bits.
    _model.scale = s.ratio == 1.0
        ? s.power
        : s.power / std::pow(s.ratio, _defaultExponent);
    _model.exponent = _defaultExponent;
    _model.fromFit = false;
}

void
PowerLawTracker::refit()
{
    if (_count == 0)
        return;

    if (_count == 1) {
        // Bootstrap: solve Eq. 2 for the scale with the default
        // exponent.
        bootstrap(at(0));
        return;
    }

    // O(1) log-log least squares from the running moments: the same
    // normal equations fitPowerLaw solves, with centered statistics
    // recovered from the raw sums instead of a two-pass sweep.
    const double n = static_cast<double>(_count);
    const double mx = _sumLx / n;
    const double my = _sumLy / n;
    const double sxx = _sumLxx - n * mx * mx;
    const double sxy = _sumLxy - n * mx * my;
    if (!(sxx > 0.0)) {
        // Degenerate x-spread (cannot happen with the distinct-ratio
        // history invariant, but rounding is not a proof): fall back
        // to bootstrap on the freshest sample, as the batch fit does
        // for all-equal ratios.
        bootstrap(at(_count - 1));
        return;
    }
    const double slope = sxy / sxx;
    const double intercept = my - slope * mx;

    _model.exponent = std::clamp(slope, _minExponent, _maxExponent);
    if (approxEqual(_model.exponent, slope)) {
        _model.scale = std::exp(intercept);
    } else {
        // Exponent clamped: re-anchor the scale on the freshest
        // sample so predictions stay close to recent reality.
        const Sample &s = at(_count - 1);
        _model.scale = s.power / std::pow(s.ratio, _model.exponent);
    }
    _model.fromFit = true;
}

ModelFitter::ModelFitter(std::size_t num_cores, double core_exponent,
                         double mem_exponent, double min_exponent,
                         double max_exponent)
    : _memory(mem_exponent, min_exponent, max_exponent)
{
    _cores.reserve(num_cores);
    for (std::size_t i = 0; i < num_cores; ++i)
        _cores.emplace_back(core_exponent, min_exponent, max_exponent);
}

const FittedModel &
ModelFitter::observeCore(std::size_t core, double ratio, Watts dyn_power)
{
    PowerLawTracker &tracker = _cores.at(core);
    tracker.observe(ratio, dyn_power);
    return tracker.model();
}

void
ModelFitter::observeMemory(double ratio, Watts dyn_power)
{
    _memory.observe(ratio, dyn_power);
}

FittedModel
ModelFitter::core(std::size_t core) const
{
    return _cores.at(core).model();
}

} // namespace fastcap
