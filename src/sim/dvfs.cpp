#include "sim/dvfs.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace fastcap {

FrequencyLadder::FrequencyLadder(std::vector<Hertz> freqs)
    : _freqs(std::move(freqs))
{
    if (_freqs.empty())
        fatal("FrequencyLadder: must have at least one level");
    std::sort(_freqs.begin(), _freqs.end());
    if (_freqs.front() <= 0.0)
        fatal("FrequencyLadder: frequencies must be positive");
}

FrequencyLadder
FrequencyLadder::evenlySpaced(Hertz lo, Hertz hi, std::size_t levels)
{
    if (levels < 1 || hi < lo)
        fatal("FrequencyLadder::evenlySpaced: bad range");
    std::vector<Hertz> f;
    f.reserve(levels);
    if (levels == 1) {
        f.push_back(hi);
    } else {
        const double step = (hi - lo) / static_cast<double>(levels - 1);
        for (std::size_t i = 0; i < levels; ++i)
            f.push_back(lo + step * static_cast<double>(i));
    }
    return FrequencyLadder(std::move(f));
}

FrequencyLadder
FrequencyLadder::coreDefault()
{
    return evenlySpaced(fromGHz(2.2), fromGHz(4.0), 10);
}

FrequencyLadder
FrequencyLadder::memoryDefault()
{
    // 800 MHz stepping down by 66 MHz: 800, 734, ..., 272, 206.
    std::vector<Hertz> f;
    for (int i = 0; i < 10; ++i)
        f.push_back(fromMHz(800.0 - 66.0 * i));
    return FrequencyLadder(std::move(f));
}

std::vector<double>
FrequencyLadder::ratios() const
{
    std::vector<double> out;
    out.reserve(_freqs.size());
    for (Hertz f : _freqs)
        out.push_back(f / max());
    return out;
}

VoltageCurve::VoltageCurve(Hertz f_min, Hertz f_max, Volts v_min,
                           Volts v_max)
    : _fMin(f_min), _fMax(f_max), _vMin(v_min), _vMax(v_max)
{
    if (f_max <= f_min || v_max < v_min)
        fatal("VoltageCurve: degenerate curve");
}

VoltageCurve
VoltageCurve::coreDefault()
{
    return VoltageCurve(fromGHz(2.2), fromGHz(4.0), 0.65, 1.2);
}

VoltageCurve
VoltageCurve::memoryControllerDefault()
{
    // Indexed by *bus* frequency; the MC itself runs at 2x.
    return VoltageCurve(fromMHz(206), fromMHz(800), 0.65, 1.2);
}

Volts
VoltageCurve::at(Hertz f) const
{
    if (f <= _fMin)
        return _vMin;
    if (f >= _fMax)
        return _vMax;
    const double t = (f - _fMin) / (_fMax - _fMin);
    return _vMin + t * (_vMax - _vMin);
}

double
VoltageCurve::squaredRatio(Hertz f) const
{
    const double r = at(f) / _vMax;
    return r * r;
}

} // namespace fastcap
