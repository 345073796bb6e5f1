/**
 * @file
 * DVFS substrate: frequency ladders and voltage curves.
 *
 * Defaults follow the paper's evaluation setup (Section IV-A):
 *   - per-core DVFS with 10 equally spaced frequencies, 2.2-4.0 GHz;
 *   - voltage 0.65-1.2 V scaling linearly with frequency (Sandy
 *     Bridge-like);
 *   - memory bus / DRAM frequency 800 MHz down to 200 MHz in 66 MHz
 *     steps (10 levels); the memory controller runs at 2x the bus
 *     frequency with core-like voltage scaling.
 */

#ifndef FASTCAP_SIM_DVFS_HPP
#define FASTCAP_SIM_DVFS_HPP

#include <cstddef>
#include <vector>

#include "util/units.hpp"

namespace fastcap {

/**
 * An ascending ladder of selectable frequencies.
 */
class FrequencyLadder
{
  public:
    /** Build from explicit frequencies; sorted ascending on entry. */
    explicit FrequencyLadder(std::vector<Hertz> freqs);

    /** Evenly spaced ladder from lo to hi inclusive with n levels. */
    static FrequencyLadder evenlySpaced(Hertz lo, Hertz hi,
                                        std::size_t levels);

    /** Paper default core ladder: 2.2-4.0 GHz, 10 levels. */
    static FrequencyLadder coreDefault();

    /**
     * Paper default memory ladder: 800 MHz max, 66 MHz steps down to
     * 206 MHz (10 levels): 206, 272, ..., 734, 800.
     */
    static FrequencyLadder memoryDefault();

    std::size_t size() const { return _freqs.size(); }
    Hertz at(std::size_t i) const { return _freqs.at(i); }
    Hertz operator[](std::size_t i) const { return _freqs[i]; }
    Hertz min() const { return _freqs.front(); }
    Hertz max() const { return _freqs.back(); }

    /** Index of the highest level. */
    std::size_t maxIndex() const { return _freqs.size() - 1; }

    /** Normalized ratio f_i / f_max for level i. */
    double ratio(std::size_t i) const { return _freqs[i] / max(); }

    /** All normalized ratios, ascending. */
    std::vector<double> ratios() const;

  private:
    std::vector<Hertz> _freqs;
};

/**
 * Linear voltage/frequency curve: V(f) interpolates between (fMin,
 * vMin) and (fMax, vMax), clamped outside the range.
 */
class VoltageCurve
{
  public:
    VoltageCurve(Hertz f_min, Hertz f_max, Volts v_min, Volts v_max);

    /** Paper default for cores: 0.65 V @ 2.2 GHz to 1.2 V @ 4 GHz. */
    static VoltageCurve coreDefault();

    /**
     * Memory controller curve: the MC frequency is 2x the bus
     * frequency, so this maps bus frequencies directly to MC voltage
     * across the same 0.65-1.2 V range.
     */
    static VoltageCurve memoryControllerDefault();

    Volts at(Hertz f) const;
    Volts min() const { return _vMin; }
    Volts max() const { return _vMax; }

    /** Squared-voltage ratio (V(f)/Vmax)^2 used in dynamic power. */
    double squaredRatio(Hertz f) const;

  private:
    Hertz _fMin = 0.0;
    Hertz _fMax = 0.0;
    Volts _vMin;
    Volts _vMax;
};

} // namespace fastcap

#endif // FASTCAP_SIM_DVFS_HPP
