/**
 * @file
 * Online power-model fitting (Section III-C).
 *
 * FastCap "keeps data about the last three frequencies it has seen,
 * and periodically recomputes these parameters": per core, the pairs
 * (x = f/f_max, dynamic power) observed at the last three distinct
 * frequencies are fit to Eq. 2's P_i * x^alpha_i by log-log least
 * squares; the memory subsystem is fit to Eq. 3 the same way.
 *
 * Until two distinct frequencies have been observed, bootstrap
 * defaults are used (alpha = 2.5, beta = 1) with the scale solved
 * from the single available sample.
 */

#ifndef FASTCAP_CORE_MODEL_FITTER_HPP
#define FASTCAP_CORE_MODEL_FITTER_HPP

#include <array>
#include <cstddef>
#include <vector>

#include "util/units.hpp"

namespace fastcap {

/** Fitted power-law parameters for one component. */
struct FittedModel
{
    Watts scale = 0.0;    //!< P_i (or P_m): power at ratio 1
    double exponent = 2.5; //!< alpha_i (or beta)
    bool fromFit = false;  //!< false while bootstrapping
};

/**
 * History-of-frequencies power-law fitter for one component (a core
 * or the memory subsystem), over the last kHistory distinct
 * frequencies.
 */
class PowerLawTracker
{
  public:
    /** Distinct frequencies retained (paper: 3). */
    static constexpr std::size_t kHistory = 3;

    /**
     * @param default_exponent bootstrap exponent before 2 samples
     * @param min_exponent     clamp for fit robustness
     * @param max_exponent     clamp for fit robustness
     */
    explicit PowerLawTracker(double default_exponent = 2.5,
                             double min_exponent = 0.3,
                             double max_exponent = 4.0);

    /**
     * Record a (frequency ratio, dynamic power) observation. A repeat
     * of an already-tracked ratio refreshes that entry (exponential
     * smoothing) instead of consuming a history slot.
     *
     * The log-log least-squares state is maintained *incrementally*:
     * each observation performs a rank-1 update of the running moments
     * (add the new sample's log contributions, subtract an evicted or
     * refreshed sample's old ones), so the per-observation cost is a
     * couple of std::log calls and O(1) arithmetic — no from-scratch
     * refit over the history. The recovered parameters agree with a
     * batch fitPowerLaw over the same history to rounding (enforced
     * by a tolerance test), not bit-exactly: the moment accumulation
     * order differs from the batch two-pass formula. While the history
     * holds one sample, a refresh takes no log at all: the bootstrap
     * reads only the sample's power, and the moments are set from it
     * to the same bits when a second sample arrives.
     */
    void observe(double ratio, Watts dyn_power);

    /** Current fitted (or bootstrapped) model. */
    const FittedModel &model() const { return _model; }

    std::size_t samples() const { return _count; }

  private:
    void refit();

    struct Sample
    {
        double ratio = 0.0;
        Watts power = 0.0;
        double lx = 0.0; //!< log(ratio), cached for the moment updates
        double ly = 0.0; //!< log(power), cached for the moment updates
    };

    /** The bootstrap model: Eq. 2's scale from `s` at the default
     *  exponent. */
    void bootstrap(const Sample &s);

    /** Add (+1) or remove (-1) a sample's log-log moment terms. */
    void accumulate(const Sample &s, double sign);

    /** The j-th oldest retained sample, j < _count. */
    Sample &at(std::size_t j)
    {
        return _history[(_head + j) % kHistory];
    }

    double _defaultExponent = 0.0;
    double _minExponent = 0.0;
    double _maxExponent = 0.0;
    /** Oldest-first ring. */
    std::array<Sample, kHistory> _history{};
    std::size_t _head = 0;
    std::size_t _count = 0;
    FittedModel _model;
    // Running log-log moments over the history: sum lx, sum ly,
    // sum lx^2, sum lx*ly. History ratios are pairwise distinct (a
    // repeat refreshes in place), so with >= 2 samples the centered
    // x-variance is bounded well away from the accumulated rounding.
    // With one sample they (and its ly) go stale as it is refreshed
    // until a second arrives; nothing reads them before that.
    double _sumLx = 0.0;
    double _sumLy = 0.0;
    double _sumLxx = 0.0;
    double _sumLxy = 0.0;
};

/**
 * Fitters for all cores plus the memory subsystem.
 */
class ModelFitter
{
  public:
    /**
     * @param num_cores     cores to track
     * @param core_exponent bootstrap alpha
     * @param mem_exponent  bootstrap beta
     * @param min_exponent  fit clamp (set both to 1 to force the
     *                      linear power model the paper criticises)
     * @param max_exponent  fit clamp
     */
    explicit ModelFitter(std::size_t num_cores,
                         double core_exponent = 2.5,
                         double mem_exponent = 1.0,
                         double min_exponent = 0.3,
                         double max_exponent = 4.0);

    /** Observe core i at ratio x with measured dynamic power, and
     *  return its model after the refit. */
    const FittedModel &observeCore(std::size_t core, double ratio,
                                   Watts dyn_power);

    /** Observe the memory subsystem. */
    void observeMemory(double ratio, Watts dyn_power);

    FittedModel core(std::size_t core) const;
    FittedModel memory() const { return _memory.model(); }

  private:
    std::vector<PowerLawTracker> _cores;
    PowerLawTracker _memory;
};

} // namespace fastcap

#endif // FASTCAP_CORE_MODEL_FITTER_HPP
