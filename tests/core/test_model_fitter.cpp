/**
 * @file
 * Tests for the online Eq. 2 / Eq. 3 power-model fitter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "core/model_fitter.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

#include "reference_fit.hpp"

namespace fastcap {
namespace {

TEST(PowerLawTracker, BootstrapUsesDefaultExponent)
{
    PowerLawTracker t(2.5);
    t.observe(1.0, 4.0);
    const FittedModel m = t.model();
    EXPECT_FALSE(m.fromFit);
    EXPECT_DOUBLE_EQ(m.exponent, 2.5);
    EXPECT_DOUBLE_EQ(m.scale, 4.0); // 4.0 / 1.0^2.5
}

TEST(PowerLawTracker, BootstrapScalesFromSample)
{
    PowerLawTracker t(2.0);
    t.observe(0.5, 1.0);
    const FittedModel m = t.model();
    // scale = 1.0 / 0.5^2 = 4.
    EXPECT_NEAR(m.scale, 4.0, 1e-12);
}

TEST(PowerLawTracker, TwoSamplesGiveExactFit)
{
    PowerLawTracker t(2.5);
    // Ground truth: P = 3.2 x^2.8.
    t.observe(1.0, 3.2);
    t.observe(0.55, 3.2 * std::pow(0.55, 2.8));
    const FittedModel m = t.model();
    EXPECT_TRUE(m.fromFit);
    EXPECT_NEAR(m.exponent, 2.8, 1e-9);
    EXPECT_NEAR(m.scale, 3.2, 1e-9);
}

TEST(PowerLawTracker, HistoryKeepsLastThreeFrequencies)
{
    PowerLawTracker t(2.5);
    const double alpha = 3.0;
    // Observe at four distinct ratios; the first must be evicted.
    for (double x : {1.0, 0.9, 0.8, 0.7})
        t.observe(x, 2.0 * std::pow(x, alpha));
    EXPECT_EQ(t.samples(), 3u);
    EXPECT_NEAR(t.model().exponent, alpha, 1e-9);
}

TEST(PowerLawTracker, RepeatRatioRefreshesInsteadOfEvicting)
{
    PowerLawTracker t(2.5);
    t.observe(1.0, 4.0);
    t.observe(0.8, 2.0);
    EXPECT_EQ(t.samples(), 2u);
    // Same ratio again: history size unchanged, power smoothed.
    t.observe(1.0, 6.0);
    EXPECT_EQ(t.samples(), 2u);
}

TEST(PowerLawTracker, IgnoresNonPositivePower)
{
    PowerLawTracker t(2.5);
    t.observe(1.0, 0.0);
    t.observe(1.0, -3.0);
    EXPECT_EQ(t.samples(), 0u);
}

TEST(PowerLawTracker, IgnoresOutOfRangeRatio)
{
    PowerLawTracker t(2.5);
    t.observe(1.5, 2.0);
    t.observe(-0.2, 2.0);
    EXPECT_EQ(t.samples(), 0u);
}

TEST(PowerLawTracker, ExponentClampedForRobustness)
{
    PowerLawTracker t(2.5, 0.3, 4.0);
    // Pathological samples implying alpha ~ 9.
    t.observe(1.0, 8.0);
    t.observe(0.5, 8.0 * std::pow(0.5, 9.0));
    const FittedModel m = t.model();
    EXPECT_LE(m.exponent, 4.0);
    // Scale re-anchored so prediction near the freshest sample.
    const double pred = m.scale * std::pow(0.5, m.exponent);
    EXPECT_NEAR(pred, 8.0 * std::pow(0.5, 9.0), 1e-9);
}

TEST(PowerLawTracker, NoisyFitTracksTruth)
{
    PowerLawTracker t(2.5);
    const double alpha = 2.9;
    const double scale = 4.1;
    double sign = 1.0;
    for (double x : {1.0, 0.77, 0.55}) {
        sign = -sign;
        t.observe(x, scale * std::pow(x, alpha) * (1.0 + sign * 0.02));
    }
    const FittedModel m = t.model();
    EXPECT_NEAR(m.exponent, alpha, 0.35);
    EXPECT_NEAR(m.scale, scale, 0.4);
}

/**
 * The deque-backed tracker the ring replaced, kept verbatim as the
 * reference: same scan order (oldest to newest, first approxEqual
 * hit), same moment updates (push, then evict), same refit.
 */
class DequeTracker
{
  public:
    DequeTracker(double default_exponent, std::size_t history,
                 double min_exponent, double max_exponent)
        : _defaultExponent(default_exponent), _historyLimit(history),
          _minExponent(min_exponent), _maxExponent(max_exponent)
    {
        _model.exponent = default_exponent;
    }

    void
    observe(double ratio, Watts dyn_power)
    {
        if (ratio <= 0.0 || ratio > 1.0 + 1e-9)
            return;
        if (dyn_power <= 0.0)
            return;
        auto same = std::find_if(_history.begin(), _history.end(),
                                 [&](const Sample &s) {
                                     return approxEqual(s.ratio, ratio,
                                                        1e-6);
                                 });
        if (same != _history.end()) {
            accumulate(*same, -1.0);
            same->power = 0.5 * same->power + 0.5 * dyn_power;
            same->ly = std::log(same->power);
            accumulate(*same, +1.0);
        } else {
            Sample s{ratio, dyn_power, std::log(ratio),
                     std::log(dyn_power)};
            accumulate(s, +1.0);
            _history.push_back(s);
            while (_history.size() > _historyLimit) {
                accumulate(_history.front(), -1.0);
                _history.pop_front();
            }
        }
        refit();
    }

    FittedModel model() const { return _model; }
    std::size_t samples() const { return _history.size(); }

  private:
    struct Sample
    {
        double ratio = 0.0;
        Watts power = 0.0;
        double lx = 0.0;
        double ly = 0.0;
    };

    void
    accumulate(const Sample &s, double sign)
    {
        _sumLx += sign * s.lx;
        _sumLy += sign * s.ly;
        _sumLxx += sign * s.lx * s.lx;
        _sumLxy += sign * s.lx * s.ly;
    }

    void
    refit()
    {
        if (_history.empty())
            return;
        if (_history.size() == 1) {
            const Sample &s = _history.front();
            _model.scale = s.power / std::pow(s.ratio, _defaultExponent);
            _model.exponent = _defaultExponent;
            _model.fromFit = false;
            return;
        }
        const double n = static_cast<double>(_history.size());
        const double mx = _sumLx / n;
        const double my = _sumLy / n;
        const double sxx = _sumLxx - n * mx * mx;
        const double sxy = _sumLxy - n * mx * my;
        if (!(sxx > 0.0)) {
            const Sample &s = _history.back();
            _model.scale = s.power / std::pow(s.ratio, _defaultExponent);
            _model.exponent = _defaultExponent;
            _model.fromFit = false;
            return;
        }
        const double slope = sxy / sxx;
        const double intercept = my - slope * mx;
        _model.exponent = std::clamp(slope, _minExponent, _maxExponent);
        if (approxEqual(_model.exponent, slope)) {
            _model.scale = std::exp(intercept);
        } else {
            const Sample &s = _history.back();
            _model.scale = s.power / std::pow(s.ratio, _model.exponent);
        }
        _model.fromFit = true;
    }

    double _defaultExponent;
    std::size_t _historyLimit;
    double _minExponent;
    double _maxExponent;
    std::deque<Sample> _history;
    FittedModel _model;
    double _sumLx = 0.0;
    double _sumLy = 0.0;
    double _sumLxx = 0.0;
    double _sumLxy = 0.0;
};

TEST(PowerLawTracker, RingMatchesDequeReference)
{
    Logger::global().level(LogLevel::Silent);
    const std::size_t history = PowerLawTracker::kHistory;
    PowerLawTracker ring(2.5, 0.3, 4.0);
    DequeTracker ref(2.5, history, 0.3, 4.0);
    Rng rng(0x5eed0000ULL + history);
    for (int step = 0; step < 12000; ++step) {
        // A 5-level ladder, so repeats and evictions both happen
        // often; now and then a non-positive power or a ratio
        // outside (0, 1].
        double ratio =
            (2.0 + 0.5 * static_cast<double>(rng.below(5))) / 4.0;
        double power = 3.0 * std::pow(ratio, 2.7) *
            rng.uniform(0.5, 2.0);
        if (step % 53 == 0)
            power = -power;
        else if (step % 61 == 0)
            power = 0.0;
        if (step % 67 == 0)
            ratio = 1.5;
        else if (step % 71 == 0)
            ratio = 0.0;
        ring.observe(ratio, power);
        ref.observe(ratio, power);

        const FittedModel a = ring.model();
        const FittedModel b = ref.model();
        ASSERT_EQ(doubleBits(a.scale), doubleBits(b.scale))
            << "step " << step;
        ASSERT_EQ(doubleBits(a.exponent), doubleBits(b.exponent))
            << "step " << step;
        ASSERT_EQ(a.fromFit, b.fromFit)
            << "step " << step;
        ASSERT_EQ(ring.samples(), ref.samples())
            << "step " << step;
    }
    Logger::global().level(LogLevel::Warn);
}

TEST(PowerLawTracker, RingMatchesDequeReferenceThroughLongRepeats)
{
    // Long runs at one ratio, the top of the ladder among them: a lone
    // sample is refreshed many times before a second arrives, with
    // powers on both sides of 1 W (log-power of either sign, and 0 at
    // ratio 1), and later runs refresh a full history.
    PowerLawTracker ring(2.5, 0.3, 4.0);
    DequeTracker ref(2.5, PowerLawTracker::kHistory, 0.3, 4.0);
    Rng rng(0x5eed1234ULL);
    const double ladder[] = {1.0, 0.75, 1.0, 0.5, 0.625, 0.75, 1.0};
    int step = 0;
    for (const double ratio : ladder) {
        const int run = 40 + static_cast<int>(rng.below(200));
        for (int k = 0; k < run; ++k, ++step) {
            const double power = k % 17 == 3
                ? 1.0
                : std::pow(ratio, 2.7) * rng.uniform(0.3, 3.0);
            ring.observe(ratio, power);
            ref.observe(ratio, power);
            const FittedModel a = ring.model();
            const FittedModel b = ref.model();
            ASSERT_EQ(doubleBits(a.scale), doubleBits(b.scale))
                << "step " << step;
            ASSERT_EQ(doubleBits(a.exponent), doubleBits(b.exponent))
                << "step " << step;
            ASSERT_EQ(a.fromFit, b.fromFit) << "step " << step;
            ASSERT_EQ(ring.samples(), ref.samples()) << "step " << step;
        }
    }
    EXPECT_EQ(ring.samples(), PowerLawTracker::kHistory);
}

TEST(ModelFitter, TracksAllCoresIndependently)
{
    ModelFitter f(3);
    f.observeCore(0, 1.0, 4.0);
    f.observeCore(0, 0.55, 4.0 * std::pow(0.55, 3.0));
    f.observeCore(1, 1.0, 2.0);
    // Core 0: fitted alpha=3; core 1: bootstrap; core 2: untouched.
    EXPECT_NEAR(f.core(0).exponent, 3.0, 1e-9);
    EXPECT_TRUE(f.core(0).fromFit);
    EXPECT_FALSE(f.core(1).fromFit);
    EXPECT_DOUBLE_EQ(f.core(2).scale, 0.0);
    EXPECT_THROW(f.observeCore(9, 1.0, 1.0), std::out_of_range);
}

TEST(ModelFitter, MemoryUsesBetaDefault)
{
    ModelFitter f(1, 2.5, 1.0);
    f.observeMemory(1.0, 14.0);
    EXPECT_DOUBLE_EQ(f.memory().exponent, 1.0);
    EXPECT_DOUBLE_EQ(f.memory().scale, 14.0);

    // With a second sample the fitted beta emerges.
    f.observeMemory(0.5, 7.5);
    const double beta = f.memory().exponent;
    EXPECT_NEAR(beta, std::log(7.5 / 14.0) / std::log(0.5), 1e-9);
}

/**
 * The tracker's incremental (rank-1 moment update) fit must agree
 * with a from-scratch batch fitPowerLaw over the same history, within
 * tolerance, through thousands of observations — new frequencies,
 * in-place refreshes and evictions all update the running sums, so
 * this is where accumulated drift would show.
 */
TEST(PowerLawTracker, IncrementalFitTracksBatchFitWithinTolerance)
{
    const double min_exp = 0.3;
    const double max_exp = 4.0;
    PowerLawTracker t(2.5, min_exp, max_exp);

    // Shadow history replicating the tracker's rules: distinct-ratio
    // slots (refreshes smooth in place), capacity 3, FIFO eviction.
    struct Obs
    {
        double ratio;
        double power;
    };
    std::deque<Obs> shadow;

    Rng rng(0x1234abcdULL);
    for (int step = 0; step < 4000; ++step) {
        // Ladder-like ratios so refreshes are frequent, with a noisy
        // power law (alpha ~2.7) plus occasional outliers that push
        // the fitted exponent into the clamp.
        const double ratio =
            (2.2 + 0.2 * static_cast<double>(rng.below(10))) / 4.0;
        double power = 3.0 * std::pow(ratio, 2.7) *
            rng.uniform(0.8, 1.25);
        if (step % 97 == 0)
            power *= 8.0; // exponent-clamp excursion
        t.observe(ratio, power);

        auto same = std::find_if(shadow.begin(), shadow.end(),
                                 [&](const Obs &o) {
                                     return approxEqual(o.ratio,
                                                        ratio, 1e-6);
                                 });
        if (same != shadow.end()) {
            same->power = 0.5 * same->power + 0.5 * power;
        } else {
            shadow.push_back({ratio, power});
            while (shadow.size() > 3)
                shadow.pop_front();
        }

        if (shadow.size() < 2)
            continue;
        std::vector<double> xs, ys;
        for (const Obs &o : shadow) {
            xs.push_back(o.ratio);
            ys.push_back(o.power);
        }
        const PowerLawFit fit = fitPowerLaw(xs, ys);
        ASSERT_TRUE(fit.valid) << "step " << step;
        const double exp_batch =
            std::clamp(fit.exponent, min_exp, max_exp);
        double scale_batch;
        if (approxEqual(exp_batch, fit.exponent))
            scale_batch = fit.scale;
        else
            scale_batch = shadow.back().power /
                std::pow(shadow.back().ratio, exp_batch);

        const FittedModel m = t.model();
        EXPECT_TRUE(m.fromFit) << "step " << step;
        EXPECT_TRUE(approxEqual(m.exponent, exp_batch, 1e-9))
            << "step " << step << ": " << m.exponent << " vs "
            << exp_batch;
        EXPECT_TRUE(approxEqual(m.scale, scale_batch, 1e-9))
            << "step " << step << ": " << m.scale << " vs "
            << scale_batch;
    }
}

} // namespace
} // namespace fastcap
