/**
 * @file
 * Tests for frequency ladders and voltage curves against the paper's
 * Section IV-A parameters.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/dvfs.hpp"
#include "util/logging.hpp"
#include "util/units.hpp"

namespace fastcap {
namespace {

TEST(FrequencyLadder, CoreDefaultMatchesPaper)
{
    const FrequencyLadder l = FrequencyLadder::coreDefault();
    EXPECT_EQ(l.size(), 10u);
    EXPECT_DOUBLE_EQ(l.min(), fromGHz(2.2));
    EXPECT_DOUBLE_EQ(l.max(), fromGHz(4.0));
    // Equally spaced: step 0.2 GHz.
    for (std::size_t i = 1; i < l.size(); ++i)
        EXPECT_NEAR(l.at(i) - l.at(i - 1), fromGHz(0.2), 1.0);
}

TEST(FrequencyLadder, MemoryDefaultMatchesPaper)
{
    const FrequencyLadder l = FrequencyLadder::memoryDefault();
    EXPECT_EQ(l.size(), 10u);
    EXPECT_DOUBLE_EQ(l.max(), fromMHz(800));
    EXPECT_DOUBLE_EQ(l.min(), fromMHz(206));
    // 66 MHz steps.
    for (std::size_t i = 1; i < l.size(); ++i)
        EXPECT_NEAR(l.at(i) - l.at(i - 1), fromMHz(66), 1.0);
}

TEST(FrequencyLadder, SortsUnorderedInput)
{
    const FrequencyLadder l(std::vector<Hertz>{3e9, 1e9, 2e9});
    EXPECT_DOUBLE_EQ(l.at(0), 1e9);
    EXPECT_DOUBLE_EQ(l.at(2), 3e9);
}

TEST(FrequencyLadder, RatiosAscendAndEndAtOne)
{
    const FrequencyLadder l = FrequencyLadder::memoryDefault();
    const std::vector<double> r = l.ratios();
    ASSERT_EQ(r.size(), l.size());
    EXPECT_DOUBLE_EQ(r.back(), 1.0);
    for (std::size_t i = 1; i < r.size(); ++i)
        EXPECT_GT(r[i], r[i - 1]);
    EXPECT_NEAR(r.front(), 206.0 / 800.0, 1e-12);
}

TEST(FrequencyLadder, RejectsBadInput)
{
    EXPECT_THROW(FrequencyLadder(std::vector<Hertz>{}), FatalError);
    EXPECT_THROW(FrequencyLadder(std::vector<Hertz>{-1.0, 2.0}),
                 FatalError);
    EXPECT_THROW(FrequencyLadder::evenlySpaced(2e9, 1e9, 5),
                 FatalError);
}

TEST(FrequencyLadder, SingleLevelLadder)
{
    const FrequencyLadder l = FrequencyLadder::evenlySpaced(1e9, 2e9, 1);
    EXPECT_EQ(l.size(), 1u);
    EXPECT_DOUBLE_EQ(l.max(), 2e9);
    EXPECT_EQ(l.maxIndex(), 0u);
}

TEST(VoltageCurve, CoreDefaultEndpoints)
{
    const VoltageCurve v = VoltageCurve::coreDefault();
    EXPECT_DOUBLE_EQ(v.at(fromGHz(2.2)), 0.65);
    EXPECT_DOUBLE_EQ(v.at(fromGHz(4.0)), 1.2);
    // Clamped outside the range.
    EXPECT_DOUBLE_EQ(v.at(fromGHz(1.0)), 0.65);
    EXPECT_DOUBLE_EQ(v.at(fromGHz(5.0)), 1.2);
}

TEST(VoltageCurve, LinearInterpolation)
{
    const VoltageCurve v = VoltageCurve::coreDefault();
    const Volts mid = v.at(fromGHz(3.1));
    EXPECT_NEAR(mid, 0.65 + 0.5 * (1.2 - 0.65), 1e-12);
}

TEST(VoltageCurve, SquaredRatioAtExtremes)
{
    const VoltageCurve v = VoltageCurve::coreDefault();
    EXPECT_DOUBLE_EQ(v.squaredRatio(fromGHz(4.0)), 1.0);
    const double lo = v.squaredRatio(fromGHz(2.2));
    EXPECT_NEAR(lo, (0.65 / 1.2) * (0.65 / 1.2), 1e-12);
}

TEST(VoltageCurve, EffectiveAlphaWithinPaperRange)
{
    // V^2 * f over the default curve yields an effective power-law
    // exponent between 2 and ~3.2 — the paper's "alpha typically
    // between 2 and 3".
    const VoltageCurve v = VoltageCurve::coreDefault();
    const double x = 2.2 / 4.0;
    const double p_ratio = v.squaredRatio(fromGHz(2.2)) * x;
    const double alpha = std::log(p_ratio) / std::log(x);
    EXPECT_GT(alpha, 2.0);
    EXPECT_LT(alpha, 3.3);
}

TEST(VoltageCurve, RejectsDegenerateRange)
{
    EXPECT_THROW(VoltageCurve(2e9, 1e9, 0.65, 1.2), FatalError);
    EXPECT_THROW(VoltageCurve(1e9, 2e9, 1.2, 0.65), FatalError);
}

} // namespace
} // namespace fastcap
