/**
 * @file
 * Tests for the exponentially weighted moving average.
 */

#include <gtest/gtest.h>

#include "util/logging.hpp"
#include "util/stats.hpp"

namespace fastcap {
namespace {

TEST(Ewma, FirstSampleSeeds)
{
    Ewma e(0.5);
    EXPECT_FALSE(e.seeded());
    e.add(10.0);
    EXPECT_TRUE(e.seeded());
    EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, ConvergesToConstant)
{
    Ewma e(0.25);
    for (int i = 0; i < 100; ++i)
        e.add(4.2);
    EXPECT_NEAR(e.value(), 4.2, 1e-9);
}

TEST(Ewma, WeightsNewSamples)
{
    Ewma e(0.5);
    e.add(0.0);
    e.add(10.0);
    EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(Ewma, RejectsAlphaOutsideUnitInterval)
{
    EXPECT_THROW(Ewma(0.0), FatalError);   // frozen average
    EXPECT_THROW(Ewma(-0.5), FatalError);  // divergent
    EXPECT_THROW(Ewma(1.5), FatalError);   // oscillating
    EXPECT_NO_THROW(Ewma(1.0));            // degenerate but valid
    EXPECT_NO_THROW(Ewma(1e-9));
}

} // namespace
} // namespace fastcap
