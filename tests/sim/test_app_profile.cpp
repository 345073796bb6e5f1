/**
 * @file
 * Tests for application profiles and phase cycling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "profile_average.hpp"
#include "sim/app_profile.hpp"
#include "util/logging.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

Phase
makePhase(double instr, double mpki, double cpi = 1.0)
{
    Phase p;
    p.instructions = instr;
    p.mpki = mpki;
    p.cpiExec = cpi;
    p.wpki = mpki * 0.3;
    p.activity = 0.8;
    return p;
}

TEST(AppProfile, SinglePhaseAlwaysReturned)
{
    const AppProfile app("mono", makePhase(1e6, 2.0));
    EXPECT_DOUBLE_EQ(app.phaseAt(0).mpki, 2.0);
    EXPECT_DOUBLE_EQ(app.phaseAt(1e12).mpki, 2.0);
}

TEST(AppProfile, PhaseSelectionByPosition)
{
    const AppProfile app("duo", std::vector<Phase>{
        makePhase(10e6, 1.0), makePhase(5e6, 8.0)});
    EXPECT_DOUBLE_EQ(app.phaseAt(0).mpki, 1.0);
    EXPECT_DOUBLE_EQ(app.phaseAt(9.99e6).mpki, 1.0);
    EXPECT_DOUBLE_EQ(app.phaseAt(10.01e6).mpki, 8.0);
    EXPECT_DOUBLE_EQ(app.phaseAt(14.9e6).mpki, 8.0);
}

TEST(AppProfile, PhasesWrapCyclically)
{
    const AppProfile app("duo", std::vector<Phase>{
        makePhase(10e6, 1.0), makePhase(5e6, 8.0)});
    // Cycle length 15M: position 16M is 1M into the next cycle.
    EXPECT_DOUBLE_EQ(app.phaseAt(16e6).mpki, 1.0);
    EXPECT_DOUBLE_EQ(app.phaseAt(15e6 * 100 + 12e6).mpki, 8.0);
}

TEST(AppProfile, InstructionsPerMiss)
{
    const Phase p = makePhase(1e6, 4.0);
    EXPECT_DOUBLE_EQ(p.instructionsPerMiss(), 250.0);
}

TEST(AppProfile, WeightedAverages)
{
    const AppProfile app("duo", std::vector<Phase>{
        makePhase(10e6, 1.0, 1.2), makePhase(10e6, 3.0, 0.8)});
    EXPECT_DOUBLE_EQ(averageOf(app, &Phase::mpki), 2.0);
    EXPECT_DOUBLE_EQ(averageOf(app, &Phase::cpiExec), 1.0);
    EXPECT_NEAR(averageOf(app, &Phase::wpki), 2.0 * 0.3, 1e-12);
}

TEST(AppProfile, CycleLengthSumsPhases)
{
    const AppProfile app("trio", std::vector<Phase>{
        makePhase(1e6, 1.0), makePhase(2e6, 1.0), makePhase(3e6, 1.0)});
    EXPECT_DOUBLE_EQ(app.cycleLength(), 6e6);
}

TEST(AppProfile, RejectsEmptyAndInvalidPhases)
{
    EXPECT_THROW(AppProfile("bad", std::vector<Phase>{}), FatalError);
    Phase zero_mpki = makePhase(1e6, 0.0);
    EXPECT_THROW(AppProfile("bad", zero_mpki), FatalError);
    Phase neg_instr = makePhase(-1.0, 1.0);
    EXPECT_THROW(AppProfile("bad", neg_instr), FatalError);
}

TEST(AppProfile, RejectsNonFiniteAndOutOfRangePhaseValues)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    // A NaN passes a plain `<= 0` test; an infinite wpki would draw
    // writebacks forever.
    Phase p = makePhase(1e6, 1.0);
    p.mpki = nan;
    EXPECT_THROW(AppProfile("bad", p), FatalError);
    p = makePhase(1e6, 1.0);
    p.instructions = inf;
    EXPECT_THROW(AppProfile("bad", p), FatalError);
    p = makePhase(1e6, 1.0);
    p.cpiExec = nan;
    EXPECT_THROW(AppProfile("bad", p), FatalError);
    p = makePhase(1e6, 1.0);
    p.wpki = inf;
    EXPECT_THROW(AppProfile("bad", p), FatalError);
    p = makePhase(1e6, 1.0);
    p.activity = nan;
    EXPECT_THROW(AppProfile("bad", p), FatalError);
    p = makePhase(1e6, 1.0);
    p.wpki = -0.1;
    EXPECT_THROW(AppProfile("bad", p), FatalError);
    p = makePhase(1e6, 1.0);
    p.activity = 0.0;
    EXPECT_THROW(AppProfile("bad", p), FatalError);
    p.activity = 1.0 + 1e-12;
    EXPECT_THROW(AppProfile("bad", p), FatalError);
    // Finite, but too many writebacks per miss to draw one by one.
    p = makePhase(1e6, 1e-6);
    p.wpki = 1e300;
    EXPECT_THROW(AppProfile("bad", p), FatalError);

    // Finite phases whose cycle is not: every position would be NaN.
    EXPECT_THROW(AppProfile("bad", std::vector<Phase>{
                     makePhase(1e308, 1.0), makePhase(1e308, 1.0)}),
                 FatalError);

    // The edges of the ranges are fine.
    p = makePhase(1e6, 1.0);
    p.wpki = 0.0;
    p.activity = 1.0;
    EXPECT_NO_THROW(AppProfile("ok", p));
    p.wpki = 1000.0;
    EXPECT_NO_THROW(AppProfile("ok", p));
}

/**
 * phaseAt(x, until) at `x`: the same Phase as phaseAt(x), and that
 * phase at every probe of [x, until). Returns whether the span is
 * empty.
 */
bool
checkSpan(const AppProfile &app, double x)
{
    double until = 0.0;
    const Phase *phase = &app.phaseAt(x, until);
    EXPECT_EQ(phase, &app.phaseAt(x)) << app.name() << " x=" << x;
    if (!(x < until))
        return true;
    // The span's ends, a few ulps inward of each, and its midpoint.
    std::vector<double> probes{x + (until - x) / 2};
    double up = x;
    double down = std::nextafter(until, x);
    for (int k = 0; k < 4; ++k) {
        probes.push_back(up);
        probes.push_back(down);
        up = std::nextafter(up, until);
        down = std::nextafter(down, x);
    }
    for (const double y : probes) {
        if (y >= x && y < until) {
            EXPECT_EQ(&app.phaseAt(y), phase)
                << app.name() << " x=" << x << " y=" << y;
        }
    }
    return false;
}

TEST(AppProfile, PhaseSpanStaysInOnePhase)
{
    // Every application of the Table III mixes, and phases whose
    // lengths and boundaries are not round in binary.
    std::set<std::string> names;
    for (const std::string &w : workloads::workloadNames()) {
        for (const std::string &a : workloads::mixApps(w))
            names.insert(a);
    }
    std::vector<AppProfile> apps;
    for (const std::string &name : names)
        apps.push_back(workloads::spec(name));
    apps.push_back(AppProfile("odd", std::vector<Phase>{
        makePhase(1e6 / 3.0, 1.0), makePhase(0.7e6, 2.0),
        makePhase(12345.678, 3.0), makePhase(1e6 / 7.0, 4.0)}));
    ASSERT_GT(apps.size(), 20u);

    for (const AppProfile &app : apps) {
        const double len = app.cycleLength();
        // From the first cycle to a retired count of ~1e18.
        for (const double cycles : {0.0, 1.0, 2.0, 7.0, 1e3, 12345.0,
                                    1e6, 1e9, 1e18 / len}) {
            const double base = len * std::floor(cycles);
            double boundary = base;
            for (const Phase &p : app.phases()) {
                // Each boundary, and the cycle wrap, within a few ulps.
                double below = boundary;
                double above = boundary;
                for (int k = 0; k < 4; ++k) {
                    checkSpan(app, below);
                    checkSpan(app, above);
                    below = std::nextafter(below, -1.0);
                    above = std::nextafter(above, 2.0 * above + 1.0);
                }
                // Away from a boundary the span is not empty while the
                // margin is small beside the phase.
                const bool empty =
                    checkSpan(app, boundary + p.instructions / 2);
                if (boundary < 1e15) {
                    EXPECT_FALSE(empty)
                        << app.name() << " at " << boundary;
                }
                boundary += p.instructions;
            }
            checkSpan(app, base + len);
            checkSpan(app, std::nextafter(base + len, 0.0));
        }
    }
}

} // namespace
} // namespace fastcap
