/**
 * @file
 * Tests for the application table and Table III workload mixes.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "profile_average.hpp"
#include "util/logging.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

namespace wl = workloads;

/** Every application the Table III mixes use; together they cover
 *  the whole table. */
std::set<std::string>
mixedApps()
{
    std::set<std::string> names;
    for (const std::string &w : wl::workloadNames())
        for (const std::string &a : wl::mixApps(w))
            names.insert(a);
    return names;
}

TEST(SpecTable, AllSixteenWorkloadsExist)
{
    const auto names = wl::workloadNames();
    ASSERT_EQ(names.size(), 16u);
    for (const std::string &name : names) {
        const auto apps = wl::mixApps(name);
        EXPECT_EQ(apps.size(), 4u) << name;
        for (const std::string &app : apps)
            EXPECT_NO_THROW(wl::spec(app)) << app;
    }
}

TEST(SpecTable, TableIIIRowsMatchPaper)
{
    EXPECT_EQ(wl::mixApps("ILP1"),
              (std::vector<std::string>{"vortex", "gcc", "sixtrack",
                                        "mesa"}));
    EXPECT_EQ(wl::mixApps("MEM4"),
              (std::vector<std::string>{"swim", "applu", "sphinx3",
                                        "lucas"}));
    EXPECT_EQ(wl::mixApps("MIX3"),
              (std::vector<std::string>{"equake", "ammp", "sjeng",
                                        "crafty"}));
}

TEST(SpecTable, UnknownNamesAreFatal)
{
    EXPECT_THROW(wl::spec("notanapp"), FatalError);
    EXPECT_THROW(wl::mixApps("ILP9"), FatalError);
    EXPECT_THROW(wl::workloadsOfClass("FOO"), FatalError);
}

TEST(SpecTable, ClassExtraction)
{
    EXPECT_EQ(wl::classOf("MEM3"), "MEM");
    EXPECT_EQ(wl::classOf("MIX1"), "MIX");
    const auto mems = wl::workloadsOfClass("MEM");
    EXPECT_EQ(mems.size(), 4u);
    EXPECT_EQ(mems[0], "MEM1");
}

TEST(SpecTable, ClassMpkiOrderingMatchesPaper)
{
    // Table III: MEM >> MID > ILP in L2 misses per kilo-instruction.
    const auto class_mpki = [](const std::string &cls) {
        double acc = 0.0;
        int n = 0;
        for (const std::string &w : wl::workloadsOfClass(cls)) {
            for (const std::string &a : wl::mixApps(w)) {
                acc += averageOf(wl::spec(a), &Phase::mpki);
                ++n;
            }
        }
        return acc / n;
    };
    const double ilp = class_mpki("ILP");
    const double mid = class_mpki("MID");
    const double mem = class_mpki("MEM");
    EXPECT_LT(ilp, 1.0);
    EXPECT_GT(mid, ilp * 2.0);
    EXPECT_GT(mem, mid * 3.0);
}

TEST(SpecTable, WpkiBelowMpki)
{
    for (const std::string &name : mixedApps()) {
        const AppProfile &app = wl::spec(name);
        const double wpki = averageOf(app, &Phase::wpki);
        EXPECT_LT(wpki, averageOf(app, &Phase::mpki)) << name;
        EXPECT_GT(wpki, 0.0) << name;
    }
}

TEST(SpecTable, ProfilesHavePhaseVariety)
{
    // Each profile is multi-phase (drives the paper's dynamics).
    for (const std::string &name : mixedApps()) {
        const AppProfile &app = wl::spec(name);
        EXPECT_GE(app.phases().size(), 3u) << name;
        // Phases differ in MPKI.
        std::set<double> distinct;
        for (const Phase &p : app.phases())
            distinct.insert(p.mpki);
        EXPECT_GE(distinct.size(), 2u) << name;
    }
}

TEST(SpecTable, ActivityWithinUnitRange)
{
    for (const std::string &name : mixedApps()) {
        for (const Phase &p : wl::spec(name).phases()) {
            EXPECT_GT(p.activity, 0.0) << name;
            EXPECT_LE(p.activity, 1.0) << name;
        }
    }
}

TEST(SpecTable, MixReplicatesNOverFourCopies)
{
    const auto apps16 = wl::mix("MID2", 16);
    ASSERT_EQ(apps16.size(), 16u);
    // Interleaved: positions i, i+4, i+8, i+12 share a name.
    for (int i = 0; i < 4; ++i)
        for (int k = 1; k < 4; ++k)
            EXPECT_EQ(apps16[i].name(), apps16[i + 4 * k].name());

    const auto apps4 = wl::mix("MID2", 4);
    EXPECT_EQ(apps4.size(), 4u);
    std::set<std::string> names;
    for (const auto &a : apps4)
        names.insert(a.name());
    EXPECT_EQ(names.size(), 4u);
}

TEST(SpecTable, MixRejectsBadCoreCounts)
{
    EXPECT_THROW(wl::mix("ILP1", 0), FatalError);
    EXPECT_THROW(wl::mix("ILP1", 6), FatalError);
    EXPECT_THROW(wl::mix("ILP1", -4), FatalError);
}

TEST(SpecTable, MemClassIsMemoryBoundInMixes)
{
    // MEM1's average MPKI is within a factor ~2 of the paper's 18.22
    // (exact match is not required — see docs/DESIGN.md).
    double acc = 0.0;
    for (const std::string &a : wl::mixApps("MEM1"))
        acc += averageOf(wl::spec(a), &Phase::mpki);
    const double mpki = acc / 4.0;
    EXPECT_GT(mpki, 9.0);
    EXPECT_LT(mpki, 25.0);
}

} // namespace
} // namespace fastcap
