/**
 * @file
 * BudgetSchedule: segment evaluation semantics, the spec-string
 * parser, the CSV trace loader, and the validation contract — every
 * malformed spec, negative time or out-of-range fraction must fail
 * with a FatalError at construction, never mid-run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "scenario/budget_schedule.hpp"
#include "util/logging.hpp"

namespace fastcap {
namespace {

TEST(BudgetSchedule, EmptyScheduleIsConstant)
{
    const BudgetSchedule s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.fractionAt(0.0, 0.6), 0.6);
    EXPECT_DOUBLE_EQ(s.fractionAt(123.0, 0.42), 0.42);
}

TEST(BudgetSchedule, FallbackAppliesBeforeTheFirstSegment)
{
    BudgetSchedule s;
    s.addStep(0.05, 0.5);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.0, 0.8), 0.8);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.0499, 0.8), 0.8);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.05, 0.8), 0.5);
    EXPECT_DOUBLE_EQ(s.fractionAt(9.0, 0.8), 0.5);
}

TEST(BudgetSchedule, StepsFormAPiecewiseConstantFunction)
{
    BudgetSchedule s;
    s.addStep(0.0, 0.9);
    s.addStep(0.05, 0.5);
    s.addStep(0.1, 0.7);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.0, 0.6), 0.9);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.049, 0.6), 0.9);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.05, 0.6), 0.5);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.099, 0.6), 0.5);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.2, 0.6), 0.7);
}

TEST(BudgetSchedule, RampInterpolatesLinearlyThenHolds)
{
    BudgetSchedule s;
    s.addRamp(0.1, 0.9, 0.5, 0.2);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.1, 0.6), 0.9);
    EXPECT_NEAR(s.fractionAt(0.2, 0.6), 0.7, 1e-12);
    EXPECT_NEAR(s.fractionAt(0.3, 0.6), 0.5, 1e-12);
    // After the ramp completes the end level holds.
    EXPECT_DOUBLE_EQ(s.fractionAt(5.0, 0.6), 0.5);
}

TEST(BudgetSchedule, SineOscillatesAroundItsMean)
{
    BudgetSchedule s;
    s.addSine(0.0, 0.7, 0.2, 0.1);
    EXPECT_NEAR(s.fractionAt(0.0, 0.6), 0.7, 1e-12);
    EXPECT_NEAR(s.fractionAt(0.025, 0.6), 0.9, 1e-12); // crest
    EXPECT_NEAR(s.fractionAt(0.075, 0.6), 0.5, 1e-12); // trough
    EXPECT_NEAR(s.fractionAt(0.1, 0.6), 0.7, 1e-9);    // full period
}

TEST(BudgetSchedule, LaterSegmentsShadowEarlierOnes)
{
    BudgetSchedule s;
    s.addSine(0.0, 0.7, 0.2, 0.1);
    s.addStep(0.2, 0.5);
    EXPECT_NEAR(s.fractionAt(0.05, 0.6), 0.7, 1e-9);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.25, 0.6), 0.5);
}

TEST(BudgetScheduleParse, AcceptsTheDocumentedGrammar)
{
    const BudgetSchedule s = BudgetSchedule::parse(
        "step@0:0.9; step@0.05:0.5; ramp@0.1:0.5->0.8/0.05; "
        "sine@0.2:0.7~0.1/0.04");
    ASSERT_EQ(s.size(), 4u);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.0, 0.6), 0.9);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.06, 0.6), 0.5);
    EXPECT_NEAR(s.fractionAt(0.125, 0.6), 0.65, 1e-12);
    EXPECT_NEAR(s.fractionAt(0.21, 0.6), 0.8, 1e-9);
}

TEST(BudgetScheduleParse, ConstantAndEmptyYieldEmptySchedules)
{
    EXPECT_TRUE(BudgetSchedule::parse("").empty());
    EXPECT_TRUE(BudgetSchedule::parse("constant").empty());
    EXPECT_TRUE(BudgetSchedule::parse("  constant  ").empty());
}

TEST(BudgetScheduleParse, RejectsMalformedSpecs)
{
    // Wrong overall shape.
    EXPECT_THROW(BudgetSchedule::parse("step"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step:0.5"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@0.5"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@0:0.9;;step@1:0.5"),
                 FatalError);
    // Unknown kinds and junk numbers.
    EXPECT_THROW(BudgetSchedule::parse("leap@0:0.5"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@zero:0.5"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@0:half"), FatalError);
    // Ramp/sine params missing their separators.
    EXPECT_THROW(BudgetSchedule::parse("ramp@0:0.9-0.5/0.1"),
                 FatalError);
    EXPECT_THROW(BudgetSchedule::parse("ramp@0:0.9->0.5"),
                 FatalError);
    EXPECT_THROW(BudgetSchedule::parse("sine@0:0.7~0.1"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("sine@0:0.7/0.1"), FatalError);
}

TEST(BudgetScheduleParse, RejectsEveryEmptySegment)
{
    // A trailing or leading ';' is an empty segment like ";;" is.
    EXPECT_THROW(BudgetSchedule::parse("step@0:0.9;"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse(";step@0:0.9"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@0:0.9; ;step@1:0.5"),
                 FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@:0.5"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("trace@0:"), FatalError);
}

TEST(BudgetScheduleParse, RejectsNegativeTimes)
{
    EXPECT_THROW(BudgetSchedule::parse("step@-0.1:0.5"), FatalError);
    BudgetSchedule s;
    EXPECT_THROW(s.addStep(-1.0, 0.5), FatalError);
    EXPECT_THROW(s.addRamp(-0.5, 0.9, 0.5, 0.1), FatalError);
    EXPECT_THROW(s.addSine(-2.0, 0.7, 0.1, 0.1), FatalError);
}

TEST(BudgetScheduleParse, RejectsNonFiniteValues)
{
    // NaN would defeat the ordering checks and leave fractionAt()'s
    // binary search running on a non-partitioned segment list.
    EXPECT_THROW(BudgetSchedule::parse("step@nan:0.5"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@inf:0.5"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@0:nan"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("ramp@0:0.9->0.5/inf"),
                 FatalError);
    const double nan = std::nan("");
    BudgetSchedule s;
    EXPECT_THROW(s.addStep(nan, 0.5), FatalError);
    EXPECT_THROW(s.addRamp(0.0, 0.9, 0.5,
                           std::numeric_limits<double>::infinity()),
                 FatalError);
    EXPECT_THROW(s.addSine(0.0, 0.7, 0.1, nan), FatalError);
}

TEST(BudgetScheduleParse, RejectsOutOfRangeFractions)
{
    EXPECT_THROW(BudgetSchedule::parse("step@0:0"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@0:-0.4"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@0:1.2"), FatalError);
    EXPECT_THROW(BudgetSchedule::parse("ramp@0:1.4->0.5/0.1"),
                 FatalError);
    EXPECT_THROW(BudgetSchedule::parse("ramp@0:0.9->0/0.1"),
                 FatalError);
    // Sine extremes must stay inside (0, 1] too.
    EXPECT_THROW(BudgetSchedule::parse("sine@0:0.9~0.2/0.1"),
                 FatalError);
    EXPECT_THROW(BudgetSchedule::parse("sine@0:0.1~0.2/0.1"),
                 FatalError);
}

TEST(BudgetScheduleParse, RejectsDegenerateShapes)
{
    // Non-positive ramp duration / sine period.
    EXPECT_THROW(BudgetSchedule::parse("ramp@0:0.9->0.5/0"),
                 FatalError);
    EXPECT_THROW(BudgetSchedule::parse("ramp@0:0.9->0.5/-1"),
                 FatalError);
    EXPECT_THROW(BudgetSchedule::parse("sine@0:0.7~0.1/0"),
                 FatalError);
    // A sub-nanosecond period overflows the phase to inf, and
    // fractionAt() would return sin(inf) = NaN.
    EXPECT_THROW(BudgetSchedule::parse("sine@0:0.7~0.1/1e-320"),
                 FatalError);
    EXPECT_THROW(BudgetSchedule::parse("sine@0:0.7~0.1/1e-10"),
                 FatalError);
    EXPECT_TRUE(std::isfinite(
        BudgetSchedule::parse("sine@0:0.7~0.1/1e-9").fractionAt(1.0, 0.5)));
    BudgetSchedule s;
    EXPECT_THROW(s.addSine(0.0, 0.7, -0.1, 0.1), FatalError);
}

TEST(BudgetScheduleParse, RequiresStrictlyIncreasingStarts)
{
    EXPECT_THROW(BudgetSchedule::parse("step@0.1:0.5;step@0.1:0.6"),
                 FatalError);
    EXPECT_THROW(BudgetSchedule::parse("step@0.2:0.5;step@0.1:0.6"),
                 FatalError);
}

class BudgetTraceFile : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        if (!_path.empty())
            std::remove(_path.c_str());
    }

    const std::string &
    write(const std::string &content)
    {
        _path = ::testing::TempDir() + "budget_trace_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name() +
            ".csv";
        std::ofstream out(_path);
        out << content;
        return _path;
    }

  private:
    std::string _path;
};

TEST_F(BudgetTraceFile, StreamsRowsAsOneSegment)
{
    const std::string &path =
        write("time,fraction\n0,0.9\n0.05,0.5\n# comment\n0.1,0.7\n");
    const BudgetSchedule s = BudgetSchedule::parse("trace@0:" + path);
    // The rows stay on disk: one Trace segment, not one step per row.
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.segments()[0].kind, BudgetSegmentKind::Trace);
    EXPECT_EQ(s.segments()[0].traceRows, 3u);
    EXPECT_DOUBLE_EQ(s.segments()[0].traceEnd, 0.1);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.01, 0.6), 0.9);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.06, 0.6), 0.5);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.2, 0.6), 0.7);
    // Backward queries rewind the stream transparently.
    EXPECT_DOUBLE_EQ(s.fractionAt(0.01, 0.6), 0.9);
}

TEST_F(BudgetTraceFile, HeaderMayFollowCommentsAndBlankLines)
{
    const std::string &path = write(
        "# rack cap trace\n\ntime,fraction\n0,0.9\n0.05,0.5\n");
    const BudgetSchedule s = BudgetSchedule::parse("trace@0:" + path);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.segments()[0].traceRows, 2u);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.01, 0.6), 0.9);
}

TEST_F(BudgetTraceFile, CopiesStreamIndependently)
{
    const std::string &path = write("0,0.9\n0.05,0.5\n0.1,0.7\n");
    const BudgetSchedule s = BudgetSchedule::parse("trace@0:" + path);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.2, 0.6), 0.7); // cursor at end
    // A copy must not inherit the original's file position…
    const BudgetSchedule copy = s;
    EXPECT_DOUBLE_EQ(copy.fractionAt(0.01, 0.6), 0.9);
    // …and the original keeps answering from where it was.
    EXPECT_DOUBLE_EQ(s.fractionAt(0.25, 0.6), 0.7);
}

TEST_F(BudgetTraceFile, SegmentsMayFollowATraceAfterItsLastRow)
{
    const std::string &path = write("0,0.9\n0.05,0.5\n");
    BudgetSchedule s = BudgetSchedule::parse("trace@0:" + path);
    // The trace occupies [0, 0.05]; a step inside that span overlaps.
    EXPECT_THROW(s.addStep(0.03, 0.7), FatalError);
    s.addStep(0.08, 0.7);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.06, 0.6), 0.5);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.09, 0.6), 0.7);
}

TEST_F(BudgetTraceFile, OffsetsRowTimesByTheSegmentStart)
{
    const std::string &path = write("0,0.9\n0.05,0.5\n");
    const BudgetSchedule s =
        BudgetSchedule::parse("trace@0.1:" + path);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.05, 0.6), 0.6); // before trace
    EXPECT_DOUBLE_EQ(s.fractionAt(0.1, 0.6), 0.9);
    EXPECT_DOUBLE_EQ(s.fractionAt(0.16, 0.6), 0.5);
}

TEST_F(BudgetTraceFile, RejectsBadTraces)
{
    EXPECT_THROW(
        BudgetSchedule::parse("trace@0:/nonexistent/trace.csv"),
        FatalError);
    EXPECT_THROW(BudgetSchedule::parse("trace@0:" + write("")),
                 FatalError);
    EXPECT_THROW(
        BudgetSchedule::parse("trace@0:" + write("0 0.9\n")),
        FatalError);
    EXPECT_THROW(
        BudgetSchedule::parse("trace@0:" + write("0,0.9\n0.05,1.4\n")),
        FatalError);
    EXPECT_THROW(
        BudgetSchedule::parse("trace@0:" + write("0,0.9\n0,0.5\n")),
        FatalError);
}

} // namespace
} // namespace fastcap
