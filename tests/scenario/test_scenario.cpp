/**
 * @file
 * WorkloadSchedule and Scenario: event parsing and ordering, app-name
 * resolution (including the built-in "idle" profile), the inline
 * scenario grammar, the `name = spec` scenario-file loader, and the
 * validation contract (unknown apps, negative times, malformed specs
 * all FatalError at construction).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "profile_average.hpp"
#include "scenario/scenario.hpp"
#include "util/logging.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

TEST(WorkloadSchedule, ParsesAndSortsEvents)
{
    const WorkloadSchedule s =
        WorkloadSchedule::parse("0.1:3:milc; 0.05:0:idle; 0.1:1:gcc");
    ASSERT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s.events()[0].time, 0.05);
    EXPECT_EQ(s.events()[0].core, 0);
    EXPECT_EQ(s.events()[0].app, "idle");
    // Equal-time events keep insertion order (stable sort).
    EXPECT_EQ(s.events()[1].core, 3);
    EXPECT_EQ(s.events()[1].app, "milc");
    EXPECT_EQ(s.events()[2].core, 1);
    EXPECT_EQ(s.events()[2].app, "gcc");
}

TEST(WorkloadSchedule, EmptySpecYieldsEmptySchedule)
{
    EXPECT_TRUE(WorkloadSchedule::parse("").empty());
    EXPECT_TRUE(WorkloadSchedule::parse("  ").empty());
}

TEST(WorkloadSchedule, ResolvesIdleAndTableApps)
{
    EXPECT_EQ(WorkloadSchedule::resolve("idle").name(), "idle");
    // Idle must barely touch memory or burn power.
    const AppProfile &idle = WorkloadSchedule::resolve("idle");
    EXPECT_LT(averageOf(idle, &Phase::mpki), 0.1);
    EXPECT_LT(idle.phases().front().activity, 0.2);
    EXPECT_EQ(WorkloadSchedule::resolve("milc").name(), "milc");
    EXPECT_THROW(WorkloadSchedule::resolve("notanapp"), FatalError);
}

TEST(WorkloadSchedule, RejectsBadEvents)
{
    // Unknown app names fail at construction, not mid-run.
    EXPECT_THROW(WorkloadSchedule::parse("0.1:0:notanapp"),
                 FatalError);
    // Negative time / core.
    EXPECT_THROW(WorkloadSchedule::parse("-0.1:0:milc"), FatalError);
    EXPECT_THROW(WorkloadSchedule::parse("0.1:-2:milc"), FatalError);
    // Non-finite times never fire ('nan <= now' is always false);
    // reject them up front.
    EXPECT_THROW(WorkloadSchedule::parse("nan:0:milc"), FatalError);
    EXPECT_THROW(WorkloadSchedule::parse("inf:0:milc"), FatalError);
    // Malformed shapes.
    EXPECT_THROW(WorkloadSchedule::parse("0.1:0"), FatalError);
    EXPECT_THROW(WorkloadSchedule::parse("0.1"), FatalError);
    EXPECT_THROW(WorkloadSchedule::parse("x:0:milc"), FatalError);
    EXPECT_THROW(WorkloadSchedule::parse("0.1:x:milc"), FatalError);
    // Overflowing core indices must not wrap onto a valid core.
    EXPECT_THROW(WorkloadSchedule::parse("0.1:4294967297:milc"),
                 FatalError);
    EXPECT_THROW(WorkloadSchedule::parse("0.1:0:"), FatalError);
    EXPECT_THROW(WorkloadSchedule::parse("0.1:0:milc;;"), FatalError);
    // A trailing ';' is an empty event too.
    EXPECT_THROW(WorkloadSchedule::parse("0.1:0:milc;"), FatalError);
    EXPECT_THROW(WorkloadSchedule::parse(";0.1:0:milc"), FatalError);

    WorkloadSchedule s;
    EXPECT_THROW(s.add(0.1, 0, ""), FatalError);
    EXPECT_THROW(s.add(-1.0, 0, "milc"), FatalError);
}

TEST(Scenario, DefaultIsConstant)
{
    const Scenario sc;
    EXPECT_TRUE(sc.budget.empty() && sc.workload.empty() &&
                sc.trace.empty());
    EXPECT_EQ(sc.name, "constant");
}

TEST(Scenario, ParsesInlineSpecs)
{
    const Scenario sc = Scenario::parse(
        "name=drop|budget=step@0:0.9;step@0.05:0.5|"
        "workload=0.08:0:idle");
    EXPECT_EQ(sc.name, "drop");
    EXPECT_EQ(sc.budget.size(), 2u);
    ASSERT_EQ(sc.workload.size(), 1u);
    EXPECT_EQ(sc.workload.events()[0].app, "idle");
}

TEST(Scenario, BareLeadingFieldIsTheName)
{
    const Scenario sc =
        Scenario::parse("spike|budget=sine@0:0.7~0.1/0.05");
    EXPECT_EQ(sc.name, "spike");
    EXPECT_EQ(sc.budget.size(), 1u);
    EXPECT_TRUE(sc.workload.empty());
}

TEST(Scenario, NameDefaultsWhenOmitted)
{
    const Scenario sc = Scenario::parse("budget=step@0:0.5");
    EXPECT_EQ(sc.name, "scenario");
}

TEST(Scenario, RejectsMalformedSpecs)
{
    EXPECT_THROW(Scenario::parse(""), FatalError);
    EXPECT_THROW(Scenario::parse("budget=step@0:0.5|bogus=1"),
                 FatalError);
    EXPECT_THROW(Scenario::parse("budget=step@0:0.5|extra"),
                 FatalError);
    EXPECT_THROW(
        Scenario::parse("budget=step@0:0.5|budget=step@0:0.6"),
        FatalError);
    EXPECT_THROW(
        Scenario::parse("workload=0.1:0:idle|workload=0.2:0:idle"),
        FatalError);
    EXPECT_THROW(
        Scenario::parse("name=drop|name=wave|budget=step@0:0.9"),
        FatalError);
    EXPECT_THROW(
        Scenario::parse("drop|name=wave|budget=step@0:0.9"),
        FatalError);
    EXPECT_THROW(Scenario::parse("name=|budget=step@0:0.5"),
                 FatalError);
    // Empty fields, a trailing '|' or ';' included, and empty values.
    EXPECT_THROW(Scenario::parse("name=a|budget=step@0:0.9;|"),
                 FatalError);
    EXPECT_THROW(Scenario::parse("name=a|budget=step@0:0.9|"),
                 FatalError);
    EXPECT_THROW(Scenario::parse("|name=a"), FatalError);
    EXPECT_THROW(Scenario::parse("name=a|budget="), FatalError);
    EXPECT_THROW(Scenario::parse("name=a|workload="), FatalError);
    EXPECT_THROW(Scenario::parse("name=a|trace="), FatalError);
    EXPECT_THROW(Scenario::parse("name=a|trace=gen:poisson,rate=5,"),
                 FatalError);
    // Schedule errors propagate with their own messages.
    EXPECT_THROW(Scenario::parse("budget=step@0:2.0"), FatalError);
    EXPECT_THROW(Scenario::parse("workload=0.1:0:notanapp"),
                 FatalError);
}

class ScenarioFile : public ::testing::Test
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
        _path = ::testing::TempDir() + "scenarios_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name() +
            ".txt";
        std::ofstream out(_path);
        out << content;
        return _path;
    }

  private:
    std::string _path;
};

TEST_F(ScenarioFile, LoadsNamedScenarios)
{
    const std::string &path = write(
        "# transient scenarios\n"
        "drop   = budget=step@0:0.9;step@0.05:0.5\n"
        "churn  = workload=0.05:0:idle;0.1:0:milc\n"
        "wave   = budget=sine@0:0.7~0.1/0.05|workload=0.2:1:idle\n");
    const std::vector<Scenario> list = Scenario::loadFile(path);
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0].name, "drop");
    EXPECT_EQ(list[0].budget.size(), 2u);
    EXPECT_EQ(list[1].name, "churn");
    EXPECT_EQ(list[1].workload.size(), 2u);
    EXPECT_EQ(list[2].name, "wave");
    EXPECT_FALSE(list[2].workload.empty());
}

TEST_F(ScenarioFile, RejectsBadFiles)
{
    EXPECT_THROW(Scenario::loadFile("/nonexistent/scenarios.txt"),
                 FatalError);
    EXPECT_THROW(Scenario::loadFile(write("")), FatalError);
    EXPECT_THROW(Scenario::loadFile(write("no equals sign\n")),
                 FatalError);
    EXPECT_THROW(Scenario::loadFile(write("= budget=step@0:0.5\n")),
                 FatalError);
    EXPECT_THROW(
        Scenario::loadFile(write("a = budget=step@0:0.5\n"
                                 "a = budget=step@0:0.6\n")),
        FatalError);
    EXPECT_THROW(Scenario::loadFile(write("a =\n")), FatalError);
    EXPECT_THROW(Scenario::loadFile(write("a = budget=step@0:0.5|\n")),
                 FatalError);
}

/** what() of the FatalError loadFile(path) throws, or "". */
std::string
loadError(const std::string &path)
{
    try {
        Scenario::loadFile(path);
    } catch (const FatalError &e) {
        return e.what();
    }
    return std::string();
}

TEST_F(ScenarioFile, ErrorsInsideASpecNameTheFileAndLine)
{
    const std::string &path = write("ok = budget=step@0:0.5\n"
                                    "bad = budget=step@0:2\n");
    EXPECT_EQ(loadError(path),
              path + ":2: BudgetSchedule: step level 2 out of range "
                     "(0, 1]");
}

TEST_F(ScenarioFile, RejectsAHashInsideAValue)
{
    // Read as a comment, the '#' would cut the path to '/tmp/run' and
    // the run would fail far from the cause.
    const std::string &path = write("a = trace=/tmp/run#1.trace\n");
    EXPECT_EQ(loadError(path),
              path + ":1: '#' inside a field (a comment starts the line "
                     "or follows a space)");
}

} // namespace
} // namespace fastcap
