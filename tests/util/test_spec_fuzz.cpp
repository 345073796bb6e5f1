/**
 * @file
 * Seeded fuzz tier for the spec grammars, in the style of
 * test_solver_fuzz.cpp: util/spec itself, BudgetSchedule,
 * WorkloadSchedule, Scenario and TraceGenSpec. Known-good specs are
 * mutated (bytes flipped, separators inserted or deleted, fields
 * repeated, numbers replaced by nan/inf or overflowing integers), and
 * every input must end either in FatalError or in an object whose
 * numbers are all finite. A fixed table pins every spec string the
 * goldens, examples, CI, docs and perfbench use to the fields it
 * parses to.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "trace/trace_generator.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"
#include "util/strings.hpp"

namespace fastcap {
namespace {

/** %g, or %.17g where %g would not read back as `v`. */
std::string
num(double v)
{
    char buf[32];
    checkedSnprintf(buf, sizeof(buf), "%g", v);
    double back = 0.0;
    if (!parseDouble(buf, back) || back != v)
        checkedSnprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** A schedule's segments, written back in the spec grammar. */
std::string
describe(const BudgetSchedule &b)
{
    std::string out;
    for (const BudgetSegment &s : b.segments()) {
        if (!out.empty())
            out += ';';
        switch (s.kind) {
        case BudgetSegmentKind::Step:
            out += "step@" + num(s.start) + ":" + num(s.level);
            break;
        case BudgetSegmentKind::Ramp:
            out += "ramp@" + num(s.start) + ":" + num(s.from) + "->" +
                num(s.to) + "/" + num(s.duration);
            break;
        case BudgetSegmentKind::Sine:
            out += "sine@" + num(s.start) + ":" + num(s.mean) + "~" +
                num(s.amplitude) + "/" + num(s.period);
            break;
        case BudgetSegmentKind::Trace:
            out += "trace@" + num(s.traceOffset) + ":" + s.tracePath;
            break;
        }
    }
    return out;
}

std::string
describe(const WorkloadSchedule &w)
{
    std::string out;
    for (const WorkloadEvent &ev : w.events()) {
        if (!out.empty())
            out += ';';
        out += num(ev.time) + ":" + std::to_string(ev.core) + ":" + ev.app;
    }
    return out;
}

std::string
describe(const Scenario &sc)
{
    return "name=" + sc.name + "|budget=" + describe(sc.budget) +
        "|workload=" + describe(sc.workload) + "|trace=" + sc.trace;
}

/** Kind, apps, and every field that differs from its default. */
std::string
describe(const TraceGenSpec &g)
{
    const TraceGenSpec d;
    std::string out = g.kind;
    const auto real = [&out](const char *key, double v, double dv) {
        if (v != dv)
            out += std::string(",") + key + "=" + num(v);
    };
    const auto whole = [&out](const char *key, std::uint64_t v,
                              std::uint64_t dv) {
        if (v != dv)
            out += std::string(",") + key + "=" + std::to_string(v);
    };
    real("horizon", g.horizon, d.horizon);
    real("rate", g.rate, d.rate);
    real("mean-duration", g.meanDuration, d.meanDuration);
    whole("max-cores", static_cast<std::uint64_t>(g.maxCores),
          static_cast<std::uint64_t>(d.maxCores));
    whole("seed", g.seed, d.seed);
    whole("events", g.maxEvents, d.maxEvents);
    real("burst-factor", g.burstFactor, d.burstFactor);
    real("mean-burst", g.meanBurst, d.meanBurst);
    real("mean-quiet", g.meanQuiet, d.meanQuiet);
    real("amplitude", g.amplitude, d.amplitude);
    real("period", g.period, d.period);
    real("flash-start", g.flashStart, d.flashStart);
    real("flash-duration", g.flashDuration, d.flashDuration);
    real("flash-factor", g.flashFactor, d.flashFactor);
    real("batch-mean", g.batchMean, d.batchMean);
    out += ",apps=";
    for (std::size_t i = 0; i < g.apps.size(); ++i)
        out += (i == 0 ? "" : "+") + g.apps[i];
    return out;
}

struct Accepted
{
    const char *spec;
    const char *fields; //!< describe() of the parsed object
};

const Accepted kBudgets[] = {
    {"step@0:0.9;step@0.01:0.6",
     "step@0:0.9;step@0.01:0.6"},
    {"step@0:0.9;step@0.05:0.5",
     "step@0:0.9;step@0.05:0.5"},
    {"step@0:0.9;step@0.05:0.6",
     "step@0:0.9;step@0.05:0.6"},
    {"step@0:0.9;step@0.02:0.6",
     "step@0:0.9;step@0.02:0.6"},
    {"step@0:0.8;step@0.05:0.4",
     "step@0:0.8;step@0.05:0.4"},
    {"step@0:0.8;step@0.01:0.3",
     "step@0:0.8;step@0.01:0.3"},
    {"step@0:0.9;step@0.05:0.5;ramp@0.1:0.5->0.8/0.05",
     "step@0:0.9;step@0.05:0.5;ramp@0.1:0.5->0.8/0.05"},
    {"sine@0:0.7~0.1/0.05",
     "sine@0:0.7~0.1/0.05"},
    {"constant",
     ""},
    {"",
     ""},
};

const Accepted kWorkloads[] = {
    {"0.03:0:idle",
     "0.03:0:idle"},
    {"0.08:0:idle",
     "0.08:0:idle"},
    {"0.1:3:milc; 0.05:0:idle; 0.1:1:gcc",
     "0.05:0:idle;0.1:3:milc;0.1:1:gcc"},
    {"0.05:0:idle;0.1:0:milc",
     "0.05:0:idle;0.1:0:milc"},
    {"0.2:1:idle",
     "0.2:1:idle"},
    {"",
     ""},
};

const Accepted kScenarios[] = {
    {"name=step|budget=step@0:0.9;step@0.01:0.6",
     "name=step|budget=step@0:0.9;step@0.01:0.6|workload=|trace="},
    {"name=drop|budget=step@0:0.9;step@0.02:0.6|workload=0.03:0:idle",
     "name=drop|budget=step@0:0.9;step@0.02:0.6|workload=0.03:0:idle|trace="},
    {"name=drop|budget=step@0:0.9;step@0.05:0.6|workload=0.08:0:idle",
     "name=drop|budget=step@0:0.9;step@0.05:0.6|workload=0.08:0:idle|trace="},
    {"name=drop|budget=step@0:0.9;step@0.05:0.5",
     "name=drop|budget=step@0:0.9;step@0.05:0.5|workload=|trace="},
    {"name=spike|trace=gen:flash,rate=100,seed=3",
     "name=spike|budget=|workload=|trace=gen:flash,rate=100,seed=3"},
    {"name=spike|trace=gen:flash,rate=100,flash-start=0.02,seed=3",
     "name=spike|budget=|workload=|trace=gen:flash,rate=100,flash-start=0.02,"
     "seed=3"},
    {"name=tr|trace=tests/traces/mmpp_bursty.trace",
     "name=tr|budget=|workload=|trace=tests/traces/mmpp_bursty.trace"},
    {"name=ptrace|trace=tests/traces/poisson_light.trace",
     "name=ptrace|budget=|workload=|trace=tests/traces/poisson_light.trace"},
    {"budget=step@0:0.9;step@0.05:0.5;ramp@0.1:0.5->0.8/0.05|"
     "workload=0.08:0:idle",
     "name=scenario|budget=step@0:0.9;step@0.05:0.5;ramp@0.1:0.5->0.8/0.05|"
     "workload=0.08:0:idle|trace="},
    {"spike|budget=sine@0:0.7~0.1/0.05",
     "name=spike|budget=sine@0:0.7~0.1/0.05|workload=|trace="},
    {"budget=step@0:0.5",
     "name=scenario|budget=step@0:0.5|workload=|trace="},
};

struct AcceptedGenerator
{
    const char *spec;
    const char *fields;    //!< describe() of the parsed spec
    const char *canonical; //!< its toString(), the provenance text
};

const AcceptedGenerator kGenerators[] = {
    {"flash,rate=600,horizon=0.1,max-cores=32,apps=swim+applu,"
     "flash-start=0.01,flash-duration=0.03,flash-factor=6,seed=42",
     "flash,horizon=0.1,rate=600,max-cores=32,seed=42,flash-start=0.01,"
     "flash-duration=0.03,flash-factor=6,apps=swim+applu",
     "flash,rate=600,horizon=0.1,mean-duration=0.02,max-cores=32,"
     "flash-start=0.01,flash-duration=0.03,flash-factor=6,apps=swim+applu,"
     "seed=42"},
    {"flash,rate=4000,horizon=0.1,max-cores=128,apps=swim+applu,"
     "flash-start=0.002,flash-duration=0.02,flash-factor=5,seed=7",
     "flash,horizon=0.1,rate=4000,max-cores=128,seed=7,flash-start=0.002,"
     "flash-duration=0.02,flash-factor=5,apps=swim+applu",
     "flash,rate=4000,horizon=0.1,mean-duration=0.02,max-cores=128,"
     "flash-start=0.002,flash-duration=0.02,flash-factor=5,apps=swim+applu,"
     "seed=7"},
    {"poisson,rate=120,horizon=0.1,mean-duration=0.02,seed=101",
     "poisson,horizon=0.1,rate=120,seed=101,apps=applu+hmmer+gap+gzip",
     "poisson,rate=120,horizon=0.1,mean-duration=0.02,"
     "apps=applu+hmmer+gap+gzip,seed=101"},
    {"flash,rate=100,seed=3",
     "flash,seed=3,apps=applu+hmmer+gap+gzip",
     "flash,rate=100,horizon=1,mean-duration=0.02,flash-start=0.4,"
     "flash-duration=0.05,flash-factor=20,apps=applu+hmmer+gap+gzip,seed=3"},
    {"flash,rate=100,flash-start=0.02,seed=3",
     "flash,seed=3,flash-start=0.02,apps=applu+hmmer+gap+gzip",
     "flash,rate=100,horizon=1,mean-duration=0.02,flash-start=0.02,"
     "flash-duration=0.05,flash-factor=20,apps=applu+hmmer+gap+gzip,seed=3"},
    {"mmpp,rate=100,burst-factor=10",
     "mmpp,burst-factor=10,apps=applu+hmmer+gap+gzip",
     "mmpp,rate=100,horizon=1,mean-duration=0.02,burst-factor=10,"
     "mean-burst=0.02,mean-quiet=0.1,apps=applu+hmmer+gap+gzip,seed=1"},
    {"batch,rate=40,horizon=0.15,mean-duration=0.02,max-cores=4,batch-mean=3,"
     "apps=applu+hmmer+gap+gzip,seed=107",
     "batch,horizon=0.15,rate=40,max-cores=4,seed=107,"
     "apps=applu+hmmer+gap+gzip",
     "batch,rate=40,horizon=0.15,mean-duration=0.02,max-cores=4,batch-mean=3,"
     "apps=applu+hmmer+gap+gzip,seed=107"},
    {"batch,rate=30,horizon=0.15,mean-duration=0.03,max-cores=8,batch-mean=2,"
     "apps=swim+applu+milc+art,seed=108",
     "batch,horizon=0.15,rate=30,mean-duration=0.03,max-cores=8,seed=108,"
     "batch-mean=2,apps=swim+applu+milc+art",
     "batch,rate=30,horizon=0.15,mean-duration=0.03,max-cores=8,batch-mean=2,"
     "apps=swim+applu+milc+art,seed=108"},
    {"sine,rate=300,horizon=0.2,mean-duration=0.01,amplitude=0.9,period=0.05,"
     "apps=applu+hmmer+gap+gzip,seed=105",
     "sine,horizon=0.2,rate=300,mean-duration=0.01,seed=105,amplitude=0.9,"
     "period=0.05,apps=applu+hmmer+gap+gzip",
     "sine,rate=300,horizon=0.2,mean-duration=0.01,amplitude=0.9,period=0.05,"
     "apps=applu+hmmer+gap+gzip,seed=105"},
    {"flash,rate=80,horizon=0.1,mean-duration=0.01,flash-start=0.04,"
     "flash-duration=0.02,flash-factor=25,apps=applu+hmmer+gap+gzip,seed=106",
     "flash,horizon=0.1,rate=80,mean-duration=0.01,seed=106,flash-start=0.04,"
     "flash-duration=0.02,flash-factor=25,apps=applu+hmmer+gap+gzip",
     "flash,rate=80,horizon=0.1,mean-duration=0.01,flash-start=0.04,"
     "flash-duration=0.02,flash-factor=25,apps=applu+hmmer+gap+gzip,seed=106"},
    {"poisson,rate=60,horizon=0.2,mean-duration=0.05,"
     "apps=gcc+milc+ammp+equake,seed=109",
     "poisson,horizon=0.2,rate=60,mean-duration=0.05,seed=109,"
     "apps=gcc+milc+ammp+equake",
     "poisson,rate=60,horizon=0.2,mean-duration=0.05,"
     "apps=gcc+milc+ammp+equake,seed=109"},
    {"mmpp,rate=150,horizon=0.2,mean-duration=0.01,burst-factor=10,"
     "mean-burst=0.02,mean-quiet=0.08,apps=applu+hmmer+gap+gzip,seed=103",
     "mmpp,horizon=0.2,rate=150,mean-duration=0.01,seed=103,burst-factor=10,"
     "mean-quiet=0.08,apps=applu+hmmer+gap+gzip",
     "mmpp,rate=150,horizon=0.2,mean-duration=0.01,burst-factor=10,"
     "mean-burst=0.02,mean-quiet=0.08,apps=applu+hmmer+gap+gzip,seed=103"},
    {"mmpp,rate=100,horizon=0.3,mean-duration=0.02,burst-factor=6,"
     "mean-burst=0.05,mean-quiet=0.15,apps=applu+hmmer+gap+gzip,seed=104",
     "mmpp,horizon=0.3,seed=104,burst-factor=6,mean-burst=0.05,"
     "mean-quiet=0.15,apps=applu+hmmer+gap+gzip",
     "mmpp,rate=100,horizon=0.3,mean-duration=0.02,burst-factor=6,"
     "mean-burst=0.05,mean-quiet=0.15,apps=applu+hmmer+gap+gzip,seed=104"},
    {"poisson,rate=2000,horizon=0.1,mean-duration=0.005,"
     "apps=applu+hmmer+gap+gzip,seed=102",
     "poisson,horizon=0.1,rate=2000,mean-duration=0.005,seed=102,"
     "apps=applu+hmmer+gap+gzip",
     "poisson,rate=2000,horizon=0.1,mean-duration=0.005,"
     "apps=applu+hmmer+gap+gzip,seed=102"},
    {"poisson,rate=120,horizon=0.1,mean-duration=0.02,"
     "apps=applu+hmmer+gap+gzip,seed=101",
     "poisson,horizon=0.1,rate=120,seed=101,apps=applu+hmmer+gap+gzip",
     "poisson,rate=120,horizon=0.1,mean-duration=0.02,"
     "apps=applu+hmmer+gap+gzip,seed=101"},
    {"mmpp,rate=400,burst-factor=10,horizon=0.1,max-cores=2,seed=21",
     "mmpp,horizon=0.1,rate=400,max-cores=2,seed=21,burst-factor=10,"
     "apps=applu+hmmer+gap+gzip",
     "mmpp,rate=400,horizon=0.1,mean-duration=0.02,max-cores=2,"
     "burst-factor=10,mean-burst=0.02,mean-quiet=0.1,"
     "apps=applu+hmmer+gap+gzip,seed=21"},
    {"poisson,rate=1e8,horizon=1,events=1000000,mean-duration=0.004,"
     "max-cores=2,seed=31",
     "poisson,rate=1e+08,mean-duration=0.004,max-cores=2,seed=31,"
     "events=1000000,apps=applu+hmmer+gap+gzip",
     "poisson,rate=1e+08,horizon=1,mean-duration=0.004,max-cores=2,"
     "apps=applu+hmmer+gap+gzip,events=1000000,seed=31"},
    {"flash,rate=300,horizon=0.2,max-cores=8,apps=swim+applu,"
     "flash-start=0.005,flash-duration=0.02,flash-factor=6,seed=11",
     "flash,horizon=0.2,rate=300,max-cores=8,seed=11,flash-start=0.005,"
     "flash-duration=0.02,flash-factor=6,apps=swim+applu",
     "flash,rate=300,horizon=0.2,mean-duration=0.02,max-cores=8,"
     "flash-start=0.005,flash-duration=0.02,flash-factor=6,apps=swim+applu,"
     "seed=11"},
    {"flash,rate=2000,horizon=0.05,max-cores=64,apps=swim+applu,"
     "flash-start=0.002,flash-duration=0.01,flash-factor=5,seed=7",
     "flash,horizon=0.05,rate=2000,max-cores=64,seed=7,flash-start=0.002,"
     "flash-duration=0.01,flash-factor=5,apps=swim+applu",
     "flash,rate=2000,horizon=0.05,mean-duration=0.02,max-cores=64,"
     "flash-start=0.002,flash-duration=0.01,flash-factor=5,apps=swim+applu,"
     "seed=7"},
    {"poisson,rate=50,horizon=0.1",
     "poisson,horizon=0.1,rate=50,apps=applu+hmmer+gap+gzip",
     "poisson,rate=50,horizon=0.1,mean-duration=0.02,"
     "apps=applu+hmmer+gap+gzip,seed=1"},
};

TEST(SpecTable, BudgetSchedulesParseToTheirFields)
{
    for (const Accepted &a : kBudgets)
        EXPECT_EQ(describe(BudgetSchedule::parse(a.spec)), a.fields)
            << a.spec;
}

TEST(SpecTable, WorkloadSchedulesParseToTheirFields)
{
    for (const Accepted &a : kWorkloads)
        EXPECT_EQ(describe(WorkloadSchedule::parse(a.spec)), a.fields)
            << a.spec;
}

TEST(SpecTable, ScenariosParseToTheirFields)
{
    for (const Accepted &a : kScenarios)
        EXPECT_EQ(describe(Scenario::parse(a.spec)), a.fields) << a.spec;
}

TEST(SpecTable, GeneratorSpecsParseToTheirFields)
{
    for (const AcceptedGenerator &a : kGenerators) {
        const TraceGenSpec g = TraceGenSpec::parse(a.spec);
        EXPECT_EQ(describe(g), a.fields) << a.spec;
        EXPECT_EQ(g.toString(), a.canonical) << a.spec;
    }
}

TEST(SpecTable, PerfbenchSpecsParseToTheirFields)
{
    // Copied from perfbench/src/perfbench.cpp, with its trace seeds.
    EXPECT_EQ(describe(Scenario::parse(
                  "name=step|budget=step@0:0.9;step@0.01:0.6")),
              "name=step|budget=step@0:0.9;step@0.01:0.6|workload=|trace=");
    for (std::uint64_t s = 1; s <= 10; ++s) {
        const std::uint64_t seed = splitmix64(s, 1) % 1000000 + 1;
        const std::string trace =
            "gen:poisson,rate=2500,horizon=1,mean-duration=0.02,"
            "seed=" +
            std::to_string(seed);
        const TraceGenSpec g = TraceGenSpec::parse(trace.substr(4));
        const std::string seeded = "seed=" + std::to_string(seed);
        EXPECT_EQ(describe(g), "poisson,rate=2500," + seeded +
                                   ",apps=applu+hmmer+gap+gzip");
        EXPECT_EQ(g.toString(),
                  "poisson,rate=2500,horizon=1,mean-duration=0.02,"
                  "apps=applu+hmmer+gap+gzip," +
                      seeded);
    }
}

TEST(SpecTable, GoldenGridSpecFilesReadToTheirFields)
{
    const struct
    {
        const char *file;
        const char *fields;
    } golden[] = {
        {"fig3_small.spec",
         "workloads=ILP1,MID1,MEM1,MIX1|policies=FastCap|budgets=0.6|"
         "cores=8|instructions=1e6"},
        {"fig9_small.spec",
         "workloads=ILP1,MID1,MEM1,MIX1|"
         "policies=FastCap,CPU-only,Freq-Par,Eql-Pwr,Uncapped|budgets=0.6|"
         "cores=8|instructions=1e6|paired-seeds=true"},
        {"fig9_16c.spec",
         "workloads=ILP1,MID1,MEM1,MIX1|"
         "policies=FastCap,CPU-only,Freq-Par,Eql-Pwr,Uncapped|budgets=0.6|"
         "cores=16|instructions=3e7|paired-seeds=true"},
        {"trace_replay_small.spec",
         "workloads=MIX1|policies=FastCap|budgets=0.7|cores=16|"
         "instructions=1e12|max-epochs=10"},
    };
    for (const auto &g : golden) {
        std::string fields;
        for (const KeyValue &kv : readKeyValueFile(
                 std::string(FASTCAP_GOLDEN_DIR) + "/" + g.file, "spec")) {
            fields += (fields.empty() ? "" : "|") + kv.key + "=" + kv.value;
            // Every value is a list the sweep splits on ','.
            EXPECT_FALSE(splitFields(kv.value, ',', kv.key.c_str()).empty());
        }
        EXPECT_EQ(fields, g.fields) << g.file;
    }
}

// ---------------------------------------------------------------
// Fuzzing
// ---------------------------------------------------------------

/** One to three random edits of a known-good spec. */
std::string
mutate(Rng &rng, std::string s)
{
    static const char kBytes[] = "0123456789.-+eE,;:@|=~/>#nax \t";
    static const char *const kSeparators[] = {",", ";", ":", "@", "|",
                                              "=", "~", "/", "+", "->"};
    static const char *const kNumbers[] = {
        "nan",   "inf",        "-inf", "1e999", "-1e999",
        "99999999999999999999", "4294967297", "-1", "-0", "0x",
        "1e-320", "0"};
    const auto pick = [&rng](const auto &arr) {
        return arr[rng.below(std::size(arr))];
    };
    for (std::uint64_t edits = 1 + rng.below(3); edits > 0; --edits) {
        const std::size_t at = rng.below(s.size() + 1);
        switch (rng.below(5)) {
        case 0: // flip a byte
            if (!s.empty())
                s[rng.below(s.size())] =
                    kBytes[rng.below(sizeof(kBytes) - 1)];
            break;
        case 1: // insert a separator
            s.insert(at, pick(kSeparators));
            break;
        case 2: // delete a byte
            if (!s.empty())
                s.erase(rng.below(s.size()), 1);
            break;
        case 3: { // replace the number around `at`
            const char *const digits = "0123456789.";
            const std::size_t b = s.find_last_not_of(digits, at);
            const std::size_t begin = b == std::string::npos ? 0 : b + 1;
            const std::size_t end = s.find_first_not_of(digits, begin);
            if (begin < s.size() && begin != end)
                s.replace(begin, end - begin, pick(kNumbers));
            break;
        }
        default: { // repeat the field around `at`
            const char sep = ",;|"[rng.below(3)];
            const std::size_t b = at == 0 ? std::string::npos
                                          : s.rfind(sep, at - 1);
            const std::size_t begin = b == std::string::npos ? 0 : b + 1;
            s += sep + s.substr(begin, s.find(sep, begin) - begin);
            break;
        }
        }
    }
    return s;
}

/**
 * Mutate every seed spec `rounds` times; `check` runs on each object
 * `parse` accepts. Both outcomes must occur, or the fuzz is blind.
 */
template <class Parse, class Check>
void
fuzz(const std::vector<std::string> &seeds, std::uint64_t seed,
     int rounds, Parse parse, Check check)
{
    Rng rng(seed);
    int accepted = 0;
    int rejected = 0;
    for (int r = 0; r < rounds; ++r) {
        for (const std::string &good : seeds) {
            const std::string input = mutate(rng, good);
            SCOPED_TRACE(input);
            // A FatalError from check() is a failure, not a rejection.
            std::optional<decltype(parse(input))> obj;
            try {
                obj.emplace(parse(input));
            } catch (const FatalError &) {
                ++rejected;
                continue;
            }
            ++accepted;
            check(*obj);
        }
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

void
checkBudget(const BudgetSchedule &b)
{
    for (const BudgetSegment &s : b.segments()) {
        for (const double v : {s.start, s.level, s.from, s.to, s.duration,
                               s.mean, s.amplitude, s.period})
            ASSERT_TRUE(std::isfinite(v)) << describe(b);
        EXPECT_GE(s.start, 0.0);
        for (const double t : {s.start, s.start + 1e-3, s.start + 1.0}) {
            const double f = b.fractionAt(t, 0.5);
            EXPECT_TRUE(f > 0.0 && f <= 1.0) << describe(b) << " at " << t;
        }
    }
    // The segments written back read as the same schedule.
    EXPECT_EQ(describe(BudgetSchedule::parse(describe(b))), describe(b));
}

void
checkWorkload(const WorkloadSchedule &w)
{
    for (const WorkloadEvent &ev : w.events()) {
        EXPECT_TRUE(std::isfinite(ev.time) && ev.time >= 0.0);
        EXPECT_GE(ev.core, 0);
        EXPECT_FALSE(ev.app.empty());
    }
    EXPECT_EQ(describe(WorkloadSchedule::parse(describe(w))), describe(w));
}

/** Every field the kind's generator reads is the same. */
void
expectSameGenerator(const TraceGenSpec &a, const TraceGenSpec &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.horizon, b.horizon);
    EXPECT_EQ(a.rate, b.rate);
    EXPECT_EQ(a.apps, b.apps);
    EXPECT_EQ(a.meanDuration, b.meanDuration);
    EXPECT_EQ(a.maxCores, b.maxCores);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.maxEvents, b.maxEvents);
    if (a.kind == "mmpp") {
        EXPECT_EQ(a.burstFactor, b.burstFactor);
        EXPECT_EQ(a.meanBurst, b.meanBurst);
        EXPECT_EQ(a.meanQuiet, b.meanQuiet);
    } else if (a.kind == "sine") {
        EXPECT_EQ(a.amplitude, b.amplitude);
        EXPECT_EQ(a.period, b.period);
    } else if (a.kind == "flash") {
        EXPECT_EQ(a.flashStart, b.flashStart);
        EXPECT_EQ(a.flashDuration, b.flashDuration);
        EXPECT_EQ(a.flashFactor, b.flashFactor);
    } else if (a.kind == "batch") {
        EXPECT_EQ(a.batchMean, b.batchMean);
    }
}

void
checkGenerator(const TraceGenSpec &g)
{
    for (const double v :
         {g.horizon, g.rate, g.meanDuration, g.burstFactor, g.meanBurst,
          g.meanQuiet, g.amplitude, g.period, g.flashStart,
          g.flashDuration, g.flashFactor, g.batchMean})
        ASSERT_TRUE(std::isfinite(v)) << describe(g);
    EXPECT_NO_THROW(g.validate());
    // The canonical string reproduces the spec.
    const TraceGenSpec again = TraceGenSpec::parse(g.toString());
    expectSameGenerator(g, again);
    EXPECT_EQ(again.toString(), g.toString());
}

void
checkScenario(const Scenario &sc)
{
    EXPECT_FALSE(sc.name.empty());
    checkBudget(sc.budget);
    checkWorkload(sc.workload);
    if (sc.trace.rfind("gen:", 0) == 0)
        checkGenerator(TraceGenSpec::parse(sc.trace.substr(4)));
}

template <class Table>
std::vector<std::string>
specsOf(const Table &table)
{
    std::vector<std::string> out;
    for (const auto &a : table)
        out.push_back(a.spec);
    return out;
}

constexpr int kRounds = 500;

TEST(SpecFuzz, BudgetSchedules)
{
    fuzz(specsOf(kBudgets), 11, kRounds, BudgetSchedule::parse,
         checkBudget);
}

TEST(SpecFuzz, WorkloadSchedules)
{
    fuzz(specsOf(kWorkloads), 12, kRounds, WorkloadSchedule::parse,
         checkWorkload);
}

TEST(SpecFuzz, Scenarios)
{
    fuzz(specsOf(kScenarios), 13, kRounds, Scenario::parse,
         checkScenario);
}

TEST(SpecFuzz, GeneratorSpecs)
{
    fuzz(specsOf(kGenerators), 14, kRounds, TraceGenSpec::parse,
         checkGenerator);
}

TEST(SpecFuzz, LexerKeepsItsRules)
{
    static const char kAlphabet[] = "ab1 ,;=#\t\r\n";
    const auto blank = [](char c) {
        return c == ' ' || c == '\t' || c == '\r';
    };
    const auto trimmedField = [&](const std::string &f) {
        return !f.empty() && !blank(f.front()) && !blank(f.back());
    };
    Rng rng(15);
    for (int i = 0; i < 5000; ++i) {
        std::string s;
        for (std::uint64_t n = rng.below(24); n > 0; --n)
            s += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
        SCOPED_TRACE(s);
        const std::string line = s.substr(0, s.find('\n'));

        try {
            const auto fields = splitFields(line, ',', "T");
            if (trimmed(line).empty()) {
                EXPECT_TRUE(fields.empty());
            } else {
                EXPECT_EQ(fields.size(),
                          1 + static_cast<std::size_t>(std::count(
                                  line.begin(), line.end(), ',')));
                for (const std::string &f : fields)
                    EXPECT_TRUE(trimmedField(f));
            }
        } catch (const FatalError &) {
        }

        try {
            const auto cut = cutFields(line, {"=", ";"}, "T", "F");
            ASSERT_EQ(cut.size(), 3u);
            for (const std::string &f : cut)
                EXPECT_TRUE(trimmedField(f));
        } catch (const FatalError &) {
        }

        try {
            const auto kvs =
                splitKeyValues(splitFields(line, ';', "T"), "T", line);
            for (std::size_t k = 0; k < kvs.size(); ++k) {
                EXPECT_TRUE(trimmedField(kvs[k].key));
                EXPECT_TRUE(trimmedField(kvs[k].value));
                for (std::size_t j = 0; j < k; ++j)
                    EXPECT_NE(kvs[j].key, kvs[k].key);
            }
        } catch (const FatalError &) {
        }

        std::istringstream in(s);
        LineReader lines(in, "<fuzz>");
        int last = 0;
        for (std::string got; lines.next(got);) {
            EXPECT_TRUE(trimmedField(got));
            EXPECT_EQ(got.find('#'), std::string::npos);
            EXPECT_GT(lines.lineno(), last);
            last = lines.lineno();
        }
    }
}

} // namespace
} // namespace fastcap
