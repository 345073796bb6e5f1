/**
 * @file
 * fastcap_sweep — run a grid of power-capping experiments in
 * parallel.
 *
 *   fastcap_sweep --workloads MIX1,MIX3 --policies FastCap,Eql-Pwr \
 *                 --budgets 0.5,0.6,0.7 --cores 16 --threads 8 \
 *                 --csv sweep.csv
 *
 * The grid is the cross-product of every list-valued flag (plus
 * --replicates as a seed dimension). Results are deterministic for a
 * given grid and --seed: each run's simulation seed is derived from
 * (seed, run index) with SplitMix64, so the emitted CSV/JSON is
 * byte-identical regardless of --threads.
 *
 * A grid can also be loaded from a small spec file (--spec) holding
 * `key = value` lines with the same keys as the flags, e.g.:
 *
 *   workloads = ILP1,MEM2
 *   policies  = FastCap,Uncapped
 *   budgets   = 0.6
 *   cores     = 16,32
 *
 * Explicit flags override spec-file values.
 *
 * Time-varying scenarios (budget schedules and job churn) form an
 * optional grid axis:
 *
 *   --scenario "name=drop|budget=step@0:0.9;step@0.05:0.5"
 *   --scenario-file scenarios.txt   # `name = spec` lines
 *
 * With a scenario axis the CSV/JSON rows gain a `scenario` column;
 * without one the output is byte-identical to scenario-less builds.
 */

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "policies/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"
#include "util/spec.hpp"
#include "util/strings.hpp"
#include "workload/spec_table.hpp"

using namespace fastcap;

namespace {

/** Each list item through the strict numeric parser. */
template <class T>
std::vector<T>
parseList(const std::string &csv, const char *what)
{
    std::vector<T> out;
    for (const std::string &s : splitFields(csv, ',', what))
        out.push_back(parseOrFatal<T>(s, what, "value", csv));
    return out;
}

/** Single numeric value; empty input is a clean user error. */
template <class T>
T
parseOne(const std::string &s, const char *what)
{
    const std::vector<T> v = parseList<T>(s, what);
    if (v.size() != 1)
        fatal("expected one %s value (got '%s')", what, s.c_str());
    return v.front();
}

/** "true"/"false"/"1"/"0" for spec-file booleans. */
bool
parseBool(const std::string &s, const char *what)
{
    if (s == "true" || s == "1")
        return true;
    if (s == "false" || s == "0")
        return false;
    fatal("bad %s value '%s' (expected true/false)", what, s.c_str());
}

/**
 * The `key = value` lines of a grid spec file ('#' comments), each
 * key one of the flag names and set at most once.
 */
std::map<std::string, std::string>
readSpecFile(const std::string &path)
{
    static const std::set<std::string> known = {
        "workloads", "classes", "policies", "budgets", "cores",
        "replicates", "instructions", "max-epochs", "seed",
        "paired-seeds", "scenario", "scenario-file", "reference-solver",
        "exhaustive-mem-search", "shards", "shard-threads"};
    std::map<std::string, std::string> spec;
    for (const KeyValue &kv : readKeyValueFile(path, "spec file")) {
        if (known.count(kv.key) == 0)
            fatal("%s:%d: unknown spec key '%s'", path.c_str(), kv.line,
                  kv.key.c_str());
        spec[kv.key] = kv.value;
    }
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fastcap_sweep",
                   "parallel grid sweep over capping experiments");
    args.addString("workloads", "",
                   "comma-separated Table III workloads "
                   "(default: all 16)");
    args.addString("classes", "",
                   "workload classes (ILP,MID,MEM,MIX); expands to "
                   "their workloads");
    args.addString("policies", "FastCap", "comma-separated policies");
    args.addString("budgets", "0.6",
                   "comma-separated budget fractions of peak");
    args.addString("cores", "16", "comma-separated core counts");
    args.addString("replicates", "1",
                   "runs per grid point (fresh derived seed each)");
    args.addString("instructions", "30e6",
                   "instructions per application");
    args.addString("max-epochs", "2000", "epoch cap per run");
    args.addString("seed", "0",
                   "base seed for per-run seed derivation "
                   "(0 = default)");
    args.addString("spec", "",
                   "grid spec file with 'key = value' lines "
                   "(flags override)");
    args.addString("scenario", "",
                   "inline time-varying scenario, e.g. "
                   "'name=drop|budget=step@0:0.9;step@0.05:0.5'");
    args.addString("scenario-file", "",
                   "scenario axis file with 'name = spec' lines");
    args.addFlag("paired-seeds",
                 "runs differing only in policy/budget share a seed "
                 "(for normalized comparisons)");
    args.addFlag("reference-solver",
                 "run the per-core reference solver instead of the "
                 "equivalence-class hot path (validation; results "
                 "are bit-identical either way)");
    args.addFlag("exhaustive-mem-search",
                 "scan every memory level instead of Algorithm 1's "
                 "binary search (validation)");
    args.addString("shards", "0",
                   "simulation-engine shards per run (0 = auto: "
                   "monolithic <= 64 cores, sharded above; output is "
                   "byte-identical across all values >= 1)");
    args.addString("shard-threads", "1",
                   "sharded-engine workers per run (0 = hardware; "
                   "default 1 to avoid nesting inside --threads)");
    args.addInt("threads", 0,
                "worker threads, at most one per run (0 = hardware)");
    args.addString("csv", "", "write run CSV to this file "
                              "(default: stdout)");
    args.addString("json", "", "also write run JSON to this file");
    args.addString("log-level", "inform",
                   "log level: silent|warn|inform|debug");
    if (!args.parse(argc, argv))
        return 1;

    try {
        // The sweep's one-line run summary has always been printed
        // unconditionally; defaulting to inform keeps it visible now
        // that it routes through the logger.
        Logger::global().level(
            parseLogLevel(args.getString("log-level")));
        std::map<std::string, std::string> spec;
        if (!args.getString("spec").empty())
            spec = readSpecFile(args.getString("spec"));
        // Flag wins over spec file; spec wins over the default.
        auto value = [&](const char *name) -> std::string {
            if (!args.provided(name) && spec.count(name))
                return spec.at(name);
            return args.getString(name);
        };

        SweepGrid grid;
        grid.configs =
            SweepGrid::configsForCores(parseList<int>(value("cores"),
                                                      "cores"));
        // Merge classes and explicit workloads, keeping the first
        // occurrence of each name (a workload may appear in both).
        auto addWorkload = [&grid](const std::string &wl) {
            for (const std::string &have : grid.workloads)
                if (have == wl)
                    return;
            grid.workloads.push_back(wl);
        };
        for (const std::string &cls :
             splitFields(value("classes"), ',', "classes"))
            for (const std::string &wl :
                 workloads::workloadsOfClass(cls))
                addWorkload(wl);
        for (const std::string &wl :
             splitFields(value("workloads"), ',', "workloads"))
            addWorkload(wl);
        if (grid.workloads.empty())
            grid.workloads = workloads::workloadNames();
        grid.policies = splitFields(value("policies"), ',', "policies");
        grid.budgetFractions = parseList<double>(value("budgets"),
                                                 "budgets");
        grid.replicates = parseOne<int>(value("replicates"), "replicates");
        grid.targetInstructions =
            parseOne<double>(value("instructions"), "instructions");
        grid.maxEpochs = parseOne<int>(value("max-epochs"), "max-epochs");
        // Full 64-bit seeds, decimal or 0x-hex; a negative one is
        // rejected rather than wrapped.
        const auto seed = parseOne<std::uint64_t>(value("seed"), "seed");
        if (seed != 0)
            grid.baseSeed = seed;
        // The flag form is boolean-valued, the spec form true/false.
        const auto boolOption = [&](const char *name) {
            return args.getFlag(name) ||
                   (spec.count(name) &&
                    parseBool(spec.at(name), name));
        };
        grid.pairSeedsAcrossPolicies = boolOption("paired-seeds");
        grid.solver.referenceImpl = boolOption("reference-solver");
        grid.solver.exhaustiveMemSearch =
            boolOption("exhaustive-mem-search");
        grid.shards = parseOne<int>(value("shards"), "shards");
        grid.shardThreads =
            parseOne<int>(value("shard-threads"), "shard-threads");

        // Scenario axis: a file of named scenarios, or one inline
        // spec. Omitting both keeps the implicit constant scenario
        // (and the historical CSV format). The two keys name one
        // axis, so flags override spec-file values across *both*: an
        // explicit --scenario replaces a spec 'scenario-file' line
        // and vice versa; they conflict only at the same level.
        std::string scenario_file;
        std::string scenario_inline;
        if (args.provided("scenario") ||
            args.provided("scenario-file")) {
            scenario_inline = args.getString("scenario");
            scenario_file = args.getString("scenario-file");
        } else {
            if (spec.count("scenario"))
                scenario_inline = spec.at("scenario");
            if (spec.count("scenario-file"))
                scenario_file = spec.at("scenario-file");
        }
        if (!scenario_file.empty() && !scenario_inline.empty())
            fatal("scenario and scenario-file are exclusive");
        if (!scenario_file.empty())
            grid.scenarios = Scenario::loadFile(scenario_file);
        else if (!scenario_inline.empty())
            grid.scenarios = {Scenario::parse(scenario_inline)};

        SweepRunner runner(grid, args.getInt("threads"));
        const SweepResult result = runner.run();

        inform("fastcap_sweep: %zu runs on %d threads in %.6g s "
               "(%.6g runs/s)",
               result.runs.size(), result.threads, result.wallSeconds,
               result.wallSeconds > 0.0
                   ? static_cast<double>(result.runs.size()) /
                         result.wallSeconds
                   : 0.0);

        if (args.getString("csv").empty()) {
            result.writeCsv(stdout);
        } else {
            std::FILE *out =
                std::fopen(args.getString("csv").c_str(), "w");
            if (!out)
                fatal("cannot write '%s'",
                      args.getString("csv").c_str());
            result.writeCsv(out);
            std::fclose(out);
        }
        if (!args.getString("json").empty()) {
            std::FILE *out =
                std::fopen(args.getString("json").c_str(), "w");
            if (!out)
                fatal("cannot write '%s'",
                      args.getString("json").c_str());
            result.writeJson(out);
            std::fclose(out);
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fastcap_sweep: %s\n", e.what());
        return 1;
    }
}
