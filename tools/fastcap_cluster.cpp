/**
 * @file
 * fastcap_cluster — run a rack-scale hierarchical capping experiment
 * from the command line.
 *
 *   fastcap_cluster --machines 8 --cores 64 --budget 0.5 \
 *       --trace "gen:flash,rate=200,flash-start=0.02" --max-epochs 40
 *
 * A Cluster instantiates M identical machines (each a full FastCap
 * capping stack), re-divides the rack budget across them every epoch
 * from previous-epoch demand, and dispatches a cluster-wide job
 * trace onto the least-loaded machine. `--fail` kills machines
 * mid-run; `--csv` emits the per-epoch rack time series, which is
 * byte-identical for every `--machine-threads` value (the CI cmp
 * gate runs 1 vs N).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "scenario/budget_schedule.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"
#include "util/spec.hpp"
#include "util/strings.hpp"

using namespace fastcap;

namespace {

/**
 * Parse a failure schedule: `;`-separated `MACHINE@FAIL[:RESTORE]`
 * entries, e.g. "2@5:12;7@9" (machine 2 dies at epoch 5 and returns
 * at 12; machine 7 dies at 9 for good).
 */
std::vector<MachineFailure>
parseFailures(const std::string &spec)
{
    const char *form = "MACHINE@FAIL[:RESTORE]";
    std::vector<MachineFailure> out;
    for (const std::string &entry :
         splitFields(spec, ';', "--fail", "entry")) {
        const bool restores = entry.find(':') != std::string::npos;
        const auto f = restores
            ? cutFields(entry, {"@", ":"}, "--fail", form)
            : cutFields(entry, {"@"}, "--fail", form);
        const auto num = [&](std::size_t i, const char *what) {
            return parseOrFatal<int>(f[i], "--fail", what, spec);
        };
        const MachineFailure m{num(0, "machine"), num(1, "failure epoch"),
                               restores ? num(2, "restore epoch") : -1};
        // -1 is MachineFailure's "never" sentinel, not an epoch.
        if (restores && m.restoreEpoch < 0)
            fatal("--fail: negative restore epoch in '%s'",
                  entry.c_str());
        out.push_back(m);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fastcap_cluster",
                   "rack-scale hierarchical power capping");
    args.addInt("machines", 4, "machines in the rack");
    args.addInt("cores", 16, "cores per machine (multiple of 4)");
    args.addString("workload", "idle",
                   "initial per-core mix on every machine");
    args.addString("policy", "FastCap",
                   "per-machine capping policy (see fastcap_sim)");
    args.addDouble("budget", 0.6,
                   "rack budget as fraction of installed peak");
    args.addString("rack-schedule", "",
                   "time-varying rack budget, BudgetSchedule syntax "
                   "(e.g. 'step@0:0.8;step@0.05:0.4')");
    args.addString("trace", "",
                   "cluster-wide job trace: file, '-' (stdin) or "
                   "gen:KIND,key=value,...");
    args.addInt("max-epochs", 20, "rack epochs to simulate");
    args.addInt("machine-threads", 1,
                "threads machine epochs fan out over, at most one per "
                "machine (0 = hardware); output is byte-identical for "
                "every value");
    args.addInt("shards", 0,
                "per-machine engine shards (0 = auto)");
    args.addInt("shard-threads", 1,
                "per-machine engine threads (1 avoids nesting)");
    args.addDouble("floor", 0.05,
                   "arbiter floor: guaranteed peak share per machine");
    args.addString("fail", "",
                   "failure schedule: MACHINE@FAIL[:RESTORE];...");
    args.addUnsigned("seed", 0, "base seed (0 = default)");
    args.addString("csv", "",
                   "write the per-epoch rack CSV here ('-' = stdout)");
    args.addString("trace-out", "",
                   "write a Chrome trace_event JSON of the rack run "
                   "here (observe-only: result output is unchanged)");
    args.addString("introspect", "",
                   "record the run in a metrics registry and print "
                   "the metrics under this path after it, e.g. "
                   "/cluster/arbiter ('/' = everything; observe-only: "
                   "result output is unchanged)");
    args.addString("log-level", "warn",
                   "log level: silent|warn|inform|debug");
    if (!args.parse(argc, argv))
        return 1;

    try {
        Logger::global().level(
            parseLogLevel(args.getString("log-level")));
        const std::string trace_out = args.getString("trace-out");
        const std::string introspect = args.getString("introspect");
        telemetry::Tracer tracer;
        std::unique_ptr<telemetry::Registry> registry;
        if (!introspect.empty())
            registry = std::make_unique<telemetry::Registry>();

        ClusterConfig cfg;
        cfg.machines = args.getInt("machines");
        cfg.machine = SimConfig::defaultConfig(args.getInt("cores"));
        cfg.workload = args.getString("workload");
        cfg.policy = args.getString("policy");
        cfg.rackBudgetFraction = args.getDouble("budget");
        if (!args.getString("rack-schedule").empty())
            cfg.rackSchedule =
                BudgetSchedule::parse(args.getString("rack-schedule"));
        cfg.trace = args.getString("trace");
        cfg.maxEpochs = args.getInt("max-epochs");
        cfg.machineThreads = args.getInt("machine-threads");
        cfg.shards = args.getInt("shards");
        cfg.shardThreads = args.getInt("shard-threads");
        cfg.floorFraction = args.getDouble("floor");
        cfg.failures = parseFailures(args.getString("fail"));
        if (args.getUnsigned("seed") != 0)
            cfg.seed = args.getUnsigned("seed");
        if (!trace_out.empty())
            cfg.tracer = &tracer;
        cfg.registry = registry.get();

        Cluster cluster(cfg);
        const ClusterResult res = cluster.run();

        const ClusterEpochRecord &last = res.epochs.back();
        std::printf("rack: %d machines x %d cores | budget %.0f%% of "
                    "%.1f W installed\n",
                    cfg.machines, cfg.machine.numCores,
                    100.0 * cfg.rackBudgetFraction, res.installedPeak);
        std::printf("epochs %zu | final: %.1f W of %.1f W usable, "
                    "%d machines alive, %d cores busy\n",
                    res.epochs.size(), last.totalPower,
                    last.usableBudget, last.aliveMachines,
                    last.busyCores);
        std::printf("jobs: %zu dispatched, %zu completed, %zu shed, "
                    "%zu lost to failures\n",
                    res.dispatched, res.completed, res.dropped,
                    res.lost);

        const std::string csv = args.getString("csv");
        if (!csv.empty()) {
            if (csv == "-") {
                std::printf("\n");
                res.writeCsv(stdout);
            } else {
                std::FILE *f = std::fopen(csv.c_str(), "w");
                if (!f)
                    fatal("cannot open '%s' for writing", csv.c_str());
                res.writeCsv(f);
                std::fclose(f);
                inform("wrote %s", csv.c_str());
            }
        }

        if (!trace_out.empty())
            tracer.writeJson(trace_out);
        if (registry)
            for (const auto &kv :
                 registry->query(introspect == "/" ? "" : introspect))
                std::printf("%s %s\n", kv.first.c_str(),
                            kv.second.c_str());
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fastcap_cluster: %s\n", e.what());
        return 1;
    }
}
