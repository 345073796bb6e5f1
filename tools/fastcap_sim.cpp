/**
 * @file
 * fastcap_sim — run one power-capping experiment from the command
 * line.
 *
 *   fastcap_sim --workload MIX3 --policy FastCap --cores 16 \
 *               --budget 0.6 --instructions 5e7 --epoch-csv
 *
 * Prints a run summary; `--epoch-csv` adds per-epoch CSV rows
 * (power, memory level, budget) for plotting; `--compare` also runs
 * the uncapped baseline and reports normalized per-application CPI.
 * `--trace` replays a job trace (a file, '-' for stdin, or a
 * gen:KIND,... generator spec) onto the cores:
 *
 *   fastcap_tracegen --kind poisson --rate 500 | \
 *       fastcap_sim --workload idle --trace - --max-epochs 50
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "harness/experiment.hpp"
#include "harness/metrics.hpp"
#include "policies/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/spec_table.hpp"

using namespace fastcap;

int
main(int argc, char **argv)
{
    ArgParser args("fastcap_sim",
                   "FastCap power-capping experiment driver");
    args.addString("workload", "MIX3",
                   "Table III workload (ILP1..MIX4), or 'idle' for "
                   "an empty machine (trace replays)");
    args.addString("policy", "FastCap",
                   "FastCap | CPU-only | Uncapped | Freq-Par | "
                   "Eql-Pwr | Eql-Freq | MaxBIPS");
    args.addInt("cores", 16, "core count (multiple of 4)");
    args.addDouble("budget", 0.6, "power budget as fraction of peak");
    args.addDouble("instructions", 50e6,
                   "instructions per application");
    args.addDouble("epoch-ms", 5.0, "epoch length in milliseconds");
    args.addInt("controllers", 1, "memory controllers");
    args.addDouble("skew", 0.0,
                   "hot-controller access fraction in (0, 1] "
                   "(0 = uniform)");
    args.addFlag("ooo", "idealized out-of-order cores");
    args.addInt("shards", 0,
                "simulation-engine shards (0 = auto: monolithic "
                "<= 64 cores, sharded above)");
    args.addInt("shard-threads", 0,
                "sharded-engine worker threads (0 = hardware)");
    args.addString("scenario", "",
                   "inline time-varying scenario, e.g. "
                   "'name=drop|budget=step@0:0.9;step@0.05:0.5'");
    args.addUnsigned("seed", 0, "simulation seed (0 = default)");
    args.addInt("max-epochs", 1000,
                "hard stop in epochs (bounds trace replays whose "
                "apps never complete)");
    args.addString("trace", "",
                   "replay a job trace: a file path, '-' (stdin), or "
                   "gen:KIND,key=value,... for a synthetic stream");
    args.addFlag("epoch-csv", "print per-epoch CSV rows");
    args.addFlag("compare", "also run the uncapped baseline and "
                            "report normalized CPI");
    args.addString("trace-out", "",
                   "write a Chrome trace_event JSON of the run here "
                   "(observe-only: result output is unchanged)");
    args.addString("introspect", "",
                   "record the run in a metrics registry and print "
                   "the metrics under this path after it, e.g. "
                   "/solver or /machine/0/core/0/freq ('/' = "
                   "everything; observe-only: result output is "
                   "unchanged)");
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

        SimConfig scfg = SimConfig::defaultConfig(
            args.getInt("cores"));
        scfg.epochLength = args.getDouble("epoch-ms") * 1e-3;
        // validate() rejects a count below one before it divides;
        // k = 1 leaves the banks and the burst time unchanged.
        scfg.numControllers = args.getInt("controllers");
        scfg.validate();
        const int k = scfg.numControllers;
        scfg.banksPerController = std::max(1, scfg.banksPerController / k);
        scfg.busBurstCycles *= k; // one channel share each
        // 0 keeps uniform interleaving; any other value must pass
        // validate()'s (0, 1] check, so a negative one is an error.
        if (args.getDouble("skew") != 0.0) {
            scfg.interleave = InterleaveMode::Skewed;
            scfg.skewHotFraction = args.getDouble("skew");
        }
        if (args.getFlag("ooo"))
            scfg.execMode = ExecMode::OutOfOrder;
        if (args.getUnsigned("seed") != 0)
            scfg.seed = args.getUnsigned("seed");
        scfg.validate();

        ExperimentConfig ecfg;
        ecfg.budgetFraction = args.getDouble("budget");
        ecfg.targetInstructions = args.getDouble("instructions");
        ecfg.maxEpochs = args.getInt("max-epochs");
        ecfg.shards = args.getInt("shards");
        ecfg.shardThreads = args.getInt("shard-threads");
        if (!args.getString("scenario").empty())
            ecfg.scenario =
                Scenario::parse(args.getString("scenario"));
        // The flag wins over any trace= field inside --scenario.
        if (!args.getString("trace").empty())
            ecfg.scenario.trace = args.getString("trace");
        if (!trace_out.empty())
            ecfg.tracer = &tracer;
        ecfg.registry = registry.get();

        const std::string workload = args.getString("workload");
        const std::string policy = args.getString("policy");

        const ExperimentResult res =
            runWorkload(workload, policy, ecfg, scfg);

        std::printf("workload %s | policy %s | %d cores%s | budget "
                    "%.0f%% of %.1f W\n",
                    workload.c_str(), policy.c_str(), scfg.numCores,
                    scfg.execMode == ExecMode::OutOfOrder ? " (OoO)"
                                                          : "",
                    100.0 * res.budgetFraction, res.peakPower);
        std::printf("epochs %zu | avg power %.1f W (%.3f of peak) | "
                    "max epoch %.1f W | all apps done: %s\n",
                    res.epochs.size(), res.averagePower(),
                    res.averagePowerFraction(), res.maxEpochPower(),
                    res.allCompleted() ? "yes" : "NO");

        if (res.traceDriven)
            std::printf("trace %s | jobs: %zu arrived, %zu placed, "
                        "%zu completed, %zu shed | peak: %zu pending, "
                        "%zu cores busy\n",
                        ecfg.scenario.trace.c_str(),
                        res.trace.arrivals, res.trace.placed,
                        res.trace.completed, res.trace.dropped,
                        res.trace.peakPending, res.trace.peakRunning);

        if (args.getFlag("epoch-csv")) {
            std::printf("\nepoch,core_w,mem_w,total_w,budget_w,"
                        "mem_level,trace_dropped,trace_pending\n");
            for (const EpochRecord &e : res.epochs)
                std::printf("%d,%.2f,%.2f,%.2f,%.2f,%zu,%zu,%zu\n",
                            e.epoch, e.corePower, e.memPower,
                            e.totalPower, e.budget, e.memFreqIdx,
                            e.traceDropped, e.tracePending);
        }

        if (args.getFlag("compare") && policy != "Uncapped") {
            // The dump and the trace describe the capped run only.
            ExperimentConfig base_cfg = ecfg;
            base_cfg.registry = nullptr;
            base_cfg.tracer = nullptr;
            const ExperimentResult base =
                runWorkload(workload, "Uncapped", base_cfg, scfg);
            const PerfComparison cmp = comparePerformance(res, base);
            std::printf("\nnormalized CPI vs uncapped: avg %.3f, "
                        "worst %.3f (worst/avg %.3f)\n",
                        cmp.average, cmp.worst, cmp.unfairness);
            AsciiTable t({"core", "app", "norm CPI"});
            for (std::size_t i = 0; i < res.apps.size(); ++i)
                t.addRow({std::to_string(res.apps[i].core),
                          res.apps[i].app,
                          AsciiTable::num(cmp.perApp[i], 3)});
            t.print();
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
        std::fprintf(stderr, "fastcap_sim: %s\n", e.what());
        return 1;
    }
}
