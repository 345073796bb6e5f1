/**
 * @file
 * fastcap_tracegen — generate synthetic job traces.
 *
 *   fastcap_tracegen --kind poisson --rate 500 --horizon 0.2 \
 *                    --seed 7 --out poisson.trace
 *   fastcap_tracegen --gen "mmpp,rate=100,burst-factor=10" | \
 *                    fastcap_sim --workload idle --trace -
 *
 * Traces are reproducible bit-for-bit from their parameters and
 * seed; every file embeds the spec it was generated from, so a
 * committed trace documents its own regeneration recipe. The same
 * specs can skip the file entirely via `--trace gen:...` on
 * fastcap_sim / fastcap_sweep.
 */

#include <cstdio>
#include <string>

#include "trace/trace_generator.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"
#include "util/spec.hpp"

using namespace fastcap;

namespace {

/** Spec from individual flags; only provided ones override. */
TraceGenSpec
specFromFlags(const ArgParser &args)
{
    TraceGenSpec g;
    g.kind = args.getString("kind");
    g.horizon = args.getDouble("horizon");
    g.rate = args.getDouble("rate");
    g.meanDuration = args.getDouble("mean-duration");
    g.maxCores = args.getInt("max-cores");
    g.seed = args.getUnsigned("seed");
    g.maxEvents = static_cast<std::size_t>(args.getUnsigned("events"));
    g.burstFactor = args.getDouble("burst-factor");
    g.meanBurst = args.getDouble("mean-burst");
    g.meanQuiet = args.getDouble("mean-quiet");
    g.amplitude = args.getDouble("amplitude");
    g.period = args.getDouble("period");
    g.flashStart = args.getDouble("flash-start");
    g.flashDuration = args.getDouble("flash-duration");
    g.flashFactor = args.getDouble("flash-factor");
    g.batchMean = args.getDouble("batch-mean");
    g.apps = splitFields(args.getString("apps"), ',', "--apps", "app");
    return g;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fastcap_tracegen",
                   "synthetic job-trace generator (see docs/TRACES.md)");
    args.addString("gen", "",
                   "full generator spec 'KIND,key=value,...'; "
                   "overrides the individual flags below");
    args.addString("kind", "poisson",
                   "poisson | mmpp | sine | flash | batch");
    args.addDouble("horizon", 1.0, "stop past this arrival time (s)");
    args.addDouble("rate", 100.0, "baseline arrival rate (jobs/s)");
    args.addString("apps", "",
                   "comma-separated app names drawn uniformly "
                   "(default: the MIX1 four)");
    args.addDouble("mean-duration", 0.02,
                   "mean exponential service demand (s)");
    args.addInt("max-cores", 1,
                "per-job core demand drawn from [1, N]");
    args.addUnsigned("seed", 1, "generator seed");
    args.addUnsigned("events", 0, "hard event cap (0 = horizon only)");
    args.addDouble("burst-factor", 8.0, "mmpp: burst-state rate gain");
    args.addDouble("mean-burst", 0.02, "mmpp: mean burst dwell (s)");
    args.addDouble("mean-quiet", 0.1, "mmpp: mean quiet dwell (s)");
    args.addDouble("amplitude", 0.8, "sine: relative swing in [0,1)");
    args.addDouble("period", 0.25, "sine: cycle length (s)");
    args.addDouble("flash-start", 0.4, "flash: window start (s)");
    args.addDouble("flash-duration", 0.05, "flash: window length (s)");
    args.addDouble("flash-factor", 20.0, "flash: rate gain inside");
    args.addDouble("batch-mean", 3.0, "batch: mean jobs per batch");
    args.addString("out", "", "output path (default: stdout)");
    args.addString("log-level", "warn",
                   "log level: silent|warn|inform|debug");
    if (!args.parse(argc, argv))
        return 1;

    try {
        Logger::global().level(
            parseLogLevel(args.getString("log-level")));
        TraceGenSpec spec = args.getString("gen").empty()
            ? specFromFlags(args)
            : TraceGenSpec::parse(args.getString("gen"));
        auto src = makeTraceGenerator(spec);

        std::FILE *out = stdout;
        const std::string path = args.getString("out");
        if (!path.empty()) {
            out = std::fopen(path.c_str(), "w");
            if (out == nullptr)
                fatal("fastcap_tracegen: cannot write '%s'",
                      path.c_str());
        }
        const std::size_t n = writeTrace(
            out, *src, "fastcap_tracegen --gen \"" + spec.toString() +
                "\"");
        if (out != stdout) {
            std::fclose(out);
            std::fprintf(stderr, "fastcap_tracegen: wrote %zu events "
                         "to %s\n", n, path.c_str());
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fastcap_tracegen: %s\n", e.what());
        return 1;
    }
}
