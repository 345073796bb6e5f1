/**
 * @file
 * Many-core simulation-engine throughput: the per-epoch cost of
 * capped experiments at 256 and 1024 cores on the sharded engine,
 * plus the raw window-simulation pair the perf-smoke CI job gates on
 * (BM_SimWindow vs BM_SimWindowReference — the monolithic engine on
 * the same configuration, so the speedup ratio is machine-portable
 * just like the solver's optimised-vs-reference pairs).
 *
 * Every benchmark reports items_per_second as *epochs (or windows)
 * per second*; tools/check_overhead.py tracks those throughputs
 * against bench/manycore_baseline.json:
 *
 *   bench_manycore --benchmark_out=BENCH_manycore.json \
 *                  --benchmark_out_format=json
 *   check_overhead.py BENCH_manycore.json bench/manycore_baseline.json
 *
 * Shard workers are pinned to 1 throughout: single-thread numbers are
 * comparable across hosts, while multi-worker speedups depend on the
 * runner's core count (the determinism suite, not this bench, owns
 * the thread-count story).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "harness/experiment.hpp"
#include "policies/registry.hpp"
#include "sim/engine/backend.hpp"
#include "sim/engine/sharded_system.hpp"
#include "sim/system.hpp"
#include "workload/spec_table.hpp"

using namespace fastcap;

namespace {

SimConfig
benchConfig(int cores)
{
    SimConfig cfg = SimConfig::defaultConfig(cores);
    cfg.seed = 0xbe7c4a5eULL;
    return cfg;
}

/**
 * Raw DES throughput: one profiling window on a MIX workload at max
 * frequencies. The sharded engine runs serially (1 worker) so the
 * Reference pair below yields a host-portable ratio.
 */
void
BM_SimWindow(benchmark::State &state)
{
    const int cores = static_cast<int>(state.range(0));
    const SimConfig cfg = benchConfig(cores);
    ShardedSystem sys(cfg, workloads::mix("MIX1", cores),
                      (cores + 63) / 64, 1);
    for (auto _ : state) {
        WindowStats w = sys.runWindow(cfg.profileWindow);
        benchmark::DoNotOptimize(w);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimWindow)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/** The monolithic engine on the same configuration (the baseline). */
void
BM_SimWindowReference(benchmark::State &state)
{
    const int cores = static_cast<int>(state.range(0));
    const SimConfig cfg = benchConfig(cores);
    ManyCoreSystem sys(cfg, workloads::mix("MIX1", cores));
    for (auto _ : state) {
        WindowStats w = sys.runWindow(cfg.profileWindow);
        benchmark::DoNotOptimize(w);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimWindowReference)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/**
 * Steady-state capped-experiment epochs: profile window, policy
 * decision, execution window, extrapolation — the unit the 1024-core
 * tier's wall time is made of. items_per_second = epochs/sec.
 */
void
cappedEpochs(benchmark::State &state, const std::string &policy_name,
             int cores)
{
    const SimConfig cfg = benchConfig(cores);
    ExperimentConfig ecfg;
    ecfg.budgetFraction = 0.6;
    ecfg.targetInstructions = 1e15; // never completes: pure epochs
    ecfg.maxEpochs = 1 << 30;
    ecfg.shards = 0;       // auto: one shard per 64 cores
    ecfg.shardThreads = 1; // serial, host-portable
    ecfg.measurePeak = false; // nameplate: keeps setup out of iters

    auto policy = makePolicy(policy_name);
    ExperimentRunner runner(cfg, workloads::mix("MIX2", cores),
                            *policy, ecfg);
    runner.step(); // warm the fitter and the policy's warm start
    for (auto _ : state) {
        EpochRecord rec = runner.step();
        benchmark::DoNotOptimize(rec);
    }
    state.SetItemsProcessed(state.iterations());
}

#define FASTCAP_EPOCH_BENCH(policy, name)                              \
    void BM_CappedEpoch_##name(benchmark::State &state)                \
    {                                                                  \
        cappedEpochs(state, policy,                                    \
                     static_cast<int>(state.range(0)));                \
    }                                                                  \
    BENCHMARK(BM_CappedEpoch_##name)                                   \
        ->Unit(benchmark::kMillisecond)

// Every many-core-capable policy at 256 cores; the two ends of the
// cost spectrum (FastCap and the no-op Uncapped baseline) at 1024 as
// well. MaxBIPS is absent by design: it refuses systems beyond 8
// cores (the 10^N combination wall it exists to illustrate).
FASTCAP_EPOCH_BENCH("FastCap", FastCap)->Arg(256)->Arg(1024);
FASTCAP_EPOCH_BENCH("Uncapped", Uncapped)->Arg(256)->Arg(1024);
FASTCAP_EPOCH_BENCH("CPU-only", CpuOnly)->Arg(256);
FASTCAP_EPOCH_BENCH("Freq-Par", FreqPar)->Arg(256);
FASTCAP_EPOCH_BENCH("Eql-Pwr", EqlPwr)->Arg(256);
FASTCAP_EPOCH_BENCH("Eql-Freq", EqlFreq)->Arg(256);

} // namespace

BENCHMARK_MAIN();
