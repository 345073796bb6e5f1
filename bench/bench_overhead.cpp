/**
 * @file
 * Section IV-B, "Epoch length and algorithm overhead": the FastCap
 * algorithm's per-invocation wall time. The paper measured
 * 33.5 us / 64.9 us / 133.5 us at 16/32/64 cores (0.7% / 1.3% / 2.7%
 * of a 5 ms epoch) on their machine; absolute numbers differ on other
 * hosts, but the ~linear growth in N and the small fraction of the
 * epoch must hold.
 *
 * This binary also carries the many-core scaling study for the
 * solver hot path (64/256/1024 cores, homogeneous and heterogeneous
 * mixes) and its per-core reference baseline, so one run yields both
 * the absolute per-epoch cost and the optimised-vs-reference speedup
 * the perf-smoke CI job tracks. Emit machine-readable results with
 *
 *   bench_overhead --benchmark_out=BENCH_solver_overhead.json \
 *                  --benchmark_out_format=json
 *
 * and compare against the committed baseline with
 * tools/check_overhead.py (speedup ratios are machine-portable;
 * absolute times are informational).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>
#include <vector>

#include "util/logging.hpp"

#include "bench_inputs.hpp"
#include "reference_fit.hpp"
#include "core/fastcap_policy.hpp"
#include "core/model_fitter.hpp"
#include "core/solver.hpp"
#include "telemetry/registry.hpp"

using namespace fastcap;

namespace {

void
BM_EpochDecision(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const PolicyInputs in = benchutil::syntheticInputs(n);
    FastCapPolicy policy;
    for (auto _ : state) {
        PolicyDecision dec = policy.decide(in);
        benchmark::DoNotOptimize(dec);
    }
    // Compare the reported time/iteration against the 5 ms epoch to
    // obtain the paper's overhead percentage (0.7% / 1.3% / 2.7%).
}
BENCHMARK(BM_EpochDecision)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

/**
 * Cold solve (no warm-start carry-over between iterations) on the
 * optimised hot path: a fresh solver per epoch, as a governor
 * restarted every epoch would pay.
 */
void
solveScaling(benchmark::State &state, const PolicyInputs &in,
             bool reference)
{
    SolverOptions opts;
    opts.referenceImpl = reference;
    for (auto _ : state) {
        FastCapSolver solver(in, opts);
        SolveResult res = solver.solve();
        benchmark::DoNotOptimize(res);
    }
}

void
BM_SolveHomogeneous(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    solveScaling(state, benchutil::syntheticHomogeneousInputs(n),
                 false);
}
BENCHMARK(BM_SolveHomogeneous)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void
BM_SolveHomogeneousReference(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    solveScaling(state, benchutil::syntheticHomogeneousInputs(n),
                 true);
}
BENCHMARK(BM_SolveHomogeneousReference)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void
BM_SolveHeterogeneous(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    solveScaling(state, benchutil::syntheticInputs(n), false);
}
BENCHMARK(BM_SolveHeterogeneous)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void
BM_SolveHeterogeneousReference(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    solveScaling(state, benchutil::syntheticInputs(n), true);
}
BENCHMARK(BM_SolveHeterogeneousReference)->Arg(64)->Arg(256)
    ->Arg(1024)->Unit(benchmark::kMicrosecond);

/**
 * Steady-state governor: one policy object deciding epoch after
 * epoch, so the warm start (memory-level fast path) is active from
 * the second iteration on. This is the per-epoch cost an online
 * deployment actually pays.
 */
void
BM_EpochDecisionWarm(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const PolicyInputs in = benchutil::syntheticHomogeneousInputs(n);
    FastCapPolicy policy;
    (void)policy.decide(in); // prime the warm-start hint
    for (auto _ : state) {
        PolicyDecision dec = policy.decide(in);
        benchmark::DoNotOptimize(dec);
    }
}
BENCHMARK(BM_EpochDecisionWarm)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/**
 * Telemetry overhead on the hot path: the same steady-state epoch
 * decision with a metrics registry (counters, gauges, registry
 * lookups) vs a null one (one predicted-false branch). The
 * BM_EpochTelemetryReference/BM_EpochTelemetry ratio is what the
 * perf-smoke job gates at 2%: telemetry must stay observationally
 * free, in cost as well as in results.
 */
void
epochTelemetry(benchmark::State &state, telemetry::Registry *registry)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const PolicyInputs in = benchutil::syntheticInputs(n);
    FastCapPolicy policy(SolverOptions{}, registry);
    (void)policy.decide(in); // prime the warm-start hint
    for (auto _ : state) {
        PolicyDecision dec = policy.decide(in);
        benchmark::DoNotOptimize(dec);
    }
}

void
BM_EpochTelemetry(benchmark::State &state)
{
    telemetry::Registry reg;
    epochTelemetry(state, &reg);
}
BENCHMARK(BM_EpochTelemetry)->Arg(64)->Unit(benchmark::kMicrosecond);

/** Registry off: the cost an un-instrumented epoch pays. */
void
BM_EpochTelemetryReference(benchmark::State &state)
{
    epochTelemetry(state, nullptr);
}
BENCHMARK(BM_EpochTelemetryReference)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void
BM_ModelRefit(benchmark::State &state)
{
    // The per-epoch Eq. 2/3 refit cost for N cores on the
    // incremental (rank-1 moment update) tracker.
    const auto n = static_cast<std::size_t>(state.range(0));
    ModelFitter fitter(n);
    double x = 1.0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            fitter.observeCore(i, x, 3.0 * x * x * x + 0.01);
        fitter.observeMemory(x, 12.0 * x);
        benchmark::DoNotOptimize(fitter.core(n - 1));
        x = (x == 1.0) ? 0.775 : (x == 0.775 ? 0.55 : 1.0);
    }
}
BENCHMARK(BM_ModelRefit)->Arg(16)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/**
 * The pre-incremental refit as the comparison baseline: a
 * from-scratch log-log fitPowerLaw over the 3-deep history on every
 * observation — what each epoch paid per core before the tracker
 * kept running moments. The BM_ModelRefit/BM_ModelRefitReference
 * ratio is the non-solver epoch-overhead drop the perf-smoke job
 * tracks.
 */
void
BM_ModelRefitReference(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    struct BatchTracker
    {
        std::deque<std::pair<double, double>> history;
        FittedModel model;

        void
        observe(double ratio, double power)
        {
            for (auto &s : history) {
                if (std::abs(s.first - ratio) <= 1e-6) {
                    s.second = 0.5 * s.second + 0.5 * power;
                    refit();
                    return;
                }
            }
            history.emplace_back(ratio, power);
            while (history.size() > 3)
                history.pop_front();
            refit();
        }

        void
        refit()
        {
            if (history.size() < 2) {
                model.scale = history.front().second /
                    std::pow(history.front().first, 2.5);
                return;
            }
            std::vector<double> xs, ys;
            for (const auto &s : history) {
                xs.push_back(s.first);
                ys.push_back(s.second);
            }
            const PowerLawFit fit = fitPowerLaw(xs, ys);
            model.scale = fit.scale;
            model.exponent = std::clamp(fit.exponent, 0.3, 4.0);
        }
    };

    std::vector<BatchTracker> cores(n);
    BatchTracker mem;
    double x = 1.0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            cores[i].observe(x, 3.0 * x * x * x + 0.01);
        mem.observe(x, 12.0 * x);
        benchmark::DoNotOptimize(cores[n - 1].model);
        x = (x == 1.0) ? 0.775 : (x == 0.775 ? 0.55 : 1.0);
    }
}
BENCHMARK(BM_ModelRefitReference)->Arg(16)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    // Floor-power warnings fire per solve in tight synthetic cases;
    // they are expected here and would swamp the benchmark output.
    fastcap::Logger::global().level(fastcap::LogLevel::Silent);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
