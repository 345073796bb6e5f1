#!/usr/bin/env python3
"""Guard the solver and simulator hot paths against perf regressions.

Compares a fresh Google-Benchmark JSON dump (``bench_overhead`` or
``bench_manycore``) against its committed baseline
(``bench/overhead_baseline.json`` / ``bench/manycore_baseline.json``):

1. **Speedup ratios** (machine-portable, the primary gate): for every
   ``BM_<name>Reference`` / ``BM_<name>`` pair present in both files
   — the solver's optimised-vs-reference solves, the simulator's
   sharded-vs-monolithic windows, the fitter's incremental-vs-batch
   refits — the speedup must not fall below ``1/allowed_regression``
   of the baseline speedup. A faster or slower host scales both
   sides, so this catches real hot-path regressions without flaking
   on runner hardware.
2. **Absolute time** (informational unless wildly off): every
   non-reference benchmark must stay under ``absolute_slack`` x
   ``regression`` x the baseline absolute time, a loose bound that
   still catches pathological regressions (e.g. an accidental O(N^2)
   path) on comparable hardware.
3. **Throughput** (simulator tier): benchmarks reporting
   ``items_per_second`` — epochs/sec for the capped-experiment
   benches, windows/sec for the raw DES benches — are printed and
   gated with the same loose absolute bound, so the 1024-core tier's
   simulation throughput is tracked release over release.

A baseline recorded with ``--benchmark_repetitions`` is read through
its median aggregates, so one noisy repetition cannot set the bar.

Usage:
    check_overhead.py CURRENT.json BASELINE.json [--regression 2.0]
                      [--absolute-slack 10.0]

Exits non-zero on regression; prints a per-benchmark table either way.
"""

import argparse
import json
import sys


def load_runs(path):
    """Map benchmark name -> its gbench entry.

    A repeated run (``--benchmark_repetitions``) is represented by its
    median aggregate; a single run by its one iteration entry.
    """
    with open(path) as f:
        data = json.load(f)
    runs, medians = {}, {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") == "iteration":
            runs[bench["name"]] = bench
        elif bench.get("aggregate_name") == "median":
            medians[bench["run_name"]] = bench
    runs.update(medians)
    return runs


def load_times(path):
    """Map benchmark name -> real_time in ns."""
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return {
        name: bench["real_time"] * unit_ns[bench.get("time_unit", "ns")]
        for name, bench in load_runs(path).items()
    }


def load_throughputs(path):
    """Map benchmark name -> items_per_second, where reported."""
    out = {}
    for name, bench in load_runs(path).items():
        ips = bench.get("items_per_second")
        if ips is not None and ips > 0:
            out[name] = ips
    return out


def speedups(times):
    """Map 'Homogeneous/256'-style keys -> reference/optimised ratio."""
    out = {}
    for name, t in times.items():
        if "Reference" not in name:
            continue
        base = name.replace("Reference", "")
        if base in times and times[base] > 0:
            key = base.replace("BM_Solve", "")
            out[key] = t / times[base]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument(
        "--regression",
        type=float,
        default=2.0,
        help="fail if speedup drops below baseline/REGRESSION "
        "or absolute time grows past baseline*REGRESSION "
        "(default 2.0, the perf-smoke gate)",
    )
    ap.add_argument(
        "--absolute-slack",
        type=float,
        default=10.0,
        help="extra multiplier on the absolute-time bound to absorb "
        "hardware differences between runners (default 10.0)",
    )
    args = ap.parse_args()

    cur = load_times(args.current)
    base = load_times(args.baseline)
    cur_tput = load_throughputs(args.current)
    base_tput = load_throughputs(args.baseline)
    cur_speed = speedups(cur)
    base_speed = speedups(base)

    failures = []
    print(f"{'benchmark':<28} {'baseline':>10} {'current':>10} verdict")
    for key in sorted(base_speed):
        if key not in cur_speed:
            failures.append(f"missing benchmark pair for {key}")
            continue
        floor = base_speed[key] / args.regression
        ok = cur_speed[key] >= floor
        print(
            f"speedup {key:<20} {base_speed[key]:>9.1f}x "
            f"{cur_speed[key]:>9.1f}x "
            f"{'ok' if ok else f'REGRESSED (floor {floor:.1f}x)'}"
        )
        if not ok:
            failures.append(
                f"{key}: speedup {cur_speed[key]:.1f}x below "
                f"{floor:.1f}x (baseline {base_speed[key]:.1f}x)"
            )

    for name in sorted(base):
        if "Reference" in name or name not in cur:
            continue
        bound = base[name] * args.regression * args.absolute_slack
        ok = cur[name] <= bound
        print(
            f"time    {name:<20} {base[name] / 1e3:>9.1f}u "
            f"{cur[name] / 1e3:>9.1f}u "
            f"{'ok' if ok else f'REGRESSED (bound {bound / 1e3:.1f}u)'}"
        )
        if not ok:
            failures.append(
                f"{name}: {cur[name] / 1e3:.1f}us exceeds "
                f"{bound / 1e3:.1f}us"
            )

    for name in sorted(base_tput):
        if "Reference" in name:
            continue
        if name not in cur_tput:
            # A benchmark the baseline tracks but the current run
            # lacks is a gate hole (filter typo, rename), not a pass:
            # the committed baselines contain exactly what CI runs.
            failures.append(f"missing throughput benchmark {name}")
            continue
        # Throughput (epochs/sec, windows/sec): loose floor mirroring
        # the absolute-time bound — absolute rates are host-dependent,
        # so only collapses fail; the printed value is the tracked
        # metric.
        floor = base_tput[name] / (args.regression * args.absolute_slack)
        ok = cur_tput[name] >= floor
        print(
            f"tput    {name:<20} {base_tput[name]:>8.2f}/s "
            f"{cur_tput[name]:>8.2f}/s "
            f"{'ok' if ok else f'REGRESSED (floor {floor:.2f}/s)'}"
        )
        if not ok:
            failures.append(
                f"{name}: {cur_tput[name]:.2f}/s below "
                f"{floor:.2f}/s (baseline {base_tput[name]:.2f}/s)"
            )

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nOK: hot paths within perf envelope")
    return 0


if __name__ == "__main__":
    sys.exit(main())
