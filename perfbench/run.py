#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload capped1024 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the
library sources one directory up) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs the workload in a fresh
process, so peak RSS is the workload's own. The single-threaded
workloads are pinned to one CPU; sweep16 gets every CPU this process
may use. The last line of standard output is the result JSON:
{"correct", "attempted", "failed", "metrics"}.

Each run's digest of simulated records is kept per (binary, workload,
seed) in the build directory. A run whose digest differs from an
earlier run of the same seed on the same binary is marked failed.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Workload -> pinned to one CPU (the single-threaded ones).
WORKLOADS = {
    "capped1024": True,
    "governor1024": True,
    "rack64x1024": True,
    "sweep16": False,
}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(bdir):
    """Configure once, then (re)build the program; True on success."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.SubprocessError, OSError) as e:
            log(f"build failed: {e}")
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_digest(bdir, binary, workload, seed, digest):
    """True unless an earlier run of this seed saw another digest."""
    sha = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    store = bdir / "digests.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    key = f"{sha}:{workload}:{seed}"
    ok = seen.setdefault(key, digest) == digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(store)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bdir = (Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
            / "perfbench").resolve()
    if not build(bdir):
        return 1
    binary = bdir / "perfbench"

    cpus = sorted(os.sched_getaffinity(0))
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                str(bdir / f"spans-{args.workload}-{args.seed}.json")]
    pin = WORKLOADS[args.workload]
    # The last allowed CPU: the one least likely to take interrupts.
    preexec = (lambda: os.sched_setaffinity(0, {cpus[-1]})) if pin else None
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=preexec)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    digest = result.pop("digest")
    missing = expected_metrics(args.trace) - set(result["metrics"])
    if missing:
        log(f"missing metrics: {sorted(missing)}")
        return 1
    if not check_digest(bdir, binary, args.workload, args.seed, digest):
        print(f"digest {digest} differs from an earlier run of seed "
              f"{args.seed}: run marked failed")
        result["correct"] = False
        result["failed"] = result["attempted"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
