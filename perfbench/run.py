#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark and prints its result.

    python3 perfbench/run.py --workload browse|churn|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) into .bench_build/; later runs
reuse the build. The last line of stdout is one JSON object with exactly
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json when --trace is 0, its per-layer metrics when --trace is 1.
The line before it is the run record (seed, scale, hardware, checks). A
traced run also writes its spans to .bench_build/trace/.

An untraced run is PROCESSES runs of the benchmark binary, each in a fresh
process doing an equal share of the work, and reports each metric's median
over them: on a shared host, speed moves from process to
process (by up to 15% for the same seed and work), and the median of
independent processes is steadier than one long process. A traced run is
one process doing the same share, so its per-layer figures describe the
same stretch of the workload as one untraced process's figures.

Exits non-zero, printing no result, when the build fails, a correctness
check fails or the output does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("browse", "churn", "serve")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
BUILD_TIMEOUT_S = 700  # with the run, within 900 s on a first build
RUN_TIMEOUT_S = 170
PROCESSES = 5


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            # Build output goes to stderr: stdout carries only results.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step failed: {error}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return False
    return os.path.exists(BINARY)


def expected_metrics(traced):
    """name -> unit of the metrics a run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if traced else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate(result, traced):
    """Problems with the binary's result object (empty when sound)."""
    problems = []
    if result.get("correct") is not True:
        failed = [c for c in result.get("checks", []) if not c.get("ok")]
        problems.append(f"correctness check failed: {failed}")
    attempted = result.get("attempted")
    failed = result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted must be >= 1, got {attempted}")
    if failed != 0:
        problems.append(f"{failed} of {attempted} operations failed")
    expected = expected_metrics(traced)
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metric names differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"{name}: unit {metric.get('unit')!r}, "
                            f"BENCHMARK.json says {expected[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
        elif not traced and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not > 0")
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    # A traced run is one process with the work of one untraced process,
    # so its per-layer figures cover the same window as the end-to-end ones.
    processes = 1 if args.trace else PROCESSES
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{args.seconds / PROCESSES:.6g}",
               "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.json")]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for i in range(processes):
        # The determinism twin is the same in every process: run it once.
        extra = ["--no-twin"] if i > 0 else []
        try:
            done = subprocess.run(
                command + extra, cwd=RUN_DIR, stdout=subprocess.PIPE,
                text=True, timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
            return 1
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            log("no result from the benchmark binary "
                f"(exit {done.returncode})")
            return 1
        problems = validate(result, bool(args.trace))
        if done.returncode != 0 and not problems:
            problems.append(f"benchmark binary exited {done.returncode}")
        if problems:
            for problem in problems:
                log(problem)
            return 1
        results.append(result)

    metrics = {name: {"value": statistics.median(
                          r["metrics"][name]["value"] for r in results),
                      "unit": metric["unit"]}
               for name, metric in results[0]["metrics"].items()}
    record = dict(results[0]["record"], processes=processes)
    record["per_process"] = {name: [r["metrics"][name]["value"]
                                    for r in results] for name in metrics}
    print(json.dumps({"workload": args.workload, "record": record,
                      "checks": [c for r in results for c in r["checks"]]}))
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
