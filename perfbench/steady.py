#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and summarises each metric.

    python3 perfbench/steady.py [--runs 10] [--workloads browse,churn,serve]
                                [--seconds S] [--seed 1] [--sets 1]

Run from the root of a checkout. Round i runs every workload once with
seed --seed + i, in forward order on even rounds and reverse order on odd
ones, so no workload always runs first on a quiet machine. For each
workload and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and
min/max, and, for end-to-end metrics, whether the spread is within a third
of the metric's bound in BENCHMARK.json. With --sets 2 or more it repeats
the whole set with fresh seeds and prints, for every end-to-end metric, how
far each later set's median moved from the first set's, against the bound.
--seconds defaults to run_seconds of BENCHMARK.json. Stops with an error if
any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0,
            "min": min(values), "max": max(values), "runs": len(values)}


def run_set(workloads, runs, first_seed, seconds):
    """workload -> metric -> the values of `runs` runs."""
    values = {w: {} for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = run_once(workload, first_seed + i, seconds)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {i + 1}/{runs} {workload} seed {first_seed + i} done",
                  file=sys.stderr, flush=True)
    return values


def print_set(values, first_seed, runs, seconds, bounds):
    """Prints one set's table; returns workload -> metric -> median."""
    medians = {}
    for workload, metrics in values.items():
        print(f"\n{workload}: {runs} runs, seeds {first_seed}.."
              f"{first_seed + runs - 1}, {seconds} s")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'min':>12} {'max':>12}  bound/3")
        medians[workload] = {}
        for name, series in metrics.items():
            s = summarise(series)
            medians[workload][name] = s["median"]
            verdict = ""
            if name in bounds:
                ok = s["spread"] < bounds[name] / 3
                verdict = f"{'ok' if ok else 'WIDE'} ({bounds[name] / 3:.3f})"
            print(f"  {name:<34} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.4f} {s['min']:>12.6g} "
                  f"{s['max']:>12.6g}  {verdict}")
    return medians


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="browse,churn,serve")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    if args.sets < 1:
        parser.error("--sets must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")

    sets = []
    for k in range(args.sets):
        first_seed = args.seed + k * args.runs
        values = run_set(workloads, args.runs, first_seed, seconds)
        print(f"\nset {k + 1}")
        sets.append(print_set(values, first_seed, args.runs, seconds,
                              bounds))
    for k in range(1, len(sets)):
        print(f"\nmedian of set {k + 1} against set 1: "
              "(later - first) / first")
        for workload in workloads:
            for name, bound in bounds.items():
                first = sets[0][workload][name]
                moved = (sets[k][workload][name] - first) / first
                verdict = "ok" if abs(moved) <= bound else "OUT"
                print(f"  {workload:<8} {name:<24} {moved:>+8.4f}  "
                      f"{verdict} (bound {bound})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
