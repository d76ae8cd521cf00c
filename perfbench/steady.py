#!/usr/bin/env python3
"""Steadiness report: repeated runs of the benchmark, one seed each.

    python3 perfbench/steady.py [--workloads serve,ingest] [--runs 10]
        [--first-seed 1] [--trace]

For every workload it runs perfbench/run.py once per seed and prints each
end-to-end metric's median, quartiles and spread (the distance between the
quartiles as a share of the median, from statistics.quantiles(n=4)) next
to the bound BENCHMARK.json gives it. With --trace it also makes a traced
run per seed and prints the tracing overhead: the traced run's median minus
the untraced run's median, per end-to-end metric. Raw results go to
.bench_build/perfbench/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """One run; returns (result, traced end-to-end metrics or None)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().split("\n")
    traced = None
    for line in lines:
        if line.startswith("traced_end_to_end "):
            traced = json.loads(line[len("traced_end_to_end "):])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if done.returncode != 0 or result is None:
        tail = "\n".join(lines[-8:])
        print("  seed %d %s: exit %d\n%s\n%s" % (
            seed, "traced" if trace else "untraced", done.returncode, tail,
            done.stderr.strip()[-400:]), flush=True)
    return result, traced


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return q1, q2, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: every one)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    failures = 0
    for workload in workloads:
        untraced = {name: [] for name in bounds}
        traced = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, _ = run_once(workload, seed, spec["run_seconds"], False)
            if result is None or not result["correct"] or result["failed"]:
                failures += 1
            if result is not None:
                for name in bounds:
                    untraced[name].append(result["metrics"][name]["value"])
            if args.trace:
                result, traced_e2e = run_once(workload, seed,
                                              spec["run_seconds"], True)
                if result is None or not result["correct"] or result["failed"]:
                    failures += 1
                if traced_e2e is not None:
                    for name in bounds:
                        traced[name].append(traced_e2e[name]["value"])
        print("\n== %s: %d runs, seeds %d..%d" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1))
        print("%-16s %12s %12s %12s %8s %6s %14s" % (
            "metric", "q1", "median", "q3", "spread", "bound",
            "trace_overhead"))
        report[workload] = {"untraced": untraced, "traced": traced}
        for name in bounds:
            values = untraced[name]
            if len(values) < 2:
                print("%-16s (too few runs)" % name)
                continue
            q1, median, q3, spread = summarize(values)
            overhead = ""
            if len(traced[name]) >= 1:
                overhead = "%+.6g" % (statistics.median(traced[name]) - median)
            flag = "" if spread <= bounds[name] / 3 else "  <-- over a third"
            print("%-16s %12.6g %12.6g %12.6g %8.4f %6.3f %14s%s" % (
                name, q1, median, q3, spread, bounds[name], overhead, flag))
        sys.stdout.flush()
    out = os.path.join(ROOT, ".bench_build", "perfbench", "steady.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print("\nraw values: %s; failed or incorrect runs: %d" % (out, failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
