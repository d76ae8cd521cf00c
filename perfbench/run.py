#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload serve|ingest|train \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It compiles the program's libraries
from src/ together with the benchmark (perfbench/CMakeLists.txt) into
.bench_build/perfbench, runs one workload, and passes the benchmark's
output through. The last line of stdout is the JSON result. The exit status
is the benchmark's: 0 only for a correct run with no failed operation.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve", "ingest", "train")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally. Returns the binary path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    with open(build_log, "w") as out:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=out, stderr=subprocess.STDOUT)
            if configure.returncode != 0:
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        compiled = subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
            stdout=out, stderr=subprocess.STDOUT)
    if compiled.returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed; see " + os.path.join(BUILD_DIR, "build.log"))
        return 2

    tag = "%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    work_dir = os.path.join(BUILD_DIR, "work", tag)
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "%g" % args.seconds, "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--trace-out", os.path.join(trace_dir, tag + ".json")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        log("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 4
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
    except ValueError:
        print(last)
        log("benchmark exited %d without a result" % process.returncode)
        return process.returncode or 5
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        log("metrics differ from BENCHMARK.json: %s" %
            sorted(set(result["metrics"]) ^ expected))
        return 6
    print(json.dumps(result), flush=True)
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())
