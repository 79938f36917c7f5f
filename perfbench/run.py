#!/usr/bin/env python3
"""Builds and runs the CECI end-to-end benchmark (see perfbench/README.md).

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload first1k --seed 1 --seconds 10 --trace 0

The first run configures and builds the libraries and ceci_perfbench in
Release mode under .bench_build/perfbench; build output goes to stderr, so
the last line on stdout is always ceci_perfbench's JSON result.

Other modes:

    python3 perfbench/run.py --selftest
        builds and runs the benchmark's own tests.
    python3 perfbench/run.py --steady 5 --workload first1k [--trace 0|1]
        runs the workload 5 times with different seeds, exactly as
        BENCHMARK.json's command does, and prints per metric the median and
        the quartile spread (IQR / median) next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DATA_DIR = os.path.join(".bench_build", "perfbench-data")
BINARY = os.path.join(BUILD_DIR, "ceci_perfbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(targets):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_benchmark(args):
    os.makedirs(DATA_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--offered-qps", str(args.offered_qps), "--data-dir", DATA_DIR]
    # Inputs and oracle answers are prepared by a process of their own, so
    # that none of that work shows in the measured process.
    prepare = subprocess.run(cmd + ["--prepare", "1"], stdout=sys.stderr)
    if prepare.returncode != 0:
        log("preparing inputs failed")
        return prepare.returncode
    return subprocess.run(cmd).returncode


def steady(args):
    """Runs BENCHMARK.json's command N times and reports spreads."""
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for i in range(args.steady):
        seed = args.seed + i
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("run with seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            log("run with seed %d was not correct: %s" % (seed, lines[-1]))
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        log("seed %d: %s" % (seed, json.dumps(
            {k: round(v[-1], 4) for k, v in values.items()})))
    print("%-28s %14s %9s %7s  %s" % ("metric", "median", "spread", "bound",
                                      "values"))
    worst = True
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) >= 2 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = m.get("bound")
        mark = ""
        if bound is not None:
            ok = spread < bound / 3
            worst = worst and ok
            mark = "ok" if ok else "WIDE"
        print("%-28s %14.6g %8.1f%% %7s  %s %s" % (
            m["name"], med, spread * 100,
            "" if bound is None else "%.0f%%" % (bound * 100),
            " ".join("%.4g" % x for x in v), mark))
    return 0 if worst else 3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--offered-qps", type=float, default=2500.0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--steady", type=int, default=0, metavar="N")
    args = p.parse_args()

    if args.steady:
        if not args.workload:
            p.error("--steady needs --workload")
        return steady(args)
    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
    if not args.workload:
        p.error("--workload is required")
    if not build(["ceci_perfbench"]):
        log("build failed")
        return 1
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
