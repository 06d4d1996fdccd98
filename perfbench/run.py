#!/usr/bin/env python3
"""Build and run the repository's benchmark (perfbench/perfbench.cpp).

Run from the root of a checkout:

    python3 perfbench/run.py --workload spread_1m --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5     # every workload
    python3 perfbench/run.py --self-test                    # checker self-test

The first call configures and builds the benchmark and the library it
measures into $CARGO_TARGET_DIR (default .bench_build) under the checkout;
later calls only rebuild what changed.  Each workload then runs in its own
process, and the last line of standard output is that process's JSON result.
The program exits nonzero, printing no result, when the checkout has no
library sources to build, the build fails, or the run fails or times out.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["spread_1m", "spread_1m_sharded", "protocol_mc", "cluster_tcp"]
# Outer limit on one workload process beyond its --seconds: the trial in
# flight at the deadline, the minimum trial count, and the checks that run
# after the timed loop.
RUN_SLACK_S = 150


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds perfbench; returns the binary's path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: no {needed} at {ROOT}; nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    # One build at a time, should two runs ever start together.
    with open(os.path.join(out, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                sys.exit(f"run.py: build step failed: {' '.join(step)} "
                         f"(see {log_path})")
    return os.path.join(out, "perfbench")


def run_one(binary, args, workload, seed):
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--port-base={args.port_base}"]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd.append(f"--spans={os.path.join(spans, f'{workload}-{seed}.jsonl')}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Clear of the socket tests' ports (18000-20063, and exp_socket's
    # 22000-37000 range).
    p.add_argument("--port-base", type=int, default=16400)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    binary = build()
    if args.self_test:
        sys.exit(subprocess.call([binary, "--self-test"]))

    if args.workload != "all":
        table, result = run_one(binary, args, args.workload, args.seed)
        print("\n".join(table))
        print(json.dumps(result))
        return

    # Every workload, one process each; the merged result keeps each
    # workload's metrics under "<workload>/<metric>".
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        table, result = run_one(binary, args, workload, args.seed)
        print(f"== {workload}: {result['attempted']} trials, "
              f"{result['failed']} failed")
        print("\n".join(table))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
