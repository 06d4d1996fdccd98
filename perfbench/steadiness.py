#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed on each named workload and prints, for
every metric, its median over the runs and the distance between the first
and third quartile as a share of that median -- the figure each metric's
"bound" in BENCHMARK.json has to cover.  Run from the root of a checkout:

    python3 perfbench/steadiness.py --workloads spread_1m,protocol_mc \
        --seeds 1-10 --seconds 25

Add --json PATH to keep every run's result for a later comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def load_bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in bench["end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--json", default="")
    args = p.parse_args()

    bounds = load_bounds()
    runs = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(result)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            note = "" if bound is None else f" bound {bound:.2f} " + (
                "ok" if name == "setup_s" or spread < bound / 3
                else "WIDE")
            if name != "setup_s":
                worst = max(worst, spread / bound if bound else 0)
            print(f"  {workload:18s} {name:20s} median {med:14.6g} "
                  f"IQR/median {spread:7.4f}{note}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    print(f"worst spread / bound: {worst:.3f} (steady below 0.333)")


if __name__ == "__main__":
    main()
