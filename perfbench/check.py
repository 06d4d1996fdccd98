#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/check.py                 # every workload
    python3 perfbench/check.py --workloads protocol_mc,cluster_tcp

It checks that
  * the output checker counts a wrong digest, a bottom outcome, a thrown
    exception and a sync timeout as failed trials (perfbench --self-test);
  * the count metrics repeat exactly across two traced runs of one seed;
  * another seed changes the end-state digests but not the metric set;
  * the serial and the sharded spread reach the same end states;
  * no trial of these runs fails.
Each traced run is as short as the workload allows (its minimum trial
count), so the whole check takes about a minute.  Exits nonzero on the
first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

# Counts taken over a fixed prefix of trial ids; exact for a seed.
COUNTS = ["sim.msgs_per_agent_round", "sim.bits_per_agent_round",
          "sim.rounds_per_trial", "net.send_calls_per_round",
          "net.bytes_per_agent_round"]


def traced_run(workload, seed):
    """Returns (digests, result) of one minimal traced run."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    digests = next(l.split()[1:] for l in lines if l.startswith("digests"))
    return digests, json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()

    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    expect(subprocess.call([sys.executable, os.path.join(HERE, "run.py"),
                            "--self-test"]) == 0,
           "the output checker counts every wrong output")
    digests = {}
    for workload in args.workloads.split(","):
        d1, r1 = traced_run(workload, args.seed)
        digests[workload] = d1
        d2, r2 = traced_run(workload, args.seed)
        d3, r3 = traced_run(workload, args.seed + 1)
        for r in (r1, r2, r3):
            expect(r["correct"] and r["failed"] == 0,
                   f"{workload}: {r['failed']} of {r['attempted']} failed")
        for name in COUNTS:
            a, b = r1["metrics"][name]["value"], r2["metrics"][name]["value"]
            expect(a == b, f"{workload}: {name} repeats ({a} vs {b})")
        expect(d1 == d2, f"{workload}: digests repeat for seed {args.seed}")
        expect(d1 != d3, f"{workload}: seed {args.seed + 1} changes the "
                         "digests")
        expect(sorted(r1["metrics"]) == sorted(r3["metrics"]),
               f"{workload}: seed {args.seed + 1} keeps the metric set")
    if "spread_1m" in digests and "spread_1m_sharded" in digests:
        serial, sharded = digests["spread_1m"], digests["spread_1m_sharded"]
        common = min(len(serial), len(sharded))
        expect(serial[:common] == sharded[:common],
               "spread_1m and spread_1m_sharded reach the same end states")
    if failures:
        sys.exit(f"{len(failures)} check(s) failed")


if __name__ == "__main__":
    main()
