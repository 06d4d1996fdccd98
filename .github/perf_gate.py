#!/usr/bin/env python3
"""Fail a change whose benchmark results are worse than its base commit's.

Run from the root of a checkout:

    python3 .github/perf_gate.py --base origin/main   # gate this checkout
    python3 .github/perf_gate.py --self-test          # decision-rule tests

The gate exports REF with `git archive REF | tar -x` into a temporary
directory (no worktree), then runs the benchmark (perfbench/run.py) in both
trees: PAIRS alternating pairs per workload named in both trees'
BENCHMARK.json, each run `--seconds SECONDS --trace 0 --seed SEED`.  Each
tree builds its own benchmark binary under its own .bench_build.  It fails
when any of these holds:

  * for some workload and end-to-end metric, the checkout's median is worse
    than the base's by more than that metric's BENCHMARK.json "bound"
    (direction from "better"), and the checkout is worse in at least
    LOSSES_TO_FAIL of the PAIRS pairs;
  * a run of the checkout is not "correct";
  * a run of the checkout fails a larger share of its trials
    (failed / attempted) than the base's run in the same pair;
  * a run in either tree exits nonzero.

Both conditions of the first rule are needed because of how the spread
workloads move.  Under link-time optimization they shift with code they
never run: a change to Protocol P alone once read -18% on
spread_1m_sharded agent_rounds_per_s over 3 pairs, then within noise over
6 more.  Such a shift sits inside the 25% bound, and it rarely wins 4 of 5
pairs.  A real regression, such as a round kernel twice as slow, moves the
median past the bound in every pair.  Pairs, seconds and seed are fixed
here, so a gate run on a dev box and in CI reads the same numbers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 5
LOSSES_TO_FAIL = 4
SECONDS = 5
SEED = 1


def load_benchmark(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def run_perfbench(tree, workload):
    """One benchmark run: its JSON result, or {"exit": code} if it failed."""
    # A relative target dir keeps each tree's build inside that tree.
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS), "--trace", "0", "--seed", str(SEED)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode}
    return json.loads(lines[-1])


def worse(metric, base, head):
    """How much worse head is than base, as a share of base (< 0: better)."""
    change = (head - base) / base
    return change if metric["better"] == "lower" else -change


def fail_share(run):
    return run["failed"] / run["attempted"]


def decide(pairs, metrics):
    """The gate's verdict on one workload.

    pairs: [(base_run, head_run)], each a perfbench JSON result or
    {"exit": code}.  metrics: BENCHMARK.json's end_to_end entries.  Returns
    (failures, rows): a list of reasons to fail, empty when the workload
    passes, and one (metric, base median, head median, worse, lost) row per
    metric compared.
    """
    failures = []
    for i, (base, head) in enumerate(pairs, 1):
        for side, run in (("base", base), ("head", head)):
            if "exit" in run:
                failures.append(f"pair {i}: {side} run exited with "
                                f"{run['exit']}")
        if "exit" in base or "exit" in head:
            continue
        if not head["correct"]:
            failures.append(f"pair {i}: head run is not correct")
        if fail_share(head) > fail_share(base):
            failures.append(
                f"pair {i}: head failed {head['failed']}/{head['attempted']} "
                f"trials, base {base['failed']}/{base['attempted']}")
    if failures:
        return failures, []

    rows = []
    for metric in metrics:
        name = metric["name"]
        values = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                  for b, h in pairs
                  if name in b["metrics"] and name in h["metrics"]]
        if len(values) != len(pairs):
            continue
        base_median = statistics.median(b for b, _ in values)
        head_median = statistics.median(h for _, h in values)
        lost = sum(worse(metric, b, h) > 0 for b, h in values)
        change = worse(metric, base_median, head_median)
        rows.append((name, base_median, head_median, change, lost))
        if change > metric["bound"] and lost * PAIRS >= LOSSES_TO_FAIL * len(
                values):
            failures.append(
                f"{name}: median {head_median:.6g} vs base {base_median:.6g} "
                f"({change:+.1%} worse, bound {metric['bound']:.0%}), worse "
                f"in {lost}/{len(values)} pairs")
    return failures, rows


def gate(base_ref):
    head_bench = load_benchmark(ROOT)
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as base_tree:
        archive = subprocess.Popen(["git", "archive", base_ref], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", base_tree],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            sys.exit(f"perf_gate: could not export {base_ref}")
        base_names = {w["name"] for w in load_benchmark(base_tree)["workloads"]}
        failed = False
        for workload in (w["name"] for w in head_bench["workloads"]):
            # A workload added by this change has nothing to pair against.
            if workload not in base_names:
                print(f"{workload}: not in the base's BENCHMARK.json; skipped")
                continue
            pairs = []
            for i in range(PAIRS):
                # Alternate which tree goes first, so drift in the host's
                # speed falls on both sides alike.
                if i % 2 == 0:
                    base = run_perfbench(base_tree, workload)
                    head = run_perfbench(ROOT, workload)
                else:
                    head = run_perfbench(ROOT, workload)
                    base = run_perfbench(base_tree, workload)
                pairs.append((base, head))
                print(f"{workload}: pair {i + 1}/{PAIRS} done", flush=True)
            failures, rows = decide(pairs, head_bench["end_to_end"])
            for name, b, h, change, lost in rows:
                print(f"  {workload:18s} {name:20s} base {b:12.6g} "
                      f"head {h:12.6g} "
                      f"{'worse' if change > 0 else 'better'} by "
                      f"{abs(change):6.1%}, lost {lost}/{len(pairs)}")
            for reason in failures:
                print(f"FAIL {workload} {reason}")
            failed |= bool(failures)
            sys.stdout.flush()
    print("perf gate: " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


# ------------------------------------------------------------- Self-test

METRICS = [
    {"name": "agent_rounds_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def result(rate, setup=0.05, correct=True, attempted=100, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"agent_rounds_per_s": {"value": rate},
                        "setup_s": {"value": setup}}}


def self_test():
    bad = 0

    def expect(ok, what):
        nonlocal bad
        print(("ok   " if ok else "FAIL ") + what)
        bad += not ok

    rates = [40e6 * f for f in (1.0, 0.97, 1.03, 0.99, 1.01)]
    base = [result(r) for r in rates]

    def verdict(heads, bases=base):
        return decide(list(zip(bases, heads)), METRICS)[0]

    expect(verdict(base) == [], "identical runs pass")
    slow = verdict([result(r / 2) for r in rates])
    expect(len(slow) == 1 and slow[0].startswith("agent_rounds_per_s"),
           "a 2x slower agent_rounds_per_s fails, naming the metric")
    noisy = [result(r * f) for r, f in zip(rates, (0.8, 1.2, 0.82, 1.18, 1))]
    expect(verdict(noisy) == [], "+-20% noise passes")
    ten = [result(40e6) for _ in range(10)]
    half_lost = [result(40e6 * (0.4 if i < 5 else 1.01)) for i in range(10)]
    expect(verdict(half_lost, ten) == [],
           "a median past the bound that loses 5 of 10 pairs passes")
    setup = verdict([result(r, setup=0.05 * 1.3) for r in rates])
    expect(len(setup) == 1 and setup[0].startswith("setup_s"),
           "a setup_s rise past 25% in 5/5 pairs fails")
    incorrect = verdict(base[:4] + [result(40e6, correct=False, failed=1)])
    expect(any("not correct" in r for r in incorrect),
           "a head run with correct: false fails")
    bases = [result(40e6, correct=False, failed=1) for _ in range(5)]
    more_failed = verdict(
        [result(40e6, correct=False, failed=2)] + bases[1:], bases)
    expect(any("failed 2/100" in r for r in more_failed),
           "a higher failed share fails")
    crashed = verdict(base[:4] + [{"exit": 1}])
    expect(any("exited with 1" in r for r in crashed),
           "a run that exits nonzero fails")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--base", metavar="REF",
                      help="commit to compare the checkout against")
    mode.add_argument("--self-test", action="store_true",
                      help="test the decision rule on synthetic pairs")
    args = p.parse_args()
    sys.exit(self_test() if args.self_test else gate(args.base))


if __name__ == "__main__":
    main()
