#!/usr/bin/env python3
"""Steadiness mode: repeated runs, their quartiles, and an A/A check.

    python3 perfbench/steady.py --workload flow_sa [--seeds 1-10]
                                [--sets 2] [--seconds 30]

Runs perfbench/run.py once per seed (a set), `--sets` times over.  For
every end-to-end metric of BENCHMARK.json it prints each set's median,
quartiles, sample count and spread (interquartile distance / median).
With two sets it is an A/A check of one build against the benchmark's
own bounds: a metric is resolved at its bound when each set's spread is
within the bound (setup_s excepted) and the second median is no worse
than the first by more than the bound.  Exit status 0 = all resolved.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent


def aa_verdict(a, b, bound, better, check_spread):
    """Resolution of one metric from two sets of runs of the same build."""
    med_a, med_b = benchlib.quartiles(a)[1], benchlib.quartiles(b)[1]
    worse = (med_b - med_a) / med_a if better == "lower" else \
        (med_a - med_b) / med_a
    spreads = (benchlib.spread(a), benchlib.spread(b))
    resolved = worse <= bound and (
        not check_spread or all(s <= bound for s in spreads))
    return {"worse_by": worse, "spreads": spreads, "resolved": resolved}


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench/run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(proc.stdout, end="")
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    sets = []
    for n in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(args.workload, seed, seconds))
            print(f"set {n + 1} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        sets.append(runs)

    ok = True
    print(f"\n{args.workload}: {len(seeds)} runs per set")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r[name] for r in runs] for runs in sets]
        for n, vals in enumerate(values):
            q1, med, q3 = benchlib.quartiles(vals)
            spread = benchlib.spread(vals)
            print(f"  {name:16s} set {n + 1}: median {med:.6g} "
                  f"[{q1:.6g}, {q3:.6g}] n={len(vals)} spread {spread:.2%} "
                  f"(bound {bound:.0%}, target < {bound / 3:.2%})")
        if len(values) == 2:
            v = aa_verdict(values[0], values[1], bound, metric["better"],
                           check_spread=name != "setup_s")
            ok &= v["resolved"]
            print(f"  {name:16s} A/A: second set worse by {v['worse_by']:+.2%}"
                  f" -> {'resolved' if v['resolved'] else 'NOT resolved'}"
                  f" at bound {bound:.0%}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
