#!/usr/bin/env python3
"""Append one CI perf result to the bench/history/ JSONL ledger.

CI gates (check_kernel_baseline.py, check_service_baseline.py) only
answer "did this run regress past the floor?" — slow drift inside the
tolerance band is invisible.  This script keeps the longitudinal record:
each perf-smoke / service-load run appends one compact JSON line to
bench/history/<kind>.jsonl, and the deltas against the previous entry
are printed so a trend shows up in the CI log itself.

    record_history.py --kind kernel  BENCH_kernel.json
    record_history.py --kind service load.json
    record_history.py --kind atpg    BENCH_atpg.json

Kernel entries record the SIMD-wide and PPSFP same-run ratios per block
count (noise-robust, like the gates).
Service entries record throughput and latency percentiles.  ATPG
entries record the SAT-backend-vs-PODEM per-fault cost ratio and the
transition-vs-stuck-at SAT encoding ratio per circuit size (the price
of --atpg=sat completeness; see docs/atpg.md).  Every entry
carries a UTC timestamp and the commit sha (GITHUB_SHA or git
rev-parse).  Recording never fails the build: a malformed input exits 1
loudly, but a missing previous entry just means "no deltas yet".
"""

import argparse
import datetime
import json
import os
import subprocess
import sys


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def commit_sha():
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def real_times(bench_json, prefix):
    """{arg: real_time} for one BM_* family in google-benchmark output."""
    out = {}
    for bench in bench_json.get("benchmarks", []):
        name = bench.get("name", "")
        if name.startswith(prefix + "/") and "real_time" in bench:
            out[name.split("/", 1)[1]] = float(bench["real_time"])
    return out


def kernel_metrics(path):
    data = load_json(path)
    if "benchmarks" not in data:
        fail(f"{path} has no 'benchmarks' array - not google-benchmark "
             "JSON output?")
    full = real_times(data, "BM_KernelFull")
    wide = real_times(data, "BM_KernelWide")
    per_test = real_times(data, "BM_KernelPerTest")
    ppsfp = real_times(data, "BM_KernelPPSFP")
    metrics = {}
    for arg in sorted(set(full) & set(wide), key=int):
        if wide[arg] > 0:
            metrics[f"simd_wide/{arg}"] = round(full[arg] / wide[arg], 3)
    for arg in sorted(set(per_test) & set(ppsfp), key=int):
        if ppsfp[arg] > 0:
            metrics[f"simd_ppsfp/{arg}"] = round(
                per_test[arg] / ppsfp[arg], 3)
    if not metrics:
        fail(f"{path} contains no comparable BM_Kernel*/N pairs")
    return metrics


def atpg_metrics(path):
    data = load_json(path)
    if "benchmarks" not in data:
        fail(f"{path} has no 'benchmarks' array - not google-benchmark "
             "JSON output?")
    podem = real_times(data, "BM_AtpgPodem")
    sat = real_times(data, "BM_AtpgSat")
    tdf = real_times(data, "BM_AtpgSatTransition")
    metrics = {}
    for arg in sorted(set(podem) & set(sat), key=int):
        if podem[arg] > 0:
            metrics[f"sat_vs_podem/{arg}"] = round(sat[arg] / podem[arg], 3)
    for arg in sorted(set(sat) & set(tdf), key=int):
        if sat[arg] > 0:
            metrics[f"tdf_vs_stuck/{arg}"] = round(tdf[arg] / sat[arg], 3)
    if not metrics:
        fail(f"{path} contains no comparable BM_Atpg*/N pairs")
    return metrics


def service_metrics(path):
    data = load_json(path)
    if data.get("schema") != "scanc-service-load-v1":
        fail(f"{path}: unexpected schema {data.get('schema')!r}")
    metrics = {}
    for key in ("throughput_done_per_s", "p50_ms", "p99_ms", "done",
                "failed", "shed", "seconds"):
        if key in data:
            metrics[key] = data[key]
    if "throughput_done_per_s" not in metrics:
        fail(f"{path} has no throughput_done_per_s")
    return metrics


def last_entry(history_path):
    try:
        with open(history_path) as f:
            lines = [ln for ln in f if ln.strip()]
    except OSError:
        return None
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None  # a corrupt tail must not block recording


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", choices=("kernel", "service", "atpg"),
                        required=True)
    parser.add_argument("results", help="BENCH_kernel.json or load.json")
    parser.add_argument("--out-dir", default="bench/history")
    args = parser.parse_args()

    extract = {"kernel": kernel_metrics, "service": service_metrics,
               "atpg": atpg_metrics}[args.kind]
    metrics = extract(args.results)
    entry = {
        "recorded_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": commit_sha(),
        "kind": args.kind,
        "metrics": metrics,
    }

    os.makedirs(args.out_dir, exist_ok=True)
    history_path = os.path.join(args.out_dir, f"{args.kind}.jsonl")
    previous = last_entry(history_path)
    with open(history_path, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")

    print(f"recorded {args.kind} entry -> {history_path}")
    if previous is None or "metrics" not in previous:
        print("no previous entry; deltas start with the next run")
        return
    prev = previous["metrics"]
    print(f"deltas vs {previous.get('commit', '?')[:12]} "
          f"({previous.get('recorded_utc', '?')}):")
    for key in sorted(metrics):
        now = metrics[key]
        if key not in prev or not isinstance(now, (int, float)):
            print(f"  {key:24} {now}  (new)")
            continue
        was = prev[key]
        pct = (f" ({100.0 * (now - was) / was:+.1f}%)"
               if isinstance(was, (int, float)) and was else "")
        print(f"  {key:24} {was} -> {now}{pct}")


if __name__ == "__main__":
    main()
