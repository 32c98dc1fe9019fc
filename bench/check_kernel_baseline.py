#!/usr/bin/env python3
"""Gate on simulation-kernel regressions.

Reads a google-benchmark JSON file with the BM_Kernel*/N benchmarks
(the BENCH_kernel.json CI artifact) and checks it against the
checked-in baseline (bench/BENCH_kernel_baseline.json).  A measured
value below ``tolerance * baseline`` fails; the default tolerance of
0.5 only trips on a >2x relative regression.

A ``simd`` section gates the wide-kernel speedups: ``simd.wide`` holds
per-tile-count floors for BM_KernelFull/N over BM_KernelWide/N (the
SIMD fault-parallel widening gain), ``simd.ppsfp`` for
BM_KernelPerTest/N over BM_KernelPPSFP/N (the pattern-parallel batch
gain) and ``simd.tdf_wide`` for BM_KernelTDF/N over BM_KernelTDFWide/N
(the fault-parallel widening gain under transition faults).  These ratios compare two measurements from the same run, so
absolute-time noise on shared CI runners largely cancels.

A ``transition`` section gates the counter perf_microbench attaches to
the frame-gated transition kernel (BM_KernelTDF): tdf_skip_ratio pins
the activation-aware whole-frame skipping, so a change that keeps wall
time but destroys it still fails.

Each value is read from the benchmark's ``_median`` aggregate when the
artifact has aggregates (CI runs ``--benchmark_repetitions=5
--benchmark_report_aggregates_only=true``), so one contended repetition
on a shared host cannot trip the gate; an artifact without aggregates
(a single run) is read entry by entry.

Every missing benchmark, field, or baseline key is reported by name
instead of surfacing as a traceback.
"""

import argparse
import json
import sys


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def kernel_benchmarks(path):
    """Returns {name: benchmark-entry} for the BM_Kernel* benchmarks.

    With aggregates present, the entry of each benchmark is its median
    aggregate, keyed by the plain run name; otherwise the plain entries.
    """
    data = load_json(path)
    if "benchmarks" not in data:
        fail(f"{path} has no 'benchmarks' array - not google-benchmark "
             "JSON output?")
    plain = {}
    medians = {}
    for bench in data["benchmarks"]:
        name = bench.get("name", "")
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") != "median":
                continue
            name = bench.get("run_name") or name.removesuffix("_median")
            target = medians
        else:
            target = plain
        if name.startswith("BM_Kernel") and "/" in name:
            target[name] = bench
    out = medians or plain
    if not out:
        fail(f"{path} contains no BM_Kernel*/N benchmarks")
    print(f"reading {'median aggregates' if medians else 'single runs'} "
          f"from {path}")
    return out


def real_time(benchmarks, name, path):
    if name not in benchmarks:
        fail(f"benchmark '{name}' missing from {path}")
    bench = benchmarks[name]
    if "real_time" not in bench:
        fail(f"benchmark '{name}' in {path} has no 'real_time' field")
    return float(bench["real_time"])


def ratio_speedups(benchmarks, path, slow_name, fast_name):
    """{arg: slow_time / fast_time} for args where both exist."""
    out = {}
    for name in benchmarks:
        kind, arg = name.split("/", 1)
        if kind != fast_name or f"{slow_name}/{arg}" not in benchmarks:
            continue
        fast = real_time(benchmarks, name, path)
        if fast <= 0.0:
            fail(f"benchmark '{name}' in {path} has non-positive real_time")
        out[arg] = real_time(benchmarks, f"{slow_name}/{arg}", path) / fast
    return out


def check_speedups(measured, baseline, tolerance, label):
    ok = True
    for arg, base in sorted(baseline.items(), key=lambda kv: int(kv[0])):
        got = measured.get(arg)
        if got is None:
            print(f"tiles={arg}: MISSING {label} measurement")
            ok = False
            continue
        floor = base * tolerance
        status = "ok" if got >= floor else "REGRESSION"
        print(
            f"tiles={arg}: {label} speedup {got:.2f}x "
            f"(baseline {base:.2f}x, floor {floor:.2f}x) {status}"
        )
        ok = ok and got >= floor
    return ok


def check_counters(benchmarks, baseline, tolerance, path):
    """baseline: {benchmark name: {counter: baseline value}}."""
    ok = True
    for name, counters in sorted(baseline.items()):
        if name not in benchmarks:
            print(f"{name}: MISSING benchmark for counter check")
            ok = False
            continue
        for counter, base in sorted(counters.items()):
            if counter not in benchmarks[name]:
                print(f"{name}: counter '{counter}' missing from {path}")
                ok = False
                continue
            got = float(benchmarks[name][counter])
            floor = base * tolerance
            status = "ok" if got >= floor else "REGRESSION"
            print(
                f"{name}: {counter} {got:.3f} "
                f"(baseline {base:.3f}, floor {floor:.3f}) {status}"
            )
            ok = ok and got >= floor
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("measured", help="BENCH_kernel.json from CI")
    parser.add_argument("baseline", help="BENCH_kernel_baseline.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="fraction of the baseline a measurement may drop to before "
        "failing (default 0.5 = fail below half the baseline)",
    )
    args = parser.parse_args()
    if not 0.0 < args.tolerance <= 1.0:
        fail(f"--tolerance must be in (0, 1], got {args.tolerance}")

    benchmarks = kernel_benchmarks(args.measured)
    baseline = load_json(args.baseline)
    if "simd" not in baseline and "transition" not in baseline:
        fail(f"{args.baseline} has neither a 'simd' nor a 'transition' "
             "section")

    ok = True
    if "transition" in baseline:
        ok = check_counters(
            benchmarks, baseline["transition"], args.tolerance,
            args.measured)
    simd = baseline.get("simd", {})
    if "wide" in simd:
        ok = check_speedups(
            ratio_speedups(benchmarks, args.measured,
                           "BM_KernelFull", "BM_KernelWide"),
            simd["wide"], args.tolerance, label="wide") and ok
    if "ppsfp" in simd:
        ok = check_speedups(
            ratio_speedups(benchmarks, args.measured,
                           "BM_KernelPerTest", "BM_KernelPPSFP"),
            simd["ppsfp"], args.tolerance, label="ppsfp") and ok
    if "tdf_wide" in simd:
        ok = check_speedups(
            ratio_speedups(benchmarks, args.measured,
                           "BM_KernelTDF", "BM_KernelTDFWide"),
            simd["tdf_wide"], args.tolerance, label="tdf_wide") and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
