#!/usr/bin/env python3
"""Validate the telemetry artifacts a run produces.

Checks the --metrics-out snapshot against the scanc-metrics-v1 schema
(counters / gauges / derived / histograms / phases sections with the
expected keys and types) and, when a trace file is given, that the
--trace-out file is loadable Chrome trace-event JSON with at least one
complete ("ph":"X") span and consistent nesting (every pair of spans on
one tid either nests or is disjoint).

Usage: check_metrics_schema.py METRICS.json [TRACE.json]

Exit 0 on success; prints every violation and exits 1 otherwise.
Metric catalog: docs/observability.md.
"""

import json
import sys

EXPECTED_COUNTERS = [
    "frames_simulated", "frames_skipped", "cone_passes", "full_passes",
    "tdf_activations",
    "tdf_frames_skipped", "ppsfp_batches", "ppsfp_tests_packed",
    "wide_fp_passes", "trace_cache_hits",
    "trace_cache_misses", "trace_cache_extensions",
    "trace_cache_partial_reuses", "trace_cache_evictions", "pool_tasks_run",
    "pool_queue_wait_ns", "pool_busy_ns", "groups_executed", "queries_run",
    "faults_detected", "iterate_rounds",
    "atpg_sat_solve_calls", "atpg_sat_conflicts", "atpg_sat_proofs",
    "atpg_sat_fallbacks",
    "check_cases_run",
    "check_queries_compared", "check_divergences", "check_shrink_steps",
    "check_case_timeouts",
    "jobs_submitted", "jobs_accepted", "jobs_rejected", "jobs_shed",
    "jobs_started", "jobs_done", "jobs_failed", "jobs_retried",
    "jobs_quarantined", "jobs_deadline_cut", "jobs_resumed",
    "svc_connections", "svc_frames_read", "svc_frames_written",
    "svc_bytes_read", "svc_bytes_written", "svc_protocol_errors",
    "registry_circuit_hits", "registry_circuit_misses",
    "registry_sim_reuses",
]
EXPECTED_GAUGES = [
    "trace_cache_size", "threads_configured", "simd_lane_width",
    "ppsfp_tests_per_pass", "svc_queue_depth", "svc_jobs_running",
]
EXPECTED_DERIVED = [
    "trace_cache_hit_ratio", "pool_mean_queue_wait_ns",
]
EXPECTED_HISTOGRAMS = [
    "queue_wait_ns", "task_run_ns", "query_ns", "job_queue_ns",
    "job_run_ns", "job_latency_ns",
]

errors = []


def error(message):
    errors.append(message)
    print(f"FAIL: {message}")


def check_metrics(path):
    try:
        with open(path) as f:
            m = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        error(f"{path}: unreadable or invalid JSON: {e}")
        return
    if m.get("schema") != "scanc-metrics-v1":
        error(f"{path}: schema is {m.get('schema')!r}, "
              "expected 'scanc-metrics-v1'")
    # Snapshot ordering stamps: a per-process monotonic sequence plus a
    # wall-clock emission time, so consumers can order snapshots from one
    # process and correlate them across processes.
    if not isinstance(m.get("sequence"), int) or m.get("sequence") < 1:
        error(f"{path}: 'sequence' = {m.get('sequence')!r} is not a "
              "positive integer")
    if (not isinstance(m.get("emitted_unix_ms"), int)
            or m.get("emitted_unix_ms") < 1_600_000_000_000):
        error(f"{path}: 'emitted_unix_ms' = {m.get('emitted_unix_ms')!r} "
              "is not a plausible unix-epoch millisecond stamp")
    for section, keys in [
        ("counters", EXPECTED_COUNTERS),
        ("gauges", EXPECTED_GAUGES),
        ("derived", EXPECTED_DERIVED),
        ("histograms", EXPECTED_HISTOGRAMS),
    ]:
        if section not in m or not isinstance(m[section], dict):
            error(f"{path}: missing '{section}' object")
            continue
        for key in keys:
            if key not in m[section]:
                error(f"{path}: {section}.{key} missing")
    for name, value in m.get("counters", {}).items():
        if not isinstance(value, int) or value < 0:
            error(f"{path}: counters.{name} = {value!r} is not a "
                  "non-negative integer")
    for name, value in m.get("derived", {}).items():
        if not isinstance(value, (int, float)):
            error(f"{path}: derived.{name} = {value!r} is not a number")
    for name, hist in m.get("histograms", {}).items():
        if not isinstance(hist, dict):
            error(f"{path}: histograms.{name} is not an object")
            continue
        for field in ("count", "sum", "min", "max", "buckets"):
            if field not in hist:
                error(f"{path}: histograms.{name}.{field} missing")
        if isinstance(hist.get("buckets"), list) and "count" in hist:
            if sum(hist["buckets"]) != hist["count"]:
                error(f"{path}: histograms.{name} bucket sum "
                      f"{sum(hist['buckets'])} != count {hist['count']}")
    if "phases" not in m or not isinstance(m["phases"], list):
        error(f"{path}: missing 'phases' array")
    else:
        # One aggregated record per phase name (obs::Phase), however many
        # runs the process served; `counters` holds the nonzero deltas.
        seen = set()
        for i, phase in enumerate(m["phases"]):
            for field in ("name", "calls", "seconds", "faults_delta",
                          "counters"):
                if field not in phase:
                    error(f"{path}: phases[{i}].{field} missing")
            name = phase.get("name")
            if name in seen:
                error(f"{path}: phases[{i}]: duplicate record for {name!r}")
            seen.add(name)
            if not isinstance(phase.get("calls"), int) or phase["calls"] < 1:
                error(f"{path}: phases[{i}].calls = {phase.get('calls')!r} "
                      "is not a positive integer")
            counters = phase.get("counters", {})
            if not isinstance(counters, dict):
                error(f"{path}: phases[{i}].counters is not an object")
                continue
            for key, value in counters.items():
                if key not in EXPECTED_COUNTERS:
                    error(f"{path}: phases[{i}].counters.{key} is not a "
                          "known counter")
                if not isinstance(value, int) or value < 0:
                    error(f"{path}: phases[{i}].counters.{key} = {value!r} "
                          "is not a non-negative integer")
    print(f"{path}: {len(m.get('counters', {}))} counters, "
          f"{len(m.get('phases', []))} phase records")


def check_trace(path):
    try:
        with open(path) as f:
            t = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        error(f"{path}: unreadable or invalid JSON: {e}")
        return
    events = t.get("traceEvents")
    if not isinstance(events, list):
        error(f"{path}: no 'traceEvents' array")
        return
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        error(f"{path}: no complete ('ph':'X') span events")
    for i, e in enumerate(spans):
        for field in ("name", "cat", "ts", "dur", "pid", "tid"):
            if field not in e:
                error(f"{path}: span[{i}] missing '{field}'")
    # Spans on one tid must nest or be disjoint (Perfetto renders them as
    # a stack; a partial overlap means broken span scoping).  Sorting by
    # (start, -end) puts a container before the spans it contains even
    # when they share a start timestamp; a sweep with a stack of open
    # spans then catches any span that outlives its enclosing one.
    by_tid = {}
    for e in spans:
        by_tid.setdefault(e.get("tid"), []).append(
            (e.get("ts", 0), e.get("ts", 0) + e.get("dur", 0),
             e.get("name")))
    overlaps = 0
    for tid, intervals in by_tid.items():
        intervals.sort(key=lambda iv: (iv[0], -iv[1]))
        stack = []
        for start, end, name in intervals:
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack and end > stack[-1][1]:
                if overlaps == 0:
                    error(f"{path}: tid {tid}: span '{name}' "
                          f"[{start},{end}] extends past enclosing "
                          f"'{stack[-1][2]}' [{stack[-1][0]},"
                          f"{stack[-1][1]}] (broken nesting)")
                overlaps += 1
            stack.append((start, end, name))
    print(f"{path}: {len(events)} events, {len(spans)} spans on "
          f"{len(by_tid)} threads")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    check_metrics(sys.argv[1])
    if len(sys.argv) == 3:
        check_trace(sys.argv[2])
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
