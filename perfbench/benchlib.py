"""Pure logic of the benchmark: statistics, spans, layer metrics, records.

Nothing here starts a process or touches a file; run.py and steady.py do
that and call into this module.  test_benchlib.py covers it.
"""

import math
import statistics

# ---------------------------------------------------------------------
# Percentiles.

# Percentiles a latency report may use, highest first.
PERCENTILE_LADDER = (0.99, 0.95, 0.9, 0.75, 0.5)


def nearest_rank(values, p):
    """The p-quantile (0 < p <= 1) by the nearest-rank rule."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def tail_count(n, p):
    """Samples strictly above the nearest-rank p-quantile of n samples."""
    return n - max(1, math.ceil(p * n))


def highest_percentile(n, min_tail=10):
    """The highest ladder percentile with at least `min_tail` samples
    beyond it, or None when even the median has fewer."""
    for p in PERCENTILE_LADDER:
        if tail_count(n, p) >= min_tail:
            return p
    return None


def hist_quantile(buckets, q):
    """The q-quantile of a log2 nanosecond histogram.

    Bucket i counts samples in [2^i, 2^(i+1)) ns (bucket 0 also holds 0);
    the result interpolates linearly inside the bucket that holds the
    rank.  Returns 0.0 for an empty histogram.
    """
    total = sum(buckets)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for i, count in enumerate(buckets):
        if count and seen + count >= rank:
            lo = 0.0 if i == 0 else float(2 ** i)
            hi = float(2 ** (i + 1))
            return lo + (rank - seen) / count * (hi - lo)
        seen += count
    return float(2 ** len(buckets))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


# ---------------------------------------------------------------------
# Spans from progress boundaries.

# run_circuit's progress notes open spans at three depths: runner stages
# (1), pipeline phases (2) and Phase 1/2 steps inside "phases 1+2" (3).
# A note the table does not know nests one level below the open span.
STAGE_NOTES = {
    "building circuit": "expt.build",
    "generating combinational test set C": "atpg.comb",
    "resolving transition-fault universe (SAT)": "atpg.tdf_universe",
    "generating T0 (greedy)": "tgen.greedy",
    "pipeline (greedy T0)": "tcomp.pipeline_greedy",
    "pipeline (random T0)": "tcomp.pipeline_random",
    "baseline [4]": "tcomp.baseline4",
    "baseline [2,3]-style dynamic": "tcomp.dynamic",
}
PHASE_NOTES = {
    "phases 1+2 (iterated)": "tcomp.iterate",
    "phase 3 (top-off)": "tcomp.topoff",
    "phase 4 (combining)": "tcomp.combine",
}
STEP_NOTES = {
    "phase 1 (scan-in / scan-out selection)": "tcomp.phase1",
    "phase 2 (vector omission)": "tcomp.phase2",
}


def classify_note(note):
    """(span name, depth) for a progress note; depth None = unknown."""
    for depth, table in ((1, STAGE_NOTES), (2, PHASE_NOTES), (3, STEP_NOTES)):
        if note in table:
            return table[note], depth
    return note, None


def vector_delta(after, before):
    return [a - b for a, b in zip(after, before)]


def build_spans(boundaries):
    """Spans from boundary records.

    `boundaries` is the ordered list the harness prints: the first opens
    the root span, every later record closes the spans at its depth and
    deeper and opens its own, and the last (empty note) closes them all.
    Each record holds "t" (seconds), "note", cumulative "counters" (list)
    and "query_hist" ({"sum_ns", "buckets"}).  Each span gets the delta of
    the counters and of the query histogram over its interval.
    """
    first, last = boundaries[0], boundaries[-1]
    spans = []

    def open_span(name, depth, parent, rec):
        spans.append({"name": name, "depth": depth, "parent": parent,
                      "start": rec["t"], "end": None, "_open": rec})
        return len(spans) - 1

    def close_span(index, rec):
        span = spans[index]
        begin = span.pop("_open")
        span["end"] = rec["t"]
        span["counters"] = vector_delta(rec["counters"], begin["counters"])
        span["query_ns"] = (rec["query_hist"]["sum_ns"]
                            - begin["query_hist"]["sum_ns"])
        span["query_buckets"] = vector_delta(rec["query_hist"]["buckets"],
                                             begin["query_hist"]["buckets"])

    stack = [open_span(first["note"] or "flow", 0, None, first)]
    for rec in boundaries[1:-1]:
        name, depth = classify_note(rec["note"])
        if depth is None:
            depth = spans[stack[-1]]["depth"] + 1
        while spans[stack[-1]]["depth"] >= depth:
            close_span(stack.pop(), rec)
        stack.append(open_span(name, depth, stack[-1], rec))
    while stack:
        close_span(stack.pop(), last)
    return spans


def interval_union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_seconds(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


# ---------------------------------------------------------------------
# Per-layer metrics.  Each entry: name, unit, better.  Every workload
# reports every one; a layer a workload does not reach reads 0.

PER_LAYER = [
    ("atpg.comb_s", "s", "lower"),
    ("atpg.sat_solve_calls", "count", "lower"),
    ("atpg.sat_conflicts", "count", "lower"),
    ("atpg.sat_proofs", "count", "lower"),
    ("atpg.sat_fallbacks", "count", "lower"),
    ("tgen.greedy_s", "s", "lower"),
    ("tcomp.iterate_s", "s", "lower"),
    ("tcomp.topoff_s", "s", "lower"),
    ("tcomp.combine_s", "s", "lower"),
    ("tcomp.baseline4_s", "s", "lower"),
    ("tcomp.dynamic_s", "s", "lower"),
    ("tcomp.iterate_rounds", "count", "lower"),
    ("fault.queries", "count", "lower"),
    ("fault.query_s", "s", "lower"),
    ("fault.query_p50_us", "us", "lower"),
    ("fault.query_p99_us", "us", "lower"),
    ("fault.groups", "count", "lower"),
    ("fault.full_passes", "count", "lower"),
    ("fault.cone_passes", "count", "lower"),
    ("fault.cone_share", "ratio", "higher"),
    ("fault.wide_fp_passes", "count", "higher"),
    ("fault.ppsfp_batches", "count", "lower"),
    ("fault.ppsfp_tests_per_batch", "tests/batch", "higher"),
    ("fault.tdf_activations", "count", "lower"),
    ("sim.frames", "count", "lower"),
    ("sim.frames_skipped", "count", "higher"),
    ("sim.ns_per_frame", "ns", "lower"),
    ("sim.trace_hits", "count", "higher"),
    ("sim.trace_misses", "count", "lower"),
    ("sim.trace_evictions", "count", "lower"),
    ("sim.trace_hit_ratio", "ratio", "higher"),
    ("expt.unattributed_s", "s", "lower"),
    ("expt.trace_overhead_frac", "ratio", "lower"),
    ("svc.submit_rtt_ms", "ms", "lower"),
    ("svc.job_run_ms", "ms", "lower"),
    ("svc.overhead_ms", "ms", "lower"),
    ("svc.registry_circuit_hits", "count", "higher"),
    ("svc.registry_sim_reuses", "count", "higher"),
    ("svc.sim_reuse_ratio", "ratio", "higher"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0


# Telemetry counters (obs::counter_name) the layer metrics read.
COUNTERS_READ = (
    "atpg_sat_solve_calls", "atpg_sat_conflicts", "atpg_sat_proofs",
    "atpg_sat_fallbacks", "iterate_rounds", "queries_run", "groups_executed",
    "full_passes", "cone_passes", "wide_fp_passes", "ppsfp_batches",
    "ppsfp_tests_packed", "tdf_activations", "frames_simulated",
    "frames_skipped", "trace_cache_hits", "trace_cache_misses",
    "trace_cache_evictions",
)


def counter_metrics(c, query_ns, query_buckets):
    """fault.*, sim.* and counter-only atpg/tcomp metrics.

    `c` maps counter name -> delta over the measured interval.
    """
    frames = c["frames_simulated"]
    cone, full = c["cone_passes"], c["full_passes"]
    hits, misses = c["trace_cache_hits"], c["trace_cache_misses"]
    return {
        "atpg.sat_solve_calls": c["atpg_sat_solve_calls"],
        "atpg.sat_conflicts": c["atpg_sat_conflicts"],
        "atpg.sat_proofs": c["atpg_sat_proofs"],
        "atpg.sat_fallbacks": c["atpg_sat_fallbacks"],
        "tcomp.iterate_rounds": c["iterate_rounds"],
        "fault.queries": c["queries_run"],
        "fault.query_s": query_ns / 1e9,
        "fault.query_p50_us": hist_quantile(query_buckets, 0.50) / 1e3,
        "fault.query_p99_us": hist_quantile(query_buckets, 0.99) / 1e3,
        "fault.groups": c["groups_executed"],
        "fault.full_passes": full,
        "fault.cone_passes": cone,
        "fault.cone_share": _ratio(cone, cone + full),
        "fault.wide_fp_passes": c["wide_fp_passes"],
        "fault.ppsfp_batches": c["ppsfp_batches"],
        "fault.ppsfp_tests_per_batch": _ratio(c["ppsfp_tests_packed"],
                                              c["ppsfp_batches"]),
        "fault.tdf_activations": c["tdf_activations"],
        "sim.frames": frames,
        "sim.frames_skipped": c["frames_skipped"],
        "sim.ns_per_frame": _ratio(query_ns, frames),
        "sim.trace_hits": hits,
        "sim.trace_misses": misses,
        "sim.trace_evictions": c["trace_cache_evictions"],
        "sim.trace_hit_ratio": _ratio(hits, hits + misses),
    }


# Layer time metrics and the span each one sums.  Phase 4's span runs to
# the end of its pipeline, so it also holds the final coverage
# simulation, which has no progress note of its own.
SPAN_METRICS = {
    "atpg.comb_s": "atpg.comb",
    "tgen.greedy_s": "tgen.greedy",
    "tcomp.iterate_s": "tcomp.iterate",
    "tcomp.topoff_s": "tcomp.topoff",
    "tcomp.combine_s": "tcomp.combine",
    "tcomp.baseline4_s": "tcomp.baseline4",
    "tcomp.dynamic_s": "tcomp.dynamic",
}


def unattributed(spans):
    """Root duration not covered by any depth-1 (stage) span."""
    root = spans[0]
    stages = [(s["start"], s["end"]) for s in spans if s["depth"] == 1]
    return (root["end"] - root["start"]) - interval_union(stages)


def flows_layer_metrics(spans_per_flow, counter_names):
    """Layer metrics of a pass of traced flows, from their spans: counter
    deltas and query histograms add up over the flows' root spans before
    ratios and quantiles are taken."""
    roots = [spans[0] for spans in spans_per_flow]
    counters = [sum(col) for col in zip(*(r["counters"] for r in roots))]
    buckets = [sum(col) for col in zip(*(r["query_buckets"] for r in roots))]
    out = counter_metrics(dict(zip(counter_names, counters)),
                          sum(r["query_ns"] for r in roots), buckets)
    for metric, span in SPAN_METRICS.items():
        out[metric] = sum(span_seconds(s, span) for s in spans_per_flow)
    out["expt.unattributed_s"] = sum(unattributed(s) for s in spans_per_flow)
    return out


def serve_layer_metrics(jobs, wall, stats_before, stats_after,
                        daemon_metrics):
    """Layer metrics of one traced service pass.

    `jobs` are the harness's per-job records (times relative to the pass
    start), `stats_*` the daemon's op:"stats" replies around the pass, and
    `daemon_metrics` its --metrics-out snapshot at exit (daemon lifetime:
    warm-up plus the pass).
    """
    c = daemon_metrics["counters"]
    hist = daemon_metrics["histograms"]["query_ns"]
    out = counter_metrics(c, hist["sum"], hist["buckets"])
    done = [j for j in jobs if j["state"] == "done"]
    latency = [j["terminal"] - j["submitted"] for j in done]
    run = [j["result"]["seconds"] for j in done]
    before, after = stats_before["counters"], stats_after["counters"]
    delta = {k: after[k] - before[k] for k in after}
    out.update({
        "svc.submit_rtt_ms": statistics.median(
            j["acked"] - j["submitted"] for j in jobs) * 1e3,
        "svc.job_run_ms": statistics.median(run) * 1e3,
        "svc.overhead_ms": statistics.median(
            lat - r for lat, r in zip(latency, run)) * 1e3,
        "svc.registry_circuit_hits": delta["registry_circuit_hits"],
        "svc.registry_sim_reuses": delta["registry_sim_reuses"],
        "svc.sim_reuse_ratio": _ratio(delta["registry_sim_reuses"],
                                      delta["jobs_started"]),
        "expt.unattributed_s": wall - interval_union(
            (j["submitted"], j["terminal"]) for j in jobs),
    })
    return out


def job_trace(jobs):
    """Chrome trace-event records for a service pass: per job a span from
    submit to terminal state on its connection's track, with the submit
    round trip and the wait as children."""
    events = []
    for j in jobs:
        common = {"ph": "X", "pid": 1, "tid": j["conn"]}
        parts = [(j["id"], j["submitted"], j["terminal"]),
                 ("submit", j["submitted"], j["acked"]),
                 ("wait", j["acked"], j["terminal"])]
        for name, start, end in parts:
            events.append(dict(common, name=name, ts=start * 1e6,
                               dur=(end - start) * 1e6,
                               args={"state": j["state"]}))
    return events


def chrome_trace(spans, tid, counter_names):
    """Chrome trace-event 'X' records for spans (times in microseconds)."""
    events = []
    for s in spans:
        args = {n: v for n, v in zip(counter_names, s["counters"]) if v}
        args["query_ns"] = s["query_ns"]
        events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": tid,
                       "ts": s["start"] * 1e6,
                       "dur": (s["end"] - s["start"]) * 1e6, "args": args})
    return events


# ---------------------------------------------------------------------
# Reference records.

# CircuitRun fields that are not results: the wall clock and the cache
# format version.
RECORD_IGNORED = ("seconds", "version")


def parse_record(text):
    """expt::serialize_run text -> {field: value string}, results only."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key not in RECORD_IGNORED:
            out[key] = value
    return out


def flatten(obj, prefix=""):
    """Nested JSON object -> {"a.b": value} (the service result shape)."""
    out = {}
    for key, value in obj.items():
        name = prefix + key
        if isinstance(value, dict):
            out.update(flatten(value, name + "."))
        else:
            out[name] = value
    return out


def record_mismatches(expected, actual, ignored=RECORD_IGNORED):
    """Field names whose values differ, are missing, or are unexpected."""
    keys = (set(expected) | set(actual)) - set(ignored)
    return sorted(k for k in keys if expected.get(k) != actual.get(k))
