#!/usr/bin/env python3
"""The repository benchmark: the paper's whole flow and the service.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  The first run configures and builds the
harness and scanc-serve (Release) into $CARGO_TARGET_DIR, or .bench_build
when it is unset.  Workloads, metrics and their meaning are in
perfbench/README.md.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs the same work once untraced and once traced, checks that both give
the same records, writes the spans as Chrome trace-event JSON under
.bench_out/, and reports the per-layer metrics.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFS = HERE / "refs"

# Per-process cap: a harness or daemon step that hangs is killed well
# inside the run's 180 s budget.
STEP_TIMEOUT_S = 150

# Flow workloads: one harness process per flow, run in this order.
FLOWS = {
    "flow_sa": [{"circuit": "s1423"}],
    "flow_atpg": [{"circuit": "s1488", "atpg": "auto"},
                  {"circuit": "s820", "atpg": "auto"}],
    "flow_tdf": [{"circuit": "s1423", "model": "transition"}],
}
WORKLOADS = list(FLOWS) + ["serve_small"]

# serve_small: two executors and two closed-loop client connections.  A
# pass is 2 jobs on every reference circuit, 4 on b10, in a seeded order.
# A run makes passes of fresh job seeds until --seconds, at least 5 of
# them (120 latency samples: 12 beyond the 90th percentile), and reports
# the median pass: a few seconds of host contention slow one pass, not the
# result.
SERVE_EXECUTORS = 2
SERVE_CONNECTIONS = 2
SERVE_JOBS_PER_CIRCUIT = 2
# b10 has the longest jobs.  With an equal share for every circuit the
# 90th percentile of latency sits on the boundary between b10's latencies
# and s526's, and jumps with the job seeds drawn; a double share puts it
# inside b10's.
SERVE_JOBS_ON = {"b10": 4}
SERVE_MIN_PASSES = 5

# A flow's set-up time varies more between processes than within one
# (some processes build in 0.43 ms, others in 0.70 ms), so it is timed in
# many short processes: the median over processes of each one's median
# build.
FLOW_SETUP_PROCS = 21
FLOW_SETUP_REPS = 11
SERVE_SETUP_REPS = 3     # daemon spawn + warm-up rounds (median reported)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build.

def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the harness and scanc-serve."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: repository sources not found next to "
                         "perfbench/; run from a full checkout")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                    "perfbench_harness", "scanc-serve"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return bdir / "perfbench_harness", bdir / "scancompact/src/svc/scanc-serve"


def run_json(cmd):
    """Runs a harness command and parses its one-line JSON output."""
    proc = subprocess.run([str(c) for c in cmd], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, timeout=STEP_TIMEOUT_S,
                          text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# On a shared host each CPU is slowed by contention in episodes of its own,
# and a thread that stays on one CPU inherits that CPU's episode for its
# whole run.  Moving the busy threads (a flow, the daemon's executors)
# round-robin over the CPUs every ROTATE_S makes every run see the same mix.
ROTATE_S = 0.25


def run_json_rotated(cmd):
    """run_json for a single-threaded command, rotated over the CPUs."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT) as out, \
            subprocess.Popen([str(c) for c in cmd], cwd=ROOT,
                             stdout=out) as proc:
        rotator = CpuRotator(proc.pid, 1)
        try:
            proc.wait(timeout=STEP_TIMEOUT_S)
        finally:
            rotator.stop()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        out.seek(0)
        return json.loads(out.read().strip().splitlines()[-1])


class CpuRotator:
    """Moves every thread of a running process round-robin over the CPUs,
    `width` CPUs at a time (one per busy thread), every ROTATE_S."""

    def __init__(self, pid, width):
        self.pid, self.width = pid, width
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        cpus = sorted(os.sched_getaffinity(0))
        turn = 0
        while not self.done.is_set():
            cpuset = {cpus[(turn + k) % len(cpus)] for k in range(self.width)}
            try:
                tids = os.listdir(f"/proc/{self.pid}/task")
            except FileNotFoundError:
                return  # the process has exited
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), cpuset)
                except ProcessLookupError:
                    pass  # the thread exited after listdir()
            turn += 1
            self.done.wait(ROTATE_S)

    def stop(self):
        self.done.set()
        self.thread.join()


def load_refs(workload):
    """refs/<workload>.json with its records as {"circuit/seed": {field:
    value}} (see bless.py)."""
    with open(REFS / f"{workload}.json") as f:
        refs = json.load(f)
    fields = refs.pop("fields")
    refs["records"] = {key: dict(zip(fields, values))
                       for key, values in refs["records"].items()}
    return refs


def timed_passes(run_pass, seconds, min_passes=1):
    """Runs passes until the next one would end after `seconds` (at
    least `min_passes`)."""
    results, start = [], time.monotonic()
    while True:
        results.append(run_pass(len(results)))
        elapsed = time.monotonic() - start
        if (len(results) >= min_passes
                and elapsed + elapsed / len(results) > seconds):
            return results


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, what, reasons):
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(reasons)}")

    def check(self, what, ok):
        """A whole-run condition: false makes the run incorrect without
        counting an operation."""
        if not ok:
            self.problems.append(what)


# ---------------------------------------------------------------------
# Flow workloads.

def flow_seed(refs, seed):
    """The workload seed picks one of the seeds with reference records."""
    pool = refs["seeds"]
    return pool[(seed - 1) % len(pool)]


def flow_cmd(harness, flow, seed, trace):
    return [harness, "flow", f"--circuit={flow['circuit']}", f"--seed={seed}",
            f"--atpg={flow.get('atpg', 'podem')}",
            f"--model={flow.get('model', 'stuck')}", f"--trace={int(trace)}"]


def flow_setup_s(harness, flow):
    """Median over FLOW_SETUP_PROCS processes of their median build."""
    cmd = [harness, "setup", f"--circuit={flow['circuit']}",
           f"--model={flow.get('model', 'stuck')}",
           f"--reps={FLOW_SETUP_REPS}"]
    return statistics.median(statistics.median(run_json(cmd)["setup_s"])
                             for _ in range(FLOW_SETUP_PROCS))


def flow_problems(flow, out, expected):
    """Why one flow's output is wrong (empty when it is right)."""
    record = benchlib.parse_record(out["record"])
    counters = dict(zip(out["counter_names"], out["counters"]))
    reasons = []
    if record.get("completed") != "1":
        reasons.append("did not complete")
    if flow.get("atpg") == "auto" and record.get("aborted") != "0":
        reasons.append(f"aborted={record.get('aborted')} under auto")
    if counters["queries_run"] == 0:
        reasons.append("no fault-simulation queries (served from a cache?)")
    if expected is None:
        reasons.append("no reference record")
    else:
        diff = benchlib.record_mismatches(expected, record)
        if diff:
            reasons.append("differs from reference in " + ", ".join(diff))
    return reasons


def run_flow_pass(harness, workload, seed, refs, tally, trace):
    outs = []
    for flow in FLOWS[workload]:
        out = run_json_rotated(flow_cmd(harness, flow, seed, trace))
        expected = refs["records"].get(f"{flow['circuit']}/{seed}")
        tally.op(f"{flow['circuit']} seed {seed}"
                 f"{' traced' if trace else ''}",
                 flow_problems(flow, out, expected))
        outs.append(out)
    return outs


def flow_end_to_end(workload, seed, seconds, harness, tally):
    refs = load_refs(workload)
    fseed = flow_seed(refs, seed)
    setups = []

    def run_pass(_):
        setups.append(sum(flow_setup_s(harness, f) for f in FLOWS[workload]))
        return run_flow_pass(harness, workload, fseed, refs, tally, False)

    passes = timed_passes(run_pass, seconds)
    walls = [sum(o["wall_s"] for o in p) for p in passes]
    flow_walls = [o["wall_s"] for p in passes for o in p]
    log(f"{workload}: flow seed {fseed}, {len(passes)} pass(es), "
        f"{len(flow_walls)} flow(s)")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(o["maxrss_kb"] for p in passes for o in p) / 1024,
        "jobs_per_s": statistics.median(len(p) / w
                                        for p, w in zip(passes, walls)),
        "latency_p50_ms": statistics.median(flow_walls) * 1e3,
        "latency_p90_ms": benchlib.nearest_rank(flow_walls, 0.9) * 1e3,
    }, len(flow_walls)


def write_trace(workload, seed, events):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    log(f"{workload}: trace written to {path.relative_to(ROOT)}")


def flow_per_layer(workload, seed, harness, tally):
    refs = load_refs(workload)
    fseed = flow_seed(refs, seed)
    plain = run_flow_pass(harness, workload, fseed, refs, tally, False)
    traced = run_flow_pass(harness, workload, fseed, refs, tally, True)
    names = traced[0]["counter_names"]
    spans_per_flow, events = [], []
    for tid, (p, t) in enumerate(zip(plain, traced)):
        tally.check(f"{t['circuit']}: traced record differs from untraced",
                    benchlib.parse_record(p["record"])
                    == benchlib.parse_record(t["record"]))
        spans = benchlib.build_spans(t["events"])
        spans_per_flow.append(spans)
        events += benchlib.chrome_trace(spans, tid, names)
    write_trace(workload, seed, events)
    metrics = benchlib.flows_layer_metrics(spans_per_flow, names)
    wall_plain = sum(o["wall_s"] for o in plain)
    wall_traced = sum(o["wall_s"] for o in traced)
    metrics["expt.trace_overhead_frac"] = wall_traced / wall_plain - 1
    tally.check(f"expt.unattributed_s {metrics['expt.unattributed_s']:.4f} s"
                f" is not below 2% of wall {wall_traced:.2f} s",
                metrics["expt.unattributed_s"] < 0.02 * wall_traced)
    return metrics


# ---------------------------------------------------------------------
# Service workload.

def job_spec(job_id, circuit, seed):
    return {"id": job_id, "kind": "suite", "circuit": circuit, "seed": seed}


def pass_jobs(refs, seed, index, tag):
    """Pass `index` of a workload seed: SERVE_JOBS_PER_CIRCUIT jobs on
    every circuit (SERVE_JOBS_ON where it says otherwise), in a seeded
    order.  Each circuit's job seeds are a seeded permutation of the
    reference seeds, taken in turn pass after pass."""
    rng = random.Random(seed)
    perms = {c: rng.sample(refs["seeds"], len(refs["seeds"]))
             for c in refs["circuits"]}
    specs = []
    for c in refs["circuits"]:
        jobs = SERVE_JOBS_ON.get(c, SERVE_JOBS_PER_CIRCUIT)
        for k in range(jobs):
            n = index * jobs + k
            specs.append(job_spec(f"{tag}{index}-{c}-{k}", c,
                                  perms[c][n % len(perms[c])]))
    random.Random(f"{seed}/{index}").shuffle(specs)
    return specs


def warmup_list(refs, tag):
    return [job_spec(f"{tag}-{c}", c, refs["seeds"][0])
            for c in refs["circuits"]]


def job_problems(job, refs):
    if job["state"] != "done":
        return [f"ended {job['state']}: {job.get('error', '')}"]
    spec = job["spec"]
    expected = refs["records"].get(f"{spec['circuit']}/{spec['seed']}")
    if expected is None:
        return ["no reference record"]
    diff = benchlib.record_mismatches(expected,
                                      benchlib.flatten(job["result"]))
    return ["differs from reference in " + ", ".join(diff)] if diff else []


class Daemon:
    """One scanc-serve with a fresh state directory under .bench_out.

    The daemon's watchdog cancels a healthy job now and then: it reads
    `now` before taking its lock and compares `now - progress stamp`
    unsigned, so a stamp written in between wraps around and reads as a
    stall.  No job here has a deadline, so its first check is put an hour
    away, and the daemon is stopped with SIGKILL because a drain would wait
    out that sleep.  A daemon that must write --metrics-out (written on a
    clean exit) checks every 10 s instead and drains on SIGTERM.
    """

    def __init__(self, serve_bin, tag, executors, metrics_out=None):
        self.dir = OUT / f"serve-{os.getpid()}-{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        # Relative to ROOT (the cwd of every process): AF_UNIX paths are
        # short, checkout paths need not be.
        self.socket = os.path.relpath(self.dir / "sock", ROOT)
        cmd = [str(serve_bin), f"--socket={self.socket}",
               f"--state-dir={os.path.relpath(self.dir / 'state', ROOT)}",
               f"--executors={executors}", "--quiet",
               f"--deadline-check-seconds={10 if metrics_out else 3600}"]
        if metrics_out:
            cmd.append(f"--metrics-out={metrics_out}")
        self.drain = metrics_out is not None
        self.log = open(self.dir / "daemon.log", "w")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.rotator = CpuRotator(self.proc.pid, executors)
        self.maxrss_kb = 0

    def run_jobs(self, harness, specs, connections):
        path = self.dir / f"jobs-{specs[0]['id']}.json"
        with open(path, "w") as f:
            json.dump(specs, f)
        out = run_json([harness, "serve", f"--socket={self.socket}",
                        f"--jobs={os.path.relpath(path, ROOT)}",
                        f"--connections={connections}"])
        for job, spec in zip(out["jobs"], specs):
            job["spec"] = spec
        return out

    def stop(self):
        """Ends the daemon and keeps its peak RSS."""
        self.rotator.stop()
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM if self.drain
                                      else signal.SIGKILL)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                    if pid:
                        self.proc.returncode = \
                            os.waitstatus_to_exitcode(status)
                        self.maxrss_kb = usage.ru_maxrss
                        break
                    time.sleep(0.01)
        finally:
            self.kill()

    def kill(self):
        self.rotator.stop()
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def serve_setup(serve_bin, harness, refs, tally, tag, metrics_out=None):
    """Spawn -> first ping -> warm-up jobs done; returns (daemon, s)."""
    start = time.monotonic()
    daemon = Daemon(serve_bin, tag, SERVE_EXECUTORS, metrics_out)
    try:
        out = daemon.run_jobs(harness, warmup_list(refs, tag),
                              SERVE_CONNECTIONS)
    except BaseException:
        daemon.kill()
        raise
    elapsed = time.monotonic() - start
    for job in out["jobs"]:
        tally.op(f"warm-up {job['id']}", job_problems(job, refs))
    return daemon, elapsed


def serve_pass(daemon, harness, refs, specs, tally):
    out = daemon.run_jobs(harness, specs, SERVE_CONNECTIONS)
    for job in out["jobs"]:
        tally.op(f"job {job['id']} ({job['spec']['circuit']} seed "
                 f"{job['spec']['seed']})", job_problems(job, refs))
    return out


def serve_end_to_end(workload, seed, seconds, harness, serve_bin, tally):
    refs = load_refs(workload)
    setups, daemon = [], None
    try:
        for rep in range(SERVE_SETUP_REPS):
            if daemon is not None:
                daemon.stop()
            daemon, elapsed = serve_setup(serve_bin, harness, refs, tally,
                                          f"w{rep}")
            setups.append(elapsed)
        passes = timed_passes(
            lambda i: serve_pass(daemon, harness, refs,
                                 pass_jobs(refs, seed, i, "p"), tally),
            seconds, SERVE_MIN_PASSES)
    finally:
        if daemon is not None:
            daemon.stop()
    latencies = [(j["terminal"] - j["submitted"]) * 1e3
                 for p in passes for j in p["jobs"] if j["state"] == "done"]
    n, top = len(latencies), benchlib.highest_percentile(len(latencies))
    if top is not None:
        log(f"{workload}: {len(passes)} pass(es), {n} latency samples; "
            f"highest percentile with 10 beyond it: p{100 * top:g} = "
            f"{benchlib.nearest_rank(latencies, top):.1f} ms")
    tally.check(f"only {n} latency samples: p90 needs 10 beyond it",
                top is not None and top >= 0.9)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": daemon.maxrss_kb / 1024,
        "jobs_per_s": statistics.median(
            sum(j["state"] == "done" for j in p["jobs"]) / p["wall_s"]
            for p in passes),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": benchlib.nearest_rank(latencies, 0.9),
    }, n


def serve_per_layer(workload, seed, harness, serve_bin, tally):
    refs = load_refs(workload)
    walls, traced = [], None
    metrics_path = OUT / f"serve-{os.getpid()}-metrics.json"
    for traced_pass in (False, True):
        daemon = None
        try:
            daemon, _ = serve_setup(
                serve_bin, harness, refs, tally, f"t{int(traced_pass)}",
                os.path.relpath(metrics_path, ROOT) if traced_pass else None)
            specs = [job for i in range(SERVE_MIN_PASSES)
                     for job in pass_jobs(refs, seed, i,
                                          f"t{int(traced_pass)}p")]
            out = serve_pass(daemon, harness, refs, specs, tally)
        finally:
            if daemon is not None:
                daemon.stop()
        walls.append(out["wall_s"])
        traced = out
    with open(metrics_path) as f:
        daemon_metrics = json.load(f)
    metrics_path.unlink()
    jobs = traced["jobs"]
    write_trace(workload, seed, benchlib.job_trace(jobs))
    metrics = benchlib.serve_layer_metrics(
        jobs, traced["wall_s"], traced["stats_before"], traced["stats_after"],
        daemon_metrics)
    metrics["expt.trace_overhead_frac"] = walls[1] / walls[0] - 1
    return metrics


# ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    harness, serve_bin = build()
    tally = Tally()
    w = args.workload
    if args.trace:
        if w in FLOWS:
            values = flow_per_layer(w, args.seed, harness, tally)
        else:
            values = serve_per_layer(w, args.seed, harness, serve_bin, tally)
        for name, _, _ in benchlib.PER_LAYER:
            values.setdefault(name, 0)
        units = benchlib.PER_LAYER_UNITS
    else:
        if w in FLOWS:
            values, samples = flow_end_to_end(w, args.seed, args.seconds,
                                              harness, tally)
        else:
            values, samples = serve_end_to_end(w, args.seed, args.seconds,
                                               harness, serve_bin, tally)
        units = END_TO_END
        print(f"latency samples: {samples}")

    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:14.6g} {unit}")
    print(f"failed_frac {tally.failed / max(1, tally.attempted):.6g} "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()},
    }))


if __name__ == "__main__":
    main()
