#!/usr/bin/env python3
"""Regenerates the reference records under perfbench/refs/.

    python3 perfbench/bless.py flow --workload flow_sa --seeds 3,6,9 [-j 3]
    python3 perfbench/bless.py serve --workload serve_small \
        --circuits s298,b01 --seeds 1-32 [-j 3]

Records are keyed "circuit/seed".  For a flow workload the listed seeds,
in order, become the pool that run.py maps workload seeds onto (workload
seed n runs pool[(n - 1) % len(pool)]).  For a service workload there is
a record for every pair of the listed circuits and seeds, computed by one
scanc-serve.  Every record holds the
program's result fields except the wall clock, so a blessed file is the
reviewed statement of what this commit computes.
"""

import argparse
import json
from concurrent.futures import ThreadPoolExecutor

import run
from benchlib import flatten, parse_record


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def write(workload, data):
    """Writes refs/<workload>.json: the field names once, then one line of
    values per record (run.load_refs reads it back into dicts)."""
    run.REFS.mkdir(exist_ok=True)
    path = run.REFS / f"{workload}.json"
    records = data.pop("records")
    fields = sorted({k for rec in records.values() for k in rec})
    data["fields"] = fields
    with open(path, "w") as f:
        f.write(json.dumps(data, sort_keys=True)[:-1] + ', "records": {\n')
        f.write(",\n".join(
            f"{json.dumps(key)}: {json.dumps([rec[k] for k in fields])}"
            for key, rec in sorted(records.items())))
        f.write("\n}}\n")
    print(f"wrote {path.relative_to(run.ROOT)}")


def bless_flow(args, harness):
    flows = run.FLOWS[args.workload]
    seeds = parse_seeds(args.seeds)
    cmds = [(s, f, run.flow_cmd(harness, f, s, False))
            for s in seeds for f in flows]
    with ThreadPoolExecutor(args.jobs) as pool:
        outs = list(pool.map(lambda c: run.run_json(c[2]), cmds))
    records = {}
    for (seed, flow, _), out in zip(cmds, outs):
        frames = dict(zip(out["counter_names"], out["counters"]))
        print(f"seed {seed} {flow['circuit']}: {out['wall_s']:.2f} s, "
              f"{frames['frames_simulated']} frames")
        records[f"{flow['circuit']}/{seed}"] = parse_record(out["record"])
    write(args.workload, {"seeds": seeds, "records": records})


def bless_serve(args, harness, serve_bin):
    circuits = args.circuits.split(",")
    seeds = parse_seeds(args.seeds)
    specs = [run.job_spec(f"ref-{c}-{s}", c, s)
             for c in circuits for s in seeds]
    daemon = run.Daemon(serve_bin, "bless", args.jobs)
    try:
        out = daemon.run_jobs(harness, specs, args.jobs)
    finally:
        daemon.stop()
    records = {}
    for job in out["jobs"]:
        spec = job["spec"]
        if job["state"] != "done":
            raise SystemExit(f"{job['id']} ended {job['state']}")
        result = flatten(job["result"])
        result.pop("seconds")
        records[f"{spec['circuit']}/{spec['seed']}"] = result
    per_circuit = {}
    for job in out["jobs"]:
        c = job["spec"]["circuit"]
        per_circuit.setdefault(c, []).append(job["result"]["seconds"])
    for c, secs in per_circuit.items():
        print(f"{c}: mean job run {1e3 * sum(secs) / len(secs):.0f} ms")
    write(args.workload, {"circuits": circuits, "seeds": seeds,
                          "records": records})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("kind", choices=("flow", "serve"))
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--circuits", default="")
    ap.add_argument("-j", "--jobs", type=int, default=3)
    args = ap.parse_args()
    harness, serve_bin = run.build()
    if args.kind == "flow":
        bless_flow(args, harness)
    else:
        bless_serve(args, harness, serve_bin)


if __name__ == "__main__":
    main()
