"""endochain benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 -m pytest perfbench            # the benchmark's own smoke tests
    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/record.py            # re-record the expected digests

Run from the repository root.  Workloads, metrics, units and regression
bounds are listed in ``BENCHMARK.json``.

Every pass runs the workload's jobs one after another through
``endochain.cli.main`` in a fresh interpreter (``worker.py``), so nothing
cached in one pass reaches the next; children run one at a time.  With
``--trace 0`` the run makes three set-up-only children, then whole passes
while the next one still fits in ``--seconds`` (at least one), and reports
the end-to-end metrics:

  wall_s       median wall time of a pass (all reports of the workload)
  setup_s      median of fresh interpreter -> import -> inputs ready
  peak_rss_mb  largest peak resident memory of a pass

It also reports job latency, which ``BENCHMARK.json`` does not gate: with
13 or 28 jobs a run, these order statistics moved between runs of the same
code by more than the largest bound the benchmark may set.

  job_p50_s    median job time over every successful job of the run
  job_tail_s   highest job-time percentile with at least 10 jobs above it

With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of ``BENCHMARK.json``.  A per-layer name is
``<wrapped callable>.<stat>`` (stat: calls, self_s, total_s, kept_ratio,
rows_offered, rank_out, useful_ratio), ``<layer>.<calls|self_s>`` for a
layer total, ``field.<qq|gfp>.wall_s`` for the untraced job time per
coefficient field, or ``trace.<wall_s|overhead_s>`` for the traced pass
and its cost over the untraced one.

Every report is checked against its recorded digest and semantic checks
(``workloads.py``).  A failed, mismatched or crashed job counts in
``failed`` and is left out of the job-time metrics.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; a fuller record with
provenance goes to ``.perfbench_work/results/`` for ``compare.py``.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_ONLY_CHILDREN = 3
RUN_BUDGET_S = 170  # every run must end within 180 s
MIN_TAIL_BEYOND = 10

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STAT_UNITS = {
    "calls": "count",
    "rows_offered": "count",
    "rank_out": "count",
    "self_s": "s",
    "total_s": "s",
    "wall_s": "s",
    "overhead_s": "s",
    "kept_ratio": "ratio",
    "useful_ratio": "ratio",
}
# Metric names that shorten a wrapped method's qualified name.
ALIASES = {"resolver.certify": "resolver.Resolution.certify"}


class RunError(Exception):
    pass


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def child(workload, seed, mode, inputs, digests, deadline, smoke, trace_out=None):
    """Run one worker interpreter; returns (start, its JSON result)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--inputs", inputs, "--digests", digests,
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    timeout = deadline - start
    if timeout <= 0:
        raise RunError("run time budget exhausted")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} child exceeded the run time budget")
    if proc.returncode != 0:
        raise RunError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def job_tail(times):
    """(value, percentile, samples above it) for the highest percentile with
    at least MIN_TAIL_BEYOND samples above it (the minimum if too few)."""
    xs = sorted(times)
    k = max(0, len(xs) - 1 - MIN_TAIL_BEYOND)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def end_to_end(passes, setups):
    times = [j["seconds"] for p in passes for j in p["jobs"] if j["failure"] is None]
    if not times:
        times = [0.0]  # nothing to time; the run reports correct: false
    tail, pct, beyond = job_tail(times)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0,
    }
    latency = {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "tail_percentile": pct,
        "jobs": len(times),
        "above_tail": beyond,
    }
    return metrics, latency


def per_layer(name, traced, untraced):
    """The value of one per-layer metric named as in the module docstring."""
    head, stat = name.rsplit(".", 1)
    if head == "trace":
        return {"wall_s": traced["wall_s"], "overhead_s": traced["wall_s"] - untraced["wall_s"]}[stat]
    if head.startswith("field."):
        kind = head.split(".", 1)[1]
        return sum((j["seconds"] for j in untraced["jobs"] if j["field"] == kind), 0.0)
    if head in traced["layers"]:
        calls, self_s = traced["layers"][head]
        return {"calls": calls, "self_s": self_s}[stat]
    calls, total, self_s, kept, rows, rank = traced["stats"][ALIASES.get(head, head)]
    return {
        "calls": calls,
        "self_s": self_s,
        "total_s": total,
        "kept_ratio": kept / calls if calls else 0.0,
        "rows_offered": rows,
        "rank_out": rank,
        "useful_ratio": rank / rows if rows else 0.0,
    }[stat]


def metric_unit(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    return STAT_UNITS[name.rsplit(".", 1)[1]]


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "endochain")
    for fn in sorted(os.listdir(src)):
        if fn.endswith(".py"):
            with open(os.path.join(src, fn), "rb") as f:
                h.update(fn.encode() + b"\0" + f.read())
    return h.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance(args, passes, started):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "passes": passes,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
    }


def run(args, bench, inputs):
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    deadline = time.monotonic() + RUN_BUDGET_S
    digests = args.digests or os.path.join(HERE, "digests.json")

    def go(mode, trace_out=None):
        start, res = child(args.workload, args.seed, mode, inputs, digests, deadline, args.smoke, trace_out)
        setups.append(res["ready"] - start)
        return res

    setups = []
    passes = []
    latency = None
    if args.trace:
        untraced = go("pass")
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        trace_out = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        traced = go("traced", trace_out)
        passes = [untraced, traced]
        names = [m["name"] for m in bench["per_layer"]]
        values = {n: per_layer(n, traced, untraced) for n in names}
        notes = [f"spans written to {os.path.relpath(trace_out, ROOT)}"]
    else:
        for _ in range(SETUP_ONLY_CHILDREN):
            go("setup")
        start = time.monotonic()
        while True:
            passes.append(go("pass"))
            elapsed = time.monotonic() - start
            if args.smoke or elapsed + elapsed / len(passes) > args.seconds:
                break
        names = [m["name"] for m in bench["end_to_end"]]
        e2e, latency = end_to_end(passes, setups)
        values = {n: e2e[n] for n in names}
        notes = [
            "job_p50_s {job_p50_s:.6f} s, job_tail_s {job_tail_s:.6f} s = p{tail_percentile:.1f} "
            "of {jobs} successful jobs ({above_tail} above it)".format(**latency)
        ]
    jobs = [j for p in passes for j in p["jobs"]]
    failures = {j["id"]: j["failure"] for j in jobs if j["failure"] is not None}
    metrics = {n: {"value": values[n], "unit": metric_unit(n)} for n in names}
    record = {
        "workload": args.workload,
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if j["failure"] is not None),
        "metrics": metrics,
        "job_latency": latency,
        "job_seconds": [[j["id"], j["seconds"]] for j in jobs if j["failure"] is None],
        "failures": failures,
        "provenance": provenance(args, len(passes), started),
        "notes": notes,
    }
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description="endochain benchmark (see module docstring)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one small job per pass, one pass")
    p.add_argument("--digests", help="expected digests file (default: perfbench/digests.json)")
    p.add_argument("--out", default=os.path.join(WORK, "results"), help="directory for the run record")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "endochain", "cli.py")):
        print("perfbench: no endochain sources under src/; run from a repository checkout", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    inputs = os.path.join(WORK, "inputs", f"{args.workload}-{args.seed}")
    try:
        record = run(args, bench, inputs)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    os.makedirs(args.out, exist_ok=True)
    prov = record["provenance"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(args.out, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for jid, why in sorted(record["failures"].items()):
        print(f"FAILED {jid}: {why}")
    for note in record["notes"]:
        print(note)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
