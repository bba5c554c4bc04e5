"""One fresh interpreter of a benchmark run: set up, then optionally run one pass.

Started by ``run.py``; prints one JSON object as its last stdout line.  The
parent takes the moment this process was started and subtracts it from the
``ready`` time reported here (both on the system-wide monotonic clock), so
set-up time covers interpreter start, ``import endochain`` and input
generation.

Modes:
  setup   set up and stop.
  pass    set up, then run every job once through ``endochain.cli.main``.
  traced  as ``pass``, with the layer wrappers of ``tracer.py`` installed
          after set-up; writes the spans to ``--trace-out``.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_jobs(cli, jobs, tracer=None):
    """Run each job in order; returns (pass wall seconds, {id: seconds}, outputs)."""
    seconds = {}
    outputs = {}
    clock = time.perf_counter
    start_pass = clock()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        buf = io.StringIO()
        rc, exc = None, None
        start = clock()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(job.argv)
        except (Exception, SystemExit) as e:
            exc = "".join(traceback.format_exception_only(type(e), e)).strip()
        seconds[job.id] = clock() - start
        outputs[job.id] = (rc, buf.getvalue(), exc)
    return clock() - start_pass, seconds, outputs


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    p.add_argument("--inputs", required=True, help="directory for generated input files")
    p.add_argument("--digests", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import endochain.cli

    if args.smoke:
        jobs = workloads.smoke_job(args.workload, args.root, args.inputs)
    else:
        jobs = workloads.build_jobs(args.workload, args.root, args.seed, args.inputs)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode != "setup":
        with open(args.digests) as f:
            digests = json.load(f)
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install("endochain")
        wall, seconds, outputs = run_jobs(endochain.cli, jobs, tracer)
        if tracer is not None:
            tracer.uninstall()
            tracer.write_jsonl(args.trace_out)
            result["stats"] = {
                name: [st.calls, st.total, st.self, st.kept, st.rows, st.rank]
                for name, st in tracer.stats.items()
            }
            result["layers"] = tracer.layer_totals()
        failures = workloads.check_pass(jobs, outputs, digests)
        result["wall_s"] = wall
        result["jobs"] = [
            {"id": j.id, "field": j.field, "seconds": seconds[j.id], "failure": failures.get(j.id)}
            for j in jobs
        ]
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
