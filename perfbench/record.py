"""Record the expected report digest of every job the benchmark can run.

    python3 perfbench/record.py

Runs each job of every workload once, in this process.  A report that fails a semantic
check, a non-zero exit or an exception aborts the recording, so a wrong
answer or an engine error is never stored as expected output.  Writes
``perfbench/digests.json``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from worker import run_jobs  # noqa: E402


def all_jobs(inputs):
    os.makedirs(inputs, exist_ok=True)
    jobs = workloads.gldim_jobs(ROOT)
    for path in workloads.ring_files(ROOT):
        jobs += workloads.write_lattices(path, inputs)
    jobs += workloads.shipped_resolve_jobs(ROOT)
    return jobs + workloads.write_ladder(inputs)


def main():
    import endochain.cli

    jobs = all_jobs(os.path.join(ROOT, ".perfbench_work", "record-inputs"))
    _wall, _seconds, outputs = run_jobs(endochain.cli, jobs)
    digests = {}
    for job in jobs:
        rc, text, exc = outputs[job.id]
        if exc is None and rc == 0:
            digests[job.id] = workloads.digest(text)
    failures = workloads.check_pass(jobs, outputs, digests)
    if failures:
        for jid, why in sorted(failures.items()):
            print(f"{jid}: {why}", file=sys.stderr)
        print("not recorded: some jobs failed", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(digests, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
