"""Compare benchmark result sets of a parent and a change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS [--benchmark BENCHMARK.json]

Each argument is a directory of run records written by ``run.py`` (by
default ``.perfbench_work/results/`` of each checkout).  Untraced records
are paired by workload and seed; the order in which the two sides of a
pair started is shown, so alternation can be checked.  For every workload
and end-to-end metric the table gives each side's median and quartiles,
the change's win rate over the pairs, and a verdict:

  regressed   change median worse than the parent's by more than the bound
  improved    at least 10 pairs, the change wins >= 9/10 of them (ties count
              for neither) and the medians differ by more than the parent's
              interquartile range, in the better direction
  unresolved  neither, and the parent's own spread (IQR / median) is wider
              than the bound, unless every change run beats every parent run
  unchanged   otherwise

Job latency (job_p50_s, job_tail_s) is listed too; it has no bound, so it
is only ever "improved" (by the same rule) or "ungated".
"""

import argparse
import glob
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
LATENCY = [{"name": n, "unit": "s", "better": "lower", "bound": None} for n in ("job_p50_s", "job_tail_s")]


def load(directory):
    """{(workload, seed): record} of the untraced records in ``directory``."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        prov = rec["provenance"]
        if prov["trace"] == 0:
            out[(rec["workload"], prov["seed"])] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    sign = 1 if better == "lower" else -1  # sign * (change - parent) < 0 is a gain
    p1, pm, p3 = quartiles(parent)
    _c1, cm, _c3 = quartiles(change)
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if bound is not None and sign * (cm - pm) > bound * abs(pm):
        return "regressed", wins
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and sign * (cm - pm) < -(p3 - p1):
        return "improved", wins
    if bound is None:
        return "ungated", wins
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def value(rec, name):
    if name in rec["metrics"]:
        return rec["metrics"][name]["value"]
    return rec["job_latency"][name]


def compare(parent_dir, change_dir, bench):
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        seeds = sorted(s for (w, s) in parent if w == workload and (w, s) in change)
        p_recs = [parent[(workload, s)] for s in seeds]
        c_recs = [change[(workload, s)] for s in seeds]
        if not seeds:
            continue
        first = sum(1 for a, b in zip(p_recs, c_recs) if a["provenance"]["started"] <= b["provenance"]["started"])
        for spec in bench["end_to_end"] + LATENCY:
            name = spec["name"]
            pv = [value(r, name) for r in p_recs]
            cv = [value(r, name) for r in c_recs]
            v, wins = verdict(pv, cv, list(zip(pv, cv)), spec["better"], spec["bound"])
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "parent_q": quartiles(pv),
                "change_q": quartiles(cv),
                "pairs": len(seeds),
                "wins": wins,
                "parent_first": first,
                "verdict": v,
            })
        for side, recs in (("parent", p_recs), ("change", c_recs)):
            attempted = sum(r["attempted"] for r in recs)
            failed = sum(r["failed"] for r in recs)
            rows.append({"workload": workload, "metric": f"failed_frac ({side})", "value": failed / attempted})
    return rows


def fmt(q):
    return "/".join(f"{x:.4g}" for x in q)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--benchmark", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark) as f:
        bench = json.load(f)
    for row in compare(args.parent, args.change, bench):
        if "value" in row:
            print(f"{row['workload']:18} {row['metric']:22} {row['value']:.4f}")
            continue
        print(
            f"{row['workload']:18} {row['metric']:12} [{row['unit']}] "
            f"parent q1/med/q3 {fmt(row['parent_q'])}  change {fmt(row['change_q'])}  "
            f"wins {row['wins']}/{row['pairs']} (parent first in {row['parent_first']})  {row['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
