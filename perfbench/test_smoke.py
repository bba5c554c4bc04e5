"""Smoke tests of the benchmark harness: python3 -m pytest perfbench"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def smoke(workload, trace, out, *extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--out", str(out), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    proc = smoke(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in specs} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_digest_counts_as_failed(tmp_path):
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    digests["gldim/semigroup_2_3"] = "0" * 64
    bad = tmp_path / "digests.json"
    bad.write_text(json.dumps(digests))
    proc = smoke("gldim_corpus", 0, tmp_path, "--digests", str(bad))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "digest differs" in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("gldim_corpus", 0, tmp_path / "out", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_semigroup_invariants_by_enumeration():
    assert workloads.semigroup_invariants((4, 7)) == {"multiplicity": 4, "delta": 9, "conductor": 18}
    assert workloads.semigroup_invariants((1,)) == {"multiplicity": 1, "delta": 0, "conductor": 0}
    assert workloads.semigroup_invariants((3, 4, 5)) == {"multiplicity": 3, "delta": 2, "conductor": 3}
    with pytest.raises(ValueError):
        workloads.semigroup_invariants((2, 4))


def test_job_tail_leaves_ten_samples_above():
    value, pct, beyond = run.job_tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.job_tail([3.0, 1.0]) == (1.0, 50.0, 1)


def test_compare_verdicts():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.2 for p in parent]
    assert compare.verdict(parent, faster, list(zip(parent, faster)), "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, list(zip(parent, slower)), "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, parent, list(zip(parent, parent)), "lower", 0.1)[0] == "unchanged"
    noisy = [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0, 1.0, 2.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, slower, list(zip(parent, slower)), "lower", None)[0] == "ungated"


def test_self_times_partition_the_root_span(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import endochain.cli

    original = endochain.cli.build_chain_tree
    tracer = Tracer()
    tracer.install("endochain")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = endochain.cli.main(["gldim", "--ring", os.path.join(ROOT, "data", "rings", "semigroup_2_3.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert endochain.cli.build_chain_tree is original
    root = tracer.stats["cli.main"]
    assert root.calls == 1
    assert sum(st.self for st in tracer.stats.values()) == pytest.approx(root.total, abs=1e-6)
    assert tracer.stats["chain.build_chain_tree"].calls == 1
    assert tracer.stats["linalg.Echelon.add"].calls > 0
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
