"""Benchmark workloads: seeded job lists and the checks every report must pass.

A job is one ``endochain`` CLI call.  Its canonical report (the CLI prints
sorted, indented JSON) must hash to the digest recorded in
``digests.json`` and pass semantic checks that do not trust the engine.

The seed fixes the job order.  The lattices of ``resolve_lattices`` come
from one fixed seeded draw per ring, not from the run's seed: how long
resolving takes depends strongly on the lattice (on <3,5> one draw of 10
took 2.4 s, another 5.8 s), so a seed-chosen draw would make a pass's work,
and its wall time, differ from seed to seed.
"""

import hashlib
import json
import os
import random

WORKLOADS = ("gldim_corpus", "resolve_lattices", "chain_ladder")

# The 12-ring acceptance corpus plus A_8 = <2,9>; listed so that a ring
# added to data/rings later does not change the workloads.
RINGS = (
    "cusp_line", "node", "semigroup_1", "semigroup_2_3", "semigroup_2_5",
    "semigroup_2_7", "semigroup_2_9", "semigroup_3_4", "semigroup_3_4_5",
    "semigroup_3_5", "semigroup_4_5_6_7", "tacnode", "triple_point",
)
LATTICES_PER_RING = 10
SHIPPED_MODULES = (("j_over_3_4", "semigroup_3_4"), ("m_over_2_5", "semigroup_2_5"))

# <6,11> and <7,11> would extend the ladder past delta 16, but building them
# raises NoFiniteConductor (the fixed build window cap), so they are left out.
LADDER = ((4, 7), (5, 6), (5, 7), (5, 8), (6, 7), (4, 9), (5, 9))
FIELDS = (("qq", {"kind": "rational"}), ("gf32003", {"kind": "prime", "p": 32003}))

GLDIM_FIXTURES = {(1,): 1, (2, 3): 2, (3, 4): 3, (3, 5): 3}


class Job:
    """One CLI call; ``field`` is "qq" or "gfp", the kind of coefficients."""

    __slots__ = ("id", "argv", "field", "semigroup")

    def __init__(self, id, argv, field="qq", semigroup=None):
        self.id = id
        self.argv = argv
        self.field = field
        self.semigroup = semigroup


def ring_files(root):
    return [os.path.join(root, "data", "rings", name + ".json") for name in RINGS]


def _stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def _semigroup(path):
    with open(path) as f:
        sg = json.load(f).get("semigroup")
    return tuple(sg) if sg else None


def gldim_jobs(root):
    return [
        Job(f"gldim/{_stem(p)}", ["gldim", "--ring", p], semigroup=_semigroup(p))
        for p in ring_files(root)
    ]


def write_lattices(ring_path, outdir):
    """Write the 10 lattices of one ring as module files; returns the jobs."""
    from endochain import ringio
    from endochain.chain import build_chain_tree
    from endochain.verify import generated_test_lattices

    stem = _stem(ring_path)
    ring = ringio.ring_from_json(ringio.load_json(ring_path))
    tree = build_chain_tree(ring)
    rng = random.Random(f"{stem}/0")  # the draw digests.json was recorded from
    jobs = []
    lats = generated_test_lattices(rng, ring, tree, count=LATTICES_PER_RING)
    for i, (_kind, lat) in enumerate(lats):
        path = os.path.join(outdir, f"{stem}-{i}.json")
        with open(path, "w") as f:
            json.dump(ringio.lattice_to_json(lat), f)
        jobs.append(Job(f"resolve/{stem}/{i}", ["resolve", "--ring", ring_path, "--module", path]))
    return jobs


def shipped_resolve_jobs(root):
    jobs = []
    for module, ring in SHIPPED_MODULES:
        ring_path = os.path.join(root, "data", "rings", ring + ".json")
        module_path = os.path.join(root, "data", "modules", module + ".json")
        jobs.append(Job(f"resolve/shipped/{module}", ["resolve", "--ring", ring_path, "--module", module_path]))
    return jobs


def write_ladder(outdir):
    """Write the chain-ladder ring files; returns the ring and chain jobs."""
    jobs = []
    for sg in LADDER:
        name = "_".join(map(str, sg))
        for tag, field in FIELDS:
            kind = "qq" if field["kind"] == "rational" else "gfp"
            path = os.path.join(outdir, f"semigroup_{name}-{tag}.json")
            with open(path, "w") as f:
                json.dump({"field": field, "semigroup": list(sg)}, f)
            for cmd in ("ring", "chain"):
                jobs.append(Job(f"{cmd}/{name}/{tag}", [cmd, "--input", path], field=kind, semigroup=sg))
    return jobs


def build_jobs(workload, root, seed, outdir):
    """The seeded job list of one pass, with its input files written."""
    rng = random.Random(seed)
    os.makedirs(outdir, exist_ok=True)
    if workload == "gldim_corpus":
        jobs = gldim_jobs(root)
    elif workload == "resolve_lattices":
        jobs = []
        for path in ring_files(root):
            jobs += write_lattices(path, outdir)
        jobs += shipped_resolve_jobs(root)
    elif workload == "chain_ladder":
        jobs = write_ladder(outdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def smoke_job(workload, root, outdir):
    """One small job of the workload, for the smoke test."""
    os.makedirs(outdir, exist_ok=True)
    if workload == "gldim_corpus":
        return [j for j in gldim_jobs(root) if j.id == "gldim/semigroup_2_3"]
    if workload == "resolve_lattices":
        return [j for j in shipped_resolve_jobs(root) if j.id == "resolve/shipped/m_over_2_5"]
    return [j for j in write_ladder(outdir) if j.id == "ring/4_7/gf32003"]


# -- checks -----------------------------------------------------------------


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def semigroup_invariants(gens):
    """Multiplicity, delta (#gaps) and conductor (Frobenius + 1) of the
    numerical semigroup generated by ``gens``, by plain enumeration."""
    m = min(gens)
    limit = m * max(gens) + m
    member = [False] * limit
    member[0] = True
    for n in range(1, limit):
        member[n] = any(n >= g and member[n - g] for g in gens)
    if not all(member[limit - m :]):
        raise ValueError(f"semigroup {gens} has gcd > 1")
    gaps = [n for n in range(limit) if not member[n]]
    return {"multiplicity": m, "delta": len(gaps), "conductor": (max(gaps) + 1) if gaps else 0}


def _all_true(cert):
    if isinstance(cert, dict):
        return all(_all_true(v) for v in cert.values())
    if isinstance(cert, list):
        return all(_all_true(v) for v in cert)
    return cert is True


def semantic_errors(job, report):
    """Reasons the report is wrong, checked without trusting the engine."""
    cmd = job.argv[0]
    errs = []
    if cmd == "gldim":
        if report.get("capped") is not False:
            errs.append("gldim capped")
        if report.get("projectivization_check") is not True:
            errs.append("projectivization_check false")
        sg = job.semigroup
        want = GLDIM_FIXTURES.get(sg)
        if sg and len(sg) == 2 and sg[0] == 2 and sg[1] % 2 == 1:
            want = 2  # A_2g = <2, 2g+1>
        if want is not None and report.get("gldim") != want:
            errs.append(f"gldim {report.get('gldim')} != {want}")
    elif cmd == "resolve":
        if not report.get("certificates") or not _all_true(report["certificates"]):
            errs.append("a certificate is not true")
        if not report.get("length", 1 << 30) <= report.get("chain_depth", -1):
            errs.append("length exceeds chain depth")
    elif cmd == "ring":
        inv = semigroup_invariants(job.semigroup)
        if report.get("multiplicity") != inv["multiplicity"]:
            errs.append("multiplicity != min generator")
        if report.get("delta") != inv["delta"]:
            errs.append("delta != number of gaps")
        if report.get("conductor") != [inv["conductor"]]:
            errs.append("conductor != Frobenius + 1")
    elif cmd == "chain":
        if report.get("delta") != semigroup_invariants(job.semigroup)["delta"]:
            errs.append("delta != number of gaps")
    return errs


def cross_field_errors(jobs, reports):
    """QQ and GF(p) must agree on chain depth and delta: {job id: reason}."""
    by_key = {}
    for job in jobs:
        if job.id in reports and job.argv[0] in ("ring", "chain"):
            rep = reports[job.id]
            by_key.setdefault((job.argv[0], job.semigroup), {})[job.id] = (rep.get("n"), rep.get("delta"))
    out = {}
    for group in by_key.values():
        if len(group) > 1 and len(set(group.values())) > 1:
            for jid in group:
                out[jid] = "QQ and GF(p) disagree on chain depth or delta"
    return out


def check_pass(jobs, outputs, digests):
    """Return {job id: failure reason} for one pass.

    ``outputs`` maps job id to (exit code, stdout text, exception or None).
    """
    failures = {}
    reports = {}
    for job in jobs:
        if job.id not in outputs:
            continue
        rc, text, exc = outputs[job.id]
        if exc is not None:
            failures[job.id] = f"exception: {exc}"
            continue
        if rc != 0:
            failures[job.id] = f"exit code {rc}"
            continue
        if digests.get(job.id) != digest(text):
            failures[job.id] = "report digest differs from the recorded one"
            continue
        try:
            report = json.loads(text)
        except ValueError:
            failures[job.id] = "report is not JSON"
            continue
        errs = semantic_errors(job, report)
        if errs:
            failures[job.id] = "; ".join(errs)
        reports[job.id] = report
    for jid, why in cross_field_errors(jobs, reports).items():
        failures.setdefault(jid, why)
    return failures
