"""Command-line interface.

Subcommands: ring, chain, resolve, gldim, verify.  Exit status 0 on success,
1 with a machine-readable error object for engine errors, 2 for I/O or
schema problems.  --double-check recomputes every report at twice the root
ring's build window and insists on identical output.
"""

import argparse
import functools
import json
import os
import sys

from .errors import EndochainError, SchemaError
from .curve_ring import ring_report
from .chain import build_chain_tree, chain_family, chain_json
from .endo import build_endo_algebra, global_dimension, projectivization_check, fcmt_check
from .resolver import keyred_resolve
from . import ringio
from .verify import run_suites


def _emit(args, payload):
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{payload}")


_rings = {}  # (canonical definition JSON, window_hint) -> ring
_trees = {}  # id(ring) -> (ring, its chain tree)


def _load_ring(path, window_hint=None):
    """The ring defined at ``path``, built once per process and definition:
    keyed by content, so a file rewritten in place gives a fresh ring."""
    obj = ringio.load_json(path)
    key = (json.dumps(obj, sort_keys=True), window_hint)
    if key not in _rings:
        _rings[key] = ringio.ring_from_json(obj, window_hint=window_hint)
    return _rings[key]


def _tree(ring):
    """The chain tree of a loaded ring, built once per ring object.  Keyed
    by identity, the ring kept so its id is not reused: the doubled-window
    ring of --double-check is key()-equal to the first but gets its own."""
    if id(ring) not in _trees:
        _trees[id(ring)] = (ring, build_chain_tree(ring))
    return _trees[id(ring)][1]


def _double_checked(args, path, report, what):
    """report(ring) for the ring at ``path``; with --double-check, recompute
    at twice the build window and insist on the identical report."""
    ring = _load_ring(path)
    rep = report(ring)
    if args.double_check:
        if report(_load_ring(path, window_hint=2 * ring.window_bound)) != rep:
            raise EndochainError(f"double-check mismatch in {what}")
        rep["double_check"] = "ok"
    return rep


def _ring_json(ring):
    rep = ring_report(ring).as_json()
    rep["definition"] = ringio.ring_to_json(ring)
    return rep


def cmd_ring(args):
    return _double_checked(args, args.input, _ring_json, "ring report")


def cmd_chain(args):
    return _double_checked(
        args, args.input, lambda ring: chain_json(build_chain_tree(ring)), "chain report"
    )


def _resolution_json(res, tree):
    fam = chain_family(tree)
    label_of = {m.lattice.key(): m.label for m in fam.members}
    terms = []
    for t in res.terms:
        terms.append(
            {
                "ambient_rank": list(t.lattice.ambient.ranks),
                "decomposition": [label_of.get(tg.key(), "?") for tg in t.tags],
            }
        )
    return {
        "length": res.length(),
        "chain_depth": tree.n,
        "terms": terms,
        "maps": [m.render() for m in res.maps],
        "certificates": res.certificates,
        "family": [m.label for m in fam.members],
    }


def cmd_resolve(args):
    runs = []

    def report(ring):
        lat = ringio.lattice_from_json(ringio.load_json(args.module), ring)
        tree = _tree(ring)
        runs.append(keyred_resolve(lat, tree=tree))
        return _resolution_json(runs[-1], tree)

    rep = _double_checked(args, args.ring, report, "resolution report")
    if not runs[0].all_certified():
        raise EndochainError("resolution certificates failed", report=rep)
    return rep


def _gldim_payload(ring, args):
    tree = _tree(ring)
    fam = chain_family(tree)
    if args.mcm:
        mcm_defs = ringio.load_json(args.mcm)
        if not isinstance(mcm_defs, dict) or not isinstance(mcm_defs.get("modules"), list):
            raise SchemaError('module-list file must be an object with a "modules" list')
        lats = [ringio.lattice_from_json(obj, ring) for obj in mcm_defs["modules"]]
        rep = fcmt_check(ring, lats, cap=16 if args.pd_cap is None else args.pd_cap, n=tree.n)
    else:
        alg = build_endo_algebra(ring, fam.lattices(), fam.labels())
        # with no cap given, the proven bound n + 1 is the cap, so a pd past it raises
        cap = tree.n + 1 if args.pd_cap is None else args.pd_cap
        rep = global_dimension(alg, cap=cap, n=tree.n, bound=tree.n + 1)
        out = rep.as_json()
        out["projectivization_check"] = projectivization_check(alg)
        return out
    return rep.as_json()


def cmd_gldim(args):
    return _double_checked(args, args.ring, lambda ring: _gldim_payload(ring, args), "gldim report")


def cmd_verify(args):
    names = None if args.suite == "all" else args.suite.split(",")
    results = run_suites(names=names, seed=args.seed, cases=args.cases, pd_cap=16 if args.pd_cap is None else args.pd_cap)
    payload = {"seed": args.seed, "checks": []}
    ok = True
    for name, passed, details in results:
        payload["checks"].append({"name": name, "passed": passed, "details": details})
        ok = ok and passed
    payload["all_passed"] = ok
    return payload, 0 if ok else 1


@functools.lru_cache(maxsize=None)
def build_parser():
    """The parser, built once per process; ``main`` dispatches by command name."""
    p = argparse.ArgumentParser(
        prog="endochain",
        description="Exact chains of endomorphism rings, lattice resolutions, "
        "and global dimension of End(M)^op for curve singularities.",
    )
    p.add_argument("--output", choices=["text", "json"], default="json")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("ring", help="ring report (multiplicity, conductor, delta)")
    pr.add_argument("--input", required=True)
    pr.add_argument("--double-check", action="store_true")

    pc = sub.add_parser("chain", help="iterated endomorphism-ring tree")
    pc.add_argument("--input", required=True)
    pc.add_argument("--double-check", action="store_true")

    ps = sub.add_parser("resolve", help="resolve a torsion-free module by the chain family")
    ps.add_argument("--ring", required=True)
    ps.add_argument("--module", required=True)
    ps.add_argument("--double-check", action="store_true")

    pg = sub.add_parser("gldim", help="global dimension of End((+) E(R))^op")
    pg.add_argument("--ring", required=True)
    pg.add_argument("--mcm", help="module-list file for the finite-CM-type check")
    pg.add_argument("--pd-cap", type=int, default=None)
    pg.add_argument("--double-check", action="store_true")

    pv = sub.add_parser("verify", help="run the invariant suites on the corpus")
    pv.add_argument("--suite", default="all", help="all or comma list: lemma,chain,resolver,endo")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--cases", type=int, default=200)
    pv.add_argument("--pd-cap", type=int, default=None)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if hasattr(args, "pd_cap") and args.pd_cap is None and "ENDOCHAIN_PD_CAP" in os.environ:
        args.pd_cap = int(os.environ["ENDOCHAIN_PD_CAP"])
    try:
        out = globals()[f"cmd_{args.command}"](args)
        payload, status = out if isinstance(out, tuple) else (out, 0)
    except SchemaError as e:
        payload, status = e.as_json(), 2
    except EndochainError as e:
        payload, status = e.as_json(), 1
    except OSError as e:
        payload, status = {"code": "IOError", "message": str(e), "context": {}}, 2
    try:
        _emit(args, payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone, so no report can reach it; on devnull the
        # exit-time flush of what is left cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
