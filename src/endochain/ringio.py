"""JSON input/output: ring definitions, module definitions, reports.

Ring file:    {"field": {"kind": "rational"} | {"kind": "prime", "p": ...},
               "branches": b,
               "generators": [[[ [exp, "coeff"], ... ] per branch], ...]}
   shorthand: {"semigroup": [a1, ...], "field": ...?}
Module file:  {"ambient_rank": [r_i],
               "generators": [[[ [exp,"coeff"],...] per slot] per branch, ...],
               "tail": [[ints per slot] per branch]}   (tail optional)

Coefficients are decimal strings; rationals may be "p/q".  Exponents, ranks,
tails and semigroup entries are JSON integers; branches are positive and
ranks non-negative.  A module's tail is always
derived from its generators; a claimed tail below the derived one is a
SchemaError.
"""

import json

from .errors import SchemaError
from .field import field_from_json, json_int, QQ
from .series import LaurentPoly
from .curve_ring import build_ring, semigroup_ring
from .lattice import Ambient, Lattice


def poly_from_pairs(field, pairs):
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise SchemaError("polynomial must be a list of [exp, coeff] pairs")
    return LaurentPoly.from_pairs(field, [(json_int(e, "exponent"), c) for e, c in pairs])


def _int_list(obj, what):
    if not isinstance(obj, list):
        raise SchemaError(f"{what} must be a list of integers")
    return [json_int(x, what + " entry") for x in obj]


def ring_from_json(obj, window_hint=None):
    if not isinstance(obj, dict):
        raise SchemaError("ring definition must be an object")
    fld = field_from_json(obj["field"]) if "field" in obj else QQ
    if "semigroup" in obj:
        gens = _int_list(obj["semigroup"], "semigroup")
        return semigroup_ring(fld, gens, window_hint=window_hint)
    try:
        branches = json_int(obj["branches"], "branches")
        raw_gens = obj["generators"]
    except KeyError as e:
        raise SchemaError(f"ring definition missing {e}")
    if branches < 1:
        raise SchemaError("branches must be a positive integer", branches=branches)
    if not isinstance(raw_gens, list):
        raise SchemaError("ring generators must be a list")
    gens = []
    for g in raw_gens:
        if not isinstance(g, list) or len(g) != branches:
            raise SchemaError("each generator needs one entry per branch")
        gens.append(tuple(poly_from_pairs(fld, p) for p in g))
    return build_ring(fld, branches, gens, window_hint=window_hint)


def ring_to_json(ring):
    """Round-trippable definition: canonical window basis plus conductor
    monomials regenerate the identical canonical ring."""
    gens = []
    for v in ring.self_lattice.basis:
        gens.append([p.as_pairs() for p in v])
    for br in range(ring.branches):
        c = ring.conductor[br]
        for m in range(max(c, 1) + 1):
            entry = [[] for _ in range(ring.branches)]
            entry[br] = [[c + m, "1"]]
            gens.append(entry)
    return {
        "field": ring.field.as_json(),
        "branches": ring.branches,
        "generators": gens,
    }


def lattice_from_json(obj, ring):
    """The lattice generated by the module file's generators.  The tail is
    always derived; a claimed ``tail`` is only checked against it."""
    if not isinstance(obj, dict):
        raise SchemaError("module definition must be an object")
    try:
        ranks = _int_list(obj["ambient_rank"], "ambient_rank")
        raw = obj["generators"]
    except KeyError as e:
        raise SchemaError(f"module definition missing {e}")
    if len(ranks) != ring.branches:
        raise SchemaError("ambient_rank must list one rank per branch")
    if min(ranks) < 0:
        raise SchemaError("ambient_rank entries must be non-negative", ambient_rank=ranks)
    amb = Ambient(ranks)
    field = ring.field
    if not isinstance(raw, list):
        raise SchemaError("module generators must be a list")
    gens = []
    for vec in raw:
        if not isinstance(vec, list) or len(vec) != ring.branches:
            raise SchemaError("each generator needs one entry per branch")
        flat = []
        for br, slots in enumerate(vec):
            if not isinstance(slots, list) or len(slots) != ranks[br]:
                raise SchemaError("generator slot count mismatch")
            for p in slots:
                flat.append(poly_from_pairs(field, p))
        gens.append(tuple(flat))
    tail = obj.get("tail")
    if tail is not None:
        if not isinstance(tail, list) or [len(_int_list(slots, "tail")) for slots in tail] != ranks:
            raise SchemaError("tail shape mismatch")
    lat = Lattice.from_generators(ring, amb, gens)
    # a claimed tail t^h F[[t]] e lies in the lattice iff h >= the minimal tail
    for br, slots in enumerate(tail or ()):
        for s, h in enumerate(slots):
            derived = lat.hi[amb.coord(br, s)]
            if h < derived:
                raise SchemaError(
                    "claimed tail is not contained in the module",
                    branch=br,
                    slot=s,
                    claimed_tail=h,
                    derived_tail=derived,
                )
    return lat


def lattice_to_json(lat):
    amb = lat.ambient
    out_gens = []
    for g in lat.genset():
        vec = []
        for br in range(amb.nbranches()):
            vec.append([g[c].as_pairs() for c in amb.coords_of(br)])
        out_gens.append(vec)
    tail = []
    lo = []
    for br in range(amb.nbranches()):
        tail.append([lat.hi[c] for c in amb.coords_of(br)])
        lo.append([lat.lo[c] for c in amb.coords_of(br)])
    return {
        "ambient_rank": list(amb.ranks),
        "generators": out_gens,
        "tail": tail,
        "min_valuations": lo,
        "basis": [
            [
                [g[c].as_pairs() for c in amb.coords_of(br)]
                for br in range(amb.nbranches())
            ]
            for g in lat.basis
        ],
    }


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read JSON from {path}: {e}")
