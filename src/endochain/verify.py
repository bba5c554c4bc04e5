"""Invariant and property suites over the built-in ring corpus.

Each suite returns (name, passed, details); the CLI `verify` subcommand and
the acceptance tests share these.  All randomness is seeded and the sampled
objects are exact, so a (seed, suite) pair is fully reproducible.
"""

import random

from .field import QQ
from .series import LaurentPoly
from .curve_ring import build_ring, normalization_lattice, semigroup_ring
from .chain import build_chain_tree, chain_family, chain_json, end_of_maximal_ideal, normalization_check
from .lattice import (
    Lattice,
    LatticeMap,
    direct_sum,
    hom_lattice,
    kernel_lattice,
    scalar_extension_test,
    largest_submodule_over,
)
from .resolver import keyred_resolve
from .endo import build_endo_algebra, global_dimension, projectivization_check


CORPUS_SEMIGROUPS = [
    [1],
    [2, 3],
    [2, 5],
    [2, 7],
    [3, 4],
    [3, 5],
    [3, 4, 5],
    [4, 5, 6, 7],
]


def corpus(field=QQ, window_hint=None):
    """The acceptance corpus: 8 semigroup rings plus 4 multi-branch gluings."""
    t = LaurentPoly.monomial(field, 1)
    z = LaurentPoly.zero(field)
    out = []
    for gens in CORPUS_SEMIGROUPS:
        name = "<" + ",".join(map(str, gens)) + ">"
        out.append((name, semigroup_ring(field, gens, window_hint=window_hint)))
    out.append(
        ("node", build_ring(field, 2, [(t, z), (z, t)], window_hint=window_hint))
    )
    out.append(
        (
            "triple_point",
            build_ring(field, 3, [(t, z, z), (z, t, z), (z, z, t)], window_hint=window_hint),
        )
    )
    out.append(
        (
            "tacnode",
            build_ring(field, 2, [(t, t), (t * t, z)], window_hint=window_hint),
        )
    )
    out.append(
        (
            "cusp_line",
            build_ring(field, 2, [(t * t, z), (t * t * t, z), (z, t)], window_hint=window_hint),
        )
    )
    return out


def _random_ring_element(rng, ring, tries=50):
    """A random element of R, nonzero on every branch."""
    gens = ring.self_lattice.genset()
    amb = ring.self_lattice.ambient
    for _ in range(tries):
        acc = amb.zero_vec(ring.field)
        for g in gens:
            c = rng.randint(-2, 2)
            if c:
                acc = amb.add_vec(acc, amb.scale_vec(ring.field.coerce(c), g))
        if all(acc):
            return acc
    # fall back to the conductor monomial vector
    return tuple(LaurentPoly.monomial(ring.field, ring.mx(br)) for br in range(ring.branches))


def random_fractional_ideal(rng, ring, shift_range=2):
    """A random full rank-one R-lattice (a fractional ideal)."""
    x = _random_ring_element(rng, ring)
    y = _random_ring_element(rng, ring)
    amb = ring.self_lattice.ambient
    s = rng.randint(-shift_range, shift_range)
    gens = [tuple(p.shift(s) for p in x), tuple(p.shift(s) for p in y)]
    return Lattice.from_generators(ring, amb, gens)


def _relattice(lat, ring):
    """The same canonical lattice viewed over a different (over)ring."""
    return Lattice(ring, lat.ambient, lat.lo, lat.hi, lat.basis)


def random_stable_lattice(rng, overring, base_ring):
    """A random overring-stable rank-one lattice over the base ring."""
    # an S-lattice is an R-lattice for R <= S: the same canonical set
    return _relattice(random_fractional_ideal(rng, overring), base_ring)


def overrings_of(ring):
    """Full-support overrings reachable by iterating End(m), plus E."""
    out = []
    s = ring
    while s.is_local and not s.is_dvr_product():
        s = end_of_maximal_ideal(s)
        out.append(s)
        if not s.is_local:
            break
    amb = ring.self_lattice.ambient
    egens = [amb.unit_vec(ring.field, br, e) for br in range(ring.branches) for e in (0, 1)]
    e_ring = build_ring(ring.field, ring.branches, egens)
    if all(o.key() != e_ring.key() for o in out):
        out.append(e_ring)
    return out


def suite_lemma_hom_agreement(seed=0, cases=200, field=QQ):
    """Hom over R equals Hom over an overring S on S-stable lattices, and
    images of R-maps out of S-modules are S-stable."""
    rng = random.Random(seed)
    rings = [r for _, r in corpus(field)]
    done = 0
    failures = []
    while done < cases:
        ring = rings[done % len(rings)]
        if ring.is_dvr_product():
            ring = rings[(done + 1) % len(rings)]
        overs = overrings_of(ring)
        if not overs:
            done += 1
            continue
        s = overs[rng.randrange(len(overs))]
        c = random_stable_lattice(rng, s, ring)
        d = random_stable_lattice(rng, s, ring)
        h_over_r = hom_lattice(c, d)
        h_over_s = hom_lattice(_relattice(c, s), _relattice(d, s))
        if h_over_r.key() != h_over_s.key():
            failures.append(("hom", ring.conductor, s.conductor))
        # image stability: an R-linear map c -> K, image viewed as a lattice
        kappa = _random_ring_element(rng, ring)
        sh = rng.randint(-1, 1)
        kappa = tuple(p.shift(sh) for p in kappa)
        img_gens = [c.ambient.branch_scale(kappa, g) for g in c.genset()]
        img = Lattice.from_generators(ring, c.ambient, img_gens)
        if not scalar_extension_test(s, img):
            failures.append(("image", ring.conductor, s.conductor))
        done += 1
    return ("lemma_hom_agreement", not failures, {"cases": done, "failures": failures[:5]})


def suite_chain(field=QQ):
    failures = []
    for name, ring in corpus(field):
        tree = build_chain_tree(ring)
        if not normalization_check(tree):
            failures.append((name, "normalization"))
        for node in tree.nodes():
            for _, ch in node.children:
                if ch.ring.delta() >= node.ring.delta():
                    failures.append((name, "delta_not_decreasing"))
        if tree.n > ring.delta():
            failures.append((name, "n_exceeds_delta"))
        # determinism at doubled window
        ring2 = _rebuild_double(name, ring)
        tree2 = build_chain_tree(ring2)
        if chain_json(tree) != chain_json(tree2):
            failures.append((name, "window_determinism"))
    return ("chain_invariants", not failures, {"failures": failures})


def _rebuild_double(name, ring):
    for nm, r in corpus(ring.field, window_hint=2 * ring.window_bound):
        if nm == name:
            return r
    raise KeyError(name)


def generated_test_lattices(rng, ring, tree, count=5):
    """Ideals, shifted overring modules, and kernels of small maps."""
    out = []
    fam = chain_family(tree)
    out.append(("maximal_ideal", ring.maximal_ideal_lattice()))
    out.append(("random_ideal", random_fractional_ideal(rng, ring)))
    mem = fam.members[min(1, len(fam.members) - 1)]
    if mem.lattice.ambient.ranks == tuple([1] * ring.branches):
        s = rng.randint(0, 2)
        amb = mem.lattice.ambient
        gens = [
            tuple(p.shift(s) for p in g) for g in mem.lattice.genset()
        ]
        out.append(("shifted_overring", Lattice.from_generators(ring, amb, gens)))
    # kernel of a random map R^2 -> E-lattice
    f2, _ = direct_sum([ring.self_lattice, ring.self_lattice])
    e = normalization_lattice(ring)
    x1 = _random_ring_element(rng, ring)
    x2 = _random_ring_element(rng, ring)
    field = ring.field
    mats = []
    for br in range(ring.branches):
        mats.append([[x1[br], x2[br]]])
    fmap = LatticeMap(f2, e, mats)
    ker, _ = kernel_lattice(fmap)
    if not ker.is_zero():
        out.append(("kernel_lattice", ker))
    r1 = tree.root.r1
    if r1 is not None:
        out.append(
            ("largest_submodule", largest_submodule_over(r1, random_fractional_ideal(rng, ring)))
        )
    while len(out) < count:
        out.append((f"random_ideal_{len(out)}", random_fractional_ideal(rng, ring)))
    return out[:count]


def suite_resolver(seed=0, field=QQ, per_ring=5):
    rng = random.Random(seed)
    failures = []
    details = {}
    for name, ring in corpus(field):
        tree = build_chain_tree(ring)
        lats = generated_test_lattices(rng, ring, tree, count=per_ring)
        for kind, lat in lats:
            res = keyred_resolve(lat, tree=tree)
            if res.length() > tree.n:
                failures.append((name, kind, "length"))
            if not res.all_certified():
                failures.append((name, kind, "certificates"))
        details[name] = len(lats)
    return ("resolver_suite", not failures, {"failures": failures, "counts": details})


def suite_endo(field=QQ, pd_cap=16):
    failures = []
    rows = []
    for name, ring in corpus(field):
        tree = build_chain_tree(ring)
        fam = chain_family(tree)
        alg = build_endo_algebra(ring, fam.lattices(), fam.labels())
        rep = global_dimension(alg, cap=pd_cap, n=tree.n)
        rows.append((name, tree.n + 1, rep.multiplicity, rep.delta, rep.gldim))
        if rep.capped or rep.gldim > tree.n + 1:
            failures.append((name, "bound"))
        if not projectivization_check(alg):
            failures.append((name, "projectivization"))
    return ("endo_suite", not failures, {"failures": failures, "ledger": rows})


def run_suites(names=None, seed=0, cases=200, field=QQ, pd_cap=16):
    chosen = names or ["lemma", "chain", "resolver", "endo"]
    results = []
    if "lemma" in chosen:
        results.append(suite_lemma_hom_agreement(seed=seed, cases=cases, field=field))
    if "chain" in chosen:
        results.append(suite_chain(field=field))
    if "resolver" in chosen:
        results.append(suite_resolver(seed=seed, field=field))
    if "endo" in chosen:
        results.append(suite_endo(field=field, pd_cap=pd_cap))
    return results
