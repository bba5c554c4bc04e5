import functools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from endochain import ringio
from endochain.chain import build_chain_tree, chain_family, end_of_maximal_ideal
from endochain.field import QQ, FieldSpec
from endochain.series import INF, LaurentPoly
from endochain.curve_ring import CurveRing, build_ring, maximal_ideal, semigroup_ring, normalization_lattice
from endochain.linalg import Echelon, nullspace_F
from endochain.lattice import (
    Ambient,
    Lattice,
    LatticeMap,
    Module,
    _leading_shape,
    direct_sum,
    dvr_triangularize,
    free_decomposition_over_dvr_product,
    hom_ambient,
    hom_element_as_map,
    hom_induced_map,
    hom_lattice,
    hom_precompose,
    is_exact_at,
    is_surjective_onto,
    isomorphism,
    kernel_lattice,
    kernel_window_module,
    largest_submodule_over,
    minimal_generators,
    nakayama_covers,
    overring_scalars,
    placed_sum,
    raw_span,
    scalar_extension_test,
    solve_constrained_window,
    valuation_floor,
    WindowSpace,
    _close,
    _operator,
    _row_map,
    _scalar_map,
    _span_image,
)
from endochain.verify import generated_test_lattices, random_fractional_ideal
from endochain.errors import ClaimViolation, NotAnOverring, NotASubmodule, NotDvrProduct, NotFullRank
from oracle import sg_values, colon_values, ideal_values, sg_conductor, closure_maximal_ideal, composite, flatten, hom_apply, image_lattice, quotient_dimension, reference_dvr_triangularize, reference_solve


T = LaurentPoly.monomial(QQ, 1)
Z = LaurentPoly.zero(QQ)


def mono_lattice(ring, exps):
    amb = ring.self_lattice.ambient
    gens = [amb.unit_vec(QQ, 0, e) for e in exps]
    return Lattice.from_generators(ring, amb, gens)


def value_set(lat, bound):
    """Value set of a single-branch rank-one lattice (oracle comparison)."""
    vals = set()
    for v in lat.basis:
        vals.add(v[0].valuation())
    vals |= set(range(lat.hi[0], bound))
    # close under the ring values: basis vectors are single monomials for
    # monomial lattices, so this is exact for those
    return vals


def test_membership_examples():
    r = semigroup_ring(QQ, [2, 3])
    m = r.maximal_ideal_lattice()
    amb = m.ambient
    assert m.member(amb.unit_vec(QQ, 0, 4))  # t^4 = t^2 t^2
    assert not r.self_lattice.member(amb.unit_vec(QQ, 0, 1))  # gap
    assert m.member(amb.zero_vec(QQ))


def test_hom_evaluation_at_one():
    r = semigroup_ring(QQ, [2, 3])
    m = r.maximal_ideal_lattice()
    h = hom_lattice(r.self_lattice, m)
    assert h == m


@pytest.mark.parametrize(
    "gens,ideal,expected_end",
    [
        ([2, 3], [2, 3], [1]),  # End(m) over the cusp is F[[t]]
        ([3, 4], [3, 4], [3, 4, 5]),  # End(m) over <3,4> is <3,4,5>
        ([2, 5], [2, 5], [2, 3]),
        ([2, 7], [2, 7], [2, 5]),
        ([3, 5], [3, 5], [3, 5, 7]),
    ],
)
def test_hom_endomorphism_rings_against_colon_oracle(gens, ideal, expected_end):
    r = semigroup_ring(QQ, gens)
    m = mono_lattice(r, ideal)
    e = hom_lattice(m, m)
    big = 4 * sg_conductor(gens) + 4 * max(gens) + 8
    cap = 2 * sg_conductor(gens) + 4
    sgv = sg_values(gens, big)
    ivals = ideal_values(sgv, ideal, big)
    expect = colon_values(ivals, ivals, cap, big, lo=0)
    got = value_set(e, cap)
    assert got == expect
    # and equals the expected semigroup ring
    s = semigroup_ring(QQ, expected_end)
    assert e == s.self_lattice or value_set(e, 12) == sg_values(expected_end, 12)


def test_hom_conductor_colon():
    # Hom(E, R) = (R : E) = conductor ideal
    r = semigroup_ring(QQ, [2, 3])
    e = normalization_lattice(r)
    h = hom_lattice(e, r.self_lattice)
    assert h.lo == (2,) and h.hi == (2,) and h.basis == ()


def test_kernel_symmetric_difference():
    r = semigroup_ring(QQ, [2, 3])
    f2, _ = direct_sum([r.self_lattice, r.self_lattice])
    t2 = LaurentPoly.monomial(QQ, 2)
    f = LatticeMap(f2, r.self_lattice, [[[t2, -t2]]])
    k, emb = kernel_lattice(f)
    assert k.ambient.ranks == (1,)
    assert k == r.self_lattice  # diagonal is a copy of R
    # embedding sends the generator to (1, 1)
    img = emb.apply(k.ambient.unit_vec(QQ, 0, 0))
    assert img[0] == LaurentPoly.one(QQ) and img[1] == LaurentPoly.one(QQ)


def test_kernel_of_injective_map_is_zero():
    r = semigroup_ring(QQ, [1])
    f = LatticeMap(r.self_lattice, r.self_lattice, [[[T]]])
    k, _ = kernel_lattice(f)
    assert k.is_zero()


def test_kernel_saturated():
    # (a, b) -> t a + t b on R^2 over F[[t]]: kernel is the full antidiagonal
    r = semigroup_ring(QQ, [1])
    f2, _ = direct_sum([r.self_lattice, r.self_lattice])
    f = LatticeMap(f2, r.self_lattice, [[[T, T]]])
    k, emb = kernel_lattice(f)
    assert k.ambient.ranks == (1,)
    assert k.hi == (0,)  # a full copy of F[[t]], not t*F[[t]]


def test_image_is_overring_stable():
    # image of an R-map out of an S-module is S-stable (Lemma on homs)
    r = semigroup_ring(QQ, [2, 5])
    s = semigroup_ring(QQ, [2, 3])
    c = r.maximal_ideal_lattice()  # m = t^2 * <2,3>-module, S-stable
    assert scalar_extension_test(s, c)
    kappa = (LaurentPoly.from_pairs(QQ, [(0, 1), (2, 3)]),)
    gens = [c.ambient.branch_scale(kappa, g) for g in c.genset()]
    img = Lattice.from_generators(r, c.ambient, gens)
    assert scalar_extension_test(s, img)


def test_idem_vec_is_the_indicator_idempotent():
    # e_T is 1 on the coordinates of T's branches and 0 elsewhere: an
    # idempotent of K, orthogonal to e_T' for disjoint T', with 1 = e_all
    one, zero = LaurentPoly.one(QQ), LaurentPoly.zero(QQ)
    amb = Ambient([1, 1])
    e0, e1 = amb.idem_vec(QQ, {0}), amb.idem_vec(QQ, {1})
    assert e1 == (zero, one)
    assert amb.branch_scale(e1, e1) == e1
    assert amb.vec_is_zero(amb.branch_scale(e0, e1))
    assert amb.add_vec(e0, e1) == amb.idem_vec(QQ, range(2)) == (one, one)
    assert Ambient([2, 1]).idem_vec(QQ, {0}) == (one, one, zero)


def test_sum_and_direct_sum():
    r = semigroup_ring(QQ, [2, 3])
    ds, injs = direct_sum([r.self_lattice, normalization_lattice(r)])
    assert ds.ambient.ranks == (2,)
    gens = minimal_generators(ds)
    assert len(gens) == 3  # 1 generator for R, two (1, t) for E
    t2f = mono_lattice(r, [2, 3])  # t^2 F[[t]]
    t3f = mono_lattice(r, [3, 4])  # t^3 F[[t]]
    assert all(t2f.member(g) for g in t3f.genset())


def test_scalar_extension_spec_examples():
    r25 = semigroup_ring(QQ, [2, 5])
    s23 = semigroup_ring(QQ, [2, 3])
    ft = semigroup_ring(QQ, [1])
    m = r25.maximal_ideal_lattice()
    assert scalar_extension_test(s23, m)
    r23 = semigroup_ring(QQ, [2, 3])
    assert not scalar_extension_test(ft, r23.self_lattice)
    assert scalar_extension_test(r23, r23.self_lattice)


def test_largest_submodule_spec_examples():
    # over <3,4,5>, N = <1, t>-module, S = F[[t]]: largest = t^3 F[[t]]
    r345 = semigroup_ring(QQ, [3, 4, 5])
    ft = semigroup_ring(QQ, [1])
    amb = r345.self_lattice.ambient
    n = Lattice.from_generators(
        r345, amb, [amb.unit_vec(QQ, 0, 0), amb.unit_vec(QQ, 0, 1)]
    )
    big = largest_submodule_over(ft, n)
    assert big.lo == (3,) and big.hi == (3,) and big.basis == ()
    # already stable: unchanged
    again = largest_submodule_over(r345, n)
    assert again == n
    # (R : E) over the cusp
    r23 = semigroup_ring(QQ, [2, 3])
    cond = largest_submodule_over(ft, r23.self_lattice)
    assert cond.lo == (2,) and cond.hi == (2,)


def test_largest_submodule_is_maximal_among_stable():
    rng = random.Random(11)
    r = semigroup_ring(QQ, [2, 5])
    s = semigroup_ring(QQ, [2, 3])
    from endochain.verify import random_fractional_ideal

    for _ in range(6):
        n = random_fractional_ideal(rng, r)
        big = largest_submodule_over(s, n)
        assert scalar_extension_test(s, big)
        assert all(n.member(g) for g in big.genset())
        # no stable sublattice strictly between: adding any missing window
        # monomial of n breaks stability or stays inside big
        equal = big == n
        assert equal == scalar_extension_test(s, n)


def test_quotient_dimensions():
    r = semigroup_ring(QQ, [2, 3])
    e = normalization_lattice(r)
    assert quotient_dimension(e, r.self_lattice) == 1
    assert quotient_dimension(e, e) == 0
    r345 = semigroup_ring(QQ, [3, 4, 5])
    amb = r345.self_lattice.ambient
    j = Lattice.from_generators(r345, amb, [amb.unit_vec(QQ, 0, 0), amb.unit_vec(QQ, 0, 1)])
    sub = mono_lattice(r345, [3, 4, 5])  # t^3 F[[t]]
    assert sub.lo == (3,) and sub.hi == (3,)
    assert quotient_dimension(j, sub) == 2
    with pytest.raises(NotASubmodule):
        quotient_dimension(sub, j)


def test_minimal_generators_spec_examples():
    r = semigroup_ring(QQ, [2, 3])
    m = r.maximal_ideal_lattice()
    assert sorted(g[0].valuation() for g in minimal_generators(m)) == [2, 3]
    assert len(minimal_generators(r.self_lattice)) == 1
    r34 = semigroup_ring(QQ, [3, 4])
    m34 = r34.maximal_ideal_lattice()
    assert sorted(g[0].valuation() for g in minimal_generators(m34)) == [3, 4]


def test_free_decomposition():
    ft = semigroup_ring(QQ, [1])
    lat = mono_lattice(ft, [2, 3])
    ranks, bases = free_decomposition_over_dvr_product(lat)
    assert ranks == [1]
    assert bases[0][0][0].valuation() == 2
    m = ft.maximal_ideal_lattice()
    ranks, _ = free_decomposition_over_dvr_product(m)
    assert ranks == [1]
    with pytest.raises(NotDvrProduct):
        free_decomposition_over_dvr_product(semigroup_ring(QQ, [2, 3]).self_lattice)


def test_from_generators_rejects_rank_deficiency():
    r = build_ring(QQ, 2, [(T, Z), (Z, T)])
    amb = r.self_lattice.ambient
    with pytest.raises(NotFullRank):
        Lattice.from_generators(r, amb, [amb.unit_vec(QQ, 0, 1)])


def test_exactness_machinery_positive_and_negative():
    # 0 -> R --(t^2,-t^2)^T--> R^2 --(t^2, t^2)--> R: not exact; a correct
    # short sequence: 0 -> R --diag--> R(+)R --difference--> image
    r = semigroup_ring(QQ, [1])
    f2, _ = direct_sum([r.self_lattice, r.self_lattice])
    diag = LatticeMap(r.self_lattice, f2, [[[LaurentPoly.one(QQ)], [LaurentPoly.one(QQ)]]])
    diff = LatticeMap(f2, r.self_lattice, [[[LaurentPoly.one(QQ), -LaurentPoly.one(QQ)]]])
    assert diff.compose(diag).is_zero()
    assert is_exact_at(diag, diff)
    assert is_surjective_onto(diff)
    # corrupt: replace diag by t*diag: composite still zero, no longer exact
    tdiag = LatticeMap(r.self_lattice, f2, [[[T], [T]]])
    assert diff.compose(tdiag).is_zero()
    assert not is_exact_at(tdiag, diff)


def test_isomorphism_of_rank_two(e6_syzygy):
    r, k, tk = e6_syzygy
    assert k.ambient.ranks == (2,)
    f = isomorphism(k, tk)
    assert f is not None and f.is_injective() and image_lattice(f) == tk
    # same ambient, not isomorphic: K is not free, and m is not R
    free2, _ = direct_sum([r.self_lattice, r.self_lattice])
    assert isomorphism(k, free2) is None
    assert isomorphism(r.self_lattice, r.maximal_ideal_lattice()) is None


def test_window_rank_nullity():
    # dim source window = dim kernel + dim image at matching windows for a
    # simple multiplication map
    r = semigroup_ring(QQ, [2, 3])
    f = LatticeMap(r.self_lattice, r.self_lattice, [[[T * T]]])
    k, _ = kernel_lattice(f)
    assert k.is_zero()
    assert f.is_injective()


def test_canonical_equality_is_presentation_independent():
    r = semigroup_ring(QQ, [2, 3])
    amb = r.self_lattice.ambient
    a = Lattice.from_generators(r, amb, [amb.unit_vec(QQ, 0, 2), amb.unit_vec(QQ, 0, 3)])
    b = Lattice.from_generators(
        r,
        amb,
        [
            tuple([LaurentPoly.from_pairs(QQ, [(2, 1), (3, 5)])]),
            tuple([LaurentPoly.from_pairs(QQ, [(3, 2)])]),
            amb.unit_vec(QQ, 0, 6),
        ],
    )
    assert a == b  # both are m = t^2 F[[t]]


def test_placed_sum_places_each_coordinate_once():
    r = semigroup_ring(QQ, [2, 3])
    s = r.self_lattice
    amb = Ambient([2])
    with pytest.raises(ClaimViolation):
        placed_sum(r, amb, [s, s], [[0], [0]])
    with pytest.raises(ClaimViolation):
        placed_sum(r, amb, [s], [[1]])
    assert placed_sum(r, amb, [s, s], [[1], [0]]) == direct_sum([s, s])[0]


def test_image_lattice_examples():
    r = semigroup_ring(QQ, [2, 3])
    e = normalization_lattice(r)
    t2 = LaurentPoly.monomial(QQ, 2)
    f = LatticeMap(e, e, [[[t2]]])
    img = image_lattice(f)
    assert img.lo == (2,) and img.hi == (2,) and img.basis == ()  # t^2 F[[t]]
    # image of a surjection equals the target
    incl = LatticeMap(r.maximal_ideal_lattice(), r.maximal_ideal_lattice(), [[[LaurentPoly.one(QQ)]]])
    assert image_lattice(incl) == r.maximal_ideal_lattice()


CORPUS = os.path.join(os.path.dirname(__file__), "..", "data", "rings")
MODULES = os.path.join(os.path.dirname(__file__), "..", "data", "modules")
CORPUS_NAMES = sorted(f[:-5] for f in os.listdir(CORPUS))


def _corpus_ring(name):
    return ringio.ring_from_json(ringio.load_json(os.path.join(CORPUS, name + ".json")))


def _kernel_map(ring):
    """R^2 -> R, (x, y) -> a x - a y for a generator a of m: its kernel, the
    diagonal copy of R, has window rows unless R is a DVR product."""
    a = ring.maximal_ideal_lattice().genset()[0]
    src, _ = direct_sum([ring.self_lattice, ring.self_lattice])
    mats = [[[a[br], -a[br]]] for br in range(ring.branches)]
    return LatticeMap(src, ring.self_lattice, mats)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_module_span_matches_raw_span(name):
    # R-closed rows span their module without R-multiples: Module.span must
    # agree with raw_span, which closes the same rows and cones under R
    ring = _corpus_ring(name)
    tree = build_chain_tree(ring)
    lats = [ring.self_lattice, ring.maximal_ideal_lattice()]
    lats += [lat for _, lat in generated_test_lattices(random.Random(name), ring, tree)]
    cases = []
    for lat in lats:
        cut = [h + lat.ring.mx(lat.ambient.branch_of(c)) + 1 for c, h in enumerate(lat.hi)]
        cases.append((lat, cut))
    ker, ker_cut = kernel_window_module(_kernel_map(ring))
    # canonical lattices over a DVR product are all tail, with no window rows
    assert ker.cones and (bool(ker.rows) != ring.is_dvr_product())
    cases.append((ker, [h + 1 for h in ker_cut]))
    for mod, cut in cases:
        lo = [v - 1 for v in mod.lo]
        _, ech = mod.span(lo, cut)
        _, ref = raw_span(ring, mod.ambient, list(mod.rows), mod.cones, lo, cut)
        assert ech.rank() > 0 and ech == ref


def _brute_r_span(ring, amb, gens, cones, lo, hi):
    """Reference R-closure: every generator times every scalar-basis element
    and every tail monomial t^m e_br, c_br <= m < the window top, plus each
    cone's monomial multiples, reduced into the window [lo, hi)."""
    ws = WindowSpace(ring.field, amb, lo, hi)
    ech = ws.echelon()
    tops = [max((hi[c] for c in amb.coords_of(br)), default=0) for br in range(amb.nbranches())]
    vecs = []
    for g in gens:
        vecs += [amb.branch_scale(x, g) for x in ring.scalar_basis()]
        for br in range(amb.nbranches()):
            mv = amb.branch_min_val(g, br)
            if mv is not INF:
                vecs += [amb.mono_scale(br, m, g) for m in range(ring.conductor[br], tops[br] - mv)]
    for br, v in cones:
        vecs += [amb.mono_scale(br, m, v) for m in range(tops[br] - amb.branch_min_val(v, br))]
    for v in vecs:
        row = ws.row_of(v)
        if row is not None:
            ech.add(row)
    return ech


def _maximal_ideal_data(lat):
    """Generator data (rgens, cones) of m * lat that is not R-closed: each
    g - g(0) over R's gens times each genset vector, and the cone on
    t^mx * v for each cone v."""
    ring, amb = lat.ring, lat.ambient
    rgens = [amb.branch_scale(d, g) for d in ring.maximal_ideal_gens() for g in lat.genset()]
    cones = [(br, amb.mono_scale(br, ring.mx(br), v)) for br, v in lat.cones]
    return rgens, cones


def _tree_rings(tree):
    """Every ring of a chain tree, root first: each node's ring and End(m)."""
    rings = []
    for nd in tree.nodes():
        rings += [r for r in (nd.ring, nd.r1) if r is not None and all(r is not s for s in rings)]
    return rings


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_raw_span_matches_brute_force(name):
    # raw_span's worklist closure under R.gens equals the one-shot product of
    # every generator with all of R's scalars, on windows past the conductor,
    # for every ring of the chain tree: End(m) rings close under minimal
    # generators and factors under restricted ones
    root = _corpus_ring(name)
    tree = build_chain_tree(root)
    rng = random.Random(name)
    for ring in _tree_rings(tree):
        field = ring.field
        # R * 1 on [0, top) past the conductor: top per branch less delta (on
        # F[[t]], semigroup_1, all of F^5)
        top = 2 * max(ring.conductor) + 5
        amb1 = ring.self_lattice.ambient
        one = amb1.idem_vec(field, range(ring.branches))
        cases = [(amb1, [one], [], [0] * ring.branches, [top] * ring.branches)]
        _, ech = raw_span(ring, *cases[0])
        assert ech.rank() == ring.branches * top - ring.delta()
        # m * L: generators that are not R-closed; generated lattices on the
        # root, R and m on the other local rings
        if ring is root:
            lats = [lat for _, lat in generated_test_lattices(rng, ring, tree)[:3]]
        else:
            lats = [ring.self_lattice, ring.maximal_ideal_lattice()] if ring.is_local else []
        for lat in lats:
            rgens, cones = _maximal_ideal_data(lat)
            cut = [h + lat.ring.mx(lat.ambient.branch_of(c)) + 1 for c, h in enumerate(lat.hi)]
            cases.append((lat.ambient, rgens, cones, [v - 1 for v in lat.lo], cut))
        # two random vectors of rank two per branch, one cone past the conductor
        amb2 = Ambient([2] * ring.branches)
        vecs = [
            tuple(LaurentPoly.from_pairs(field, [(e, rng.randint(-2, 2)) for e in range(4)]) for _ in range(amb2.ncoords))
            for _ in range(2)
        ]
        cone = (0, amb2.unit_vec(field, 0, ring.conductor[0] + 1))
        cases.append((amb2, vecs, [cone], [0] * amb2.ncoords, [top] * amb2.ncoords))
        for amb, gens, cones, lo, hi in cases:
            _, ech = raw_span(ring, amb, gens, cones, lo, hi)
            assert ech.rank() > 0 and ech == _brute_r_span(ring, amb, gens, cones, lo, hi)


def _reference_close(ws, ech, vecs, cones=(), mults=()):
    """Reference closure on ambient vectors: every product is a LaurentPoly
    product (``branch_scale``), truncated and read back by ``row_of``."""
    amb = ws.ambient
    tops = [max((ws.hi[c] for c in amb.coords_of(br)), default=0) for br in range(amb.nbranches())]
    cone_vecs = []
    for br, v in cones:
        mv = amb.branch_min_val(v, br)
        if mv is not INF:
            cone_vecs += [amb.mono_scale(br, m, v) for m in range(tops[br] - mv)]
    inside = True
    work = []
    for v in cone_vecs:
        row = ws.row_of(v)
        if row is None:
            inside = False
        else:
            ech.add(row)
    for v in vecs:
        row = ws.row_of(v)
        if row is None:
            inside = False
        elif ech.add(row) and mults:
            work.append(amb.truncate_vec(v, ws.hi))
    while work:
        v = work.pop()
        for a in mults:
            p = amb.truncate_vec(amb.branch_scale(a, v), ws.hi)
            if not amb.vec_is_zero(p) and ech.add(ws.row_of(p)):
                work.append(p)
    return inside


class _RecordingEchelon(Echelon):
    """An Echelon that keeps every row offered to ``add``, in order."""

    def __init__(self, field, ncols):
        super().__init__(field, ncols)
        self.offered = []

    def add(self, row):
        self.offered.append(dict(row))
        return super().add(row)


_CLOSE_FIELDS = (QQ, FieldSpec("prime", 7), FieldSpec("prime", 32003))
_GEN_RINGS = {1: ("semigroup_2_3", "semigroup_3_4_5"), 2: ("tacnode", "cusp_line", "node"), 3: ("triple_point",)}


@functools.lru_cache(maxsize=None)
def _ring_gens(name, field):
    """The generators of a corpus ring over ``field``, read from its file
    without ``build_ring`` (which runs ``_close`` itself); they are its gens."""
    obj = ringio.load_json(os.path.join(CORPUS, name + ".json"))
    if "semigroup" in obj:
        return [Ambient([1]).unit_vec(field, 0, a) for a in obj["semigroup"]]
    return [tuple(LaurentPoly.from_pairs(field, part) for part in g) for g in obj["generators"]]


def _coeffs(field):
    """Nonzero coefficients: small Fractions over QQ, most of them not
    integral; residues of 1..40000 over GF(p)."""
    if field.characteristic:
        return st.integers(1, 40000).map(field.coerce)
    return st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)).map(field.coerce)


@st.composite
def _closures(draw):
    """A window on a 1- to 3-branch ambient, seed vectors and cones (each
    may dip below lo or reach past hi) and multipliers: a ring's gens, or
    random elements of K with nonnegative exponents."""
    field = draw(st.sampled_from(_CLOSE_FIELDS))
    coeff = _coeffs(field)
    nb = draw(st.integers(1, 3))
    amb = Ambient(draw(st.lists(st.integers(1, 3), min_size=nb, max_size=nb)))
    lo = draw(st.lists(st.integers(-1, 2), min_size=amb.ncoords, max_size=amb.ncoords))
    hi = [e + draw(st.integers(0, 5)) for e in lo]

    def poly(lo_e, hi_e):
        return LaurentPoly.from_pairs(field, draw(st.lists(st.tuples(st.integers(lo_e, hi_e), coeff), max_size=3)))

    def vec(coords):
        v = [poly(lo[c], hi[c]) if c in coords else LaurentPoly.zero(field) for c in range(amb.ncoords)]
        if draw(st.booleans()) and draw(st.booleans()):  # support below lo
            c = draw(st.sampled_from(coords))
            v[c] = v[c] + LaurentPoly.monomial(field, lo[c] - draw(st.integers(1, 2)), draw(coeff))
        return tuple(v)

    vecs = [vec(range(amb.ncoords)) for _ in range(draw(st.integers(0, 3)))]
    cones = []
    for _ in range(draw(st.integers(0, 2))):
        br = draw(st.integers(0, nb - 1))
        cones.append((br, vec(list(amb.coords_of(br)))))
    mults = []
    if draw(st.booleans()):
        mults += _ring_gens(draw(st.sampled_from(_GEN_RINGS[nb])), field)
    for _ in range(draw(st.integers(0, 2))):
        mults.append(tuple(poly(0, 4) for _ in range(nb)))
    return WindowSpace(field, amb, lo, hi), vecs, cones, mults


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_closures())
def test_close_matches_laurent_reference(case):
    # the kernel-row closure offers the same rows in the same order as the
    # LaurentPoly reference, so it ends in the same echelon and inside flag
    ws, vecs, cones, mults = case
    ech, ref = _RecordingEchelon(ws.field, ws.ncols()), _RecordingEchelon(ws.field, ws.ncols())
    inside = _close(ws, ech, vecs, cones, mults)
    assert inside == _reference_close(ws, ref, vecs, cones, mults)
    assert ech.offered == ref.offered
    assert ech == ref


def test_close_rejects_negative_multiplier_exponent():
    # a negative exponent would shift a row into the previous coordinate's
    # columns; it is refused even where no product would reach it
    amb = Ambient([2, 1])
    ws = WindowSpace(QQ, amb, [0, 0, 0], [4, 4, 4])
    one = tuple(LaurentPoly.one(QQ) for _ in range(amb.ncoords))
    t = LaurentPoly.monomial(QQ, 1)
    bad = (t, LaurentPoly.from_pairs(QQ, [(-1, 1), (2, 3)]))
    for vecs in ([one], []):
        with pytest.raises(ClaimViolation) as err:
            _close(ws, ws.echelon(), vecs, mults=[(t, t), bad])
        assert err.value.context == {"branch": 1, "exponent": -1}


@functools.lru_cache(maxsize=None)
def _ring_and_overring(name, field):
    ring = build_ring(field, len(_ring_gens(name, field)[0]), _ring_gens(name, field))
    return ring, end_of_maximal_ideal(ring)


@st.composite
def _solves(draw):
    """One window constraint solve of each caller's kind, on a corpus ring
    with 1-3 branches: ("hom", C, D), ("scalars", N, S, extra scalars) for
    the overring S = End(m) and random scalars with exponents down to -1,
    or ("kernel", f) for a random map f.  Lattices have ranks 1-3 per
    branch, from unit monomials and random vectors with exponents down to
    -1, and a window margin (a, b) widens the solve below lo and past hi."""
    field = draw(st.sampled_from(_CLOSE_FIELDS))
    coeff = _coeffs(field)
    nb = draw(st.sampled_from((1, 2, 3)))
    ring, over = _ring_and_overring(draw(st.sampled_from(_GEN_RINGS[nb])), field)

    def poly(lo_e, hi_e):
        return LaurentPoly.from_pairs(field, draw(st.lists(st.tuples(st.integers(lo_e, hi_e), coeff), max_size=2)))

    def lattice():
        amb = Ambient(draw(st.lists(st.sampled_from((1, 2, 3)), min_size=nb, max_size=nb)))
        gens = [amb.unit_vec(field, c, draw(st.integers(-1, 2))) for c in range(amb.ncoords)]
        gens += [tuple(poly(-1, 3) for _ in range(amb.ncoords)) for _ in range(draw(st.integers(0, 2)))]
        return Lattice.from_generators(ring, amb, gens)

    margin = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    kind = draw(st.sampled_from(("hom", "scalars", "kernel")))
    if kind == "hom":
        return kind, margin, lattice(), lattice()
    if kind == "scalars":
        extra = [tuple(poly(-1, 4) for _ in range(nb)) for _ in range(draw(st.integers(0, 2)))]
        return kind, margin, lattice(), over, extra
    src, tgt = lattice(), lattice()
    entries = {
        (br, k, l): poly(-1, 3)
        for br in range(nb)
        for k in range(tgt.ambient.ranks[br])
        for l in range(src.ambient.ranks[br])
    }
    return kind, margin, LatticeMap.from_entries(src, tgt, entries)


def _hom_slots(src, tgt):
    """(br, k, l) in the coordinate order of ``hom_ambient(src, tgt)``."""
    return [(br, k, l) for br in range(src.nbranches()) for k in range(tgt.ranks[br]) for l in range(src.ranks[br])]


def _diagonal(amb, x):
    return {(br, k, k): x[br] for br in range(amb.nbranches()) for k in range(amb.ranks[br])}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_solves())
def test_solve_matches_unit_vector_reference(case):
    # the shift-operator solve equals the unit-vector LaurentPoly route on
    # the same window and maps, and the engine's Hom, largest submodule and
    # kernel lattices equal the reference solve canonicalized: on a window
    # around a lattice with its tail, the solutions are its truncation.
    # Hom solves run on hom_lattice's own window, d.lo - c.hi (often < 0)
    # up to d.hi - c.lo, widened by the margin.
    kind, (a, b), *data = case
    if kind == "hom":
        c, d = data
        src, tgt = c.ambient, d.ambient
        result = hom_lattice(c, d)
        amb = hom_ambient(src, tgt)
        lo = [d.lo[tgt.coord(br, k)] - c.hi[src.coord(br, l)] for br, k, l in _hom_slots(src, tgt)]
        hi = [d.hi[tgt.coord(br, k)] - c.lo[src.coord(br, l)] for br, k, l in _hom_slots(src, tgt)]
        gens = minimal_generators(c)
        evaluations = [
            {(br, k, k * src.ranks[br] + l): g[src.coord(br, l)] for br, k, l in _hom_slots(src, tgt)} for g in gens
        ]
        ops = [(_operator(amb, tgt, entries), d) for entries in evaluations]
        refs = [(lambda h, g=g: hom_apply(src, tgt, amb, h, g), d) for g in gens]
        extra_ops, extra_refs = [], []
    elif kind == "scalars":
        lat, over, extra = data
        result = largest_submodule_over(over, lat)
        amb = lat.ambient
        lo, hi = result.lo, result.hi
        scalars = [over.self_lattice.ambient.idem_vec(lat.ring.field, range(amb.nbranches()))] + overring_scalars(over, lat)
        ops = [(_operator(amb, amb, _diagonal(amb, x)), lat) for x in scalars]
        refs = [(lambda v, x=x: amb.branch_scale(x, v), lat) for x in scalars]
        extra_ops = [(_operator(amb, amb, _diagonal(amb, x)), lat) for x in extra]
        extra_refs = [(lambda v, x=x: amb.branch_scale(x, v), lat) for x in extra]
    else:
        (f,) = data
        result, emb = kernel_lattice(f)
        amb = result.ambient
        lo, hi = result.lo, result.hi
        entries = {
            (br, k, l): e for br, m in enumerate(emb.mats) for k, row in enumerate(m) for l, e in enumerate(row)
        }
        ops = [(_operator(amb, f.source.ambient, entries), f.source)]
        refs = [(emb.apply, f.source)]
        extra_ops, extra_refs = [], []
    ring = result.ring
    hi = [max(v, w) + b for v, w in zip(hi, lo)]
    lo = [v - a for v in lo]
    ws = WindowSpace(ring.field, amb, lo, hi)
    sols = reference_solve(ws, refs)
    assert solve_constrained_window(ws, ops) == sols
    assert solve_constrained_window(ws, ops + extra_ops) == reference_solve(ws, refs + extra_refs)
    ech = ws.echelon()
    ech.add_many(sols)
    assert Lattice._canonicalize(ring, amb, lo, hi, ech, ws).key() == result.key()


@st.composite
def _images(draw):
    """A map f and a window around its target, on a corpus ring with 1-3
    branches: a random LatticeMap; Hom(X, g) (``hom_induced_map``) for a
    random g: C -> D; or Hom(a, T) (``hom_precompose``) for a random vector
    a of hom_ambient(X, Y).  Lattices are drawn as in ``_solves``, map
    entries have exponents down to -1.  The window moves the target's lo by
    -1..2, so images can fall below it, and its hi by -2..2.  Returns (f,
    reference, window, rng): the reference gives f(phi) by the composition
    route of ``oracle.composite`` (None for a plain map)."""
    field = draw(st.sampled_from(_CLOSE_FIELDS))
    coeff = _coeffs(field)
    nb = draw(st.sampled_from((1, 2, 3)))
    ring, _ = _ring_and_overring(draw(st.sampled_from(_GEN_RINGS[nb])), field)

    def poly(lo_e, hi_e):
        return LaurentPoly.from_pairs(field, draw(st.lists(st.tuples(st.integers(lo_e, hi_e), coeff), max_size=2)))

    def lattice():
        amb = Ambient(draw(st.lists(st.sampled_from((1, 2, 3)), min_size=nb, max_size=nb)))
        gens = [amb.unit_vec(field, c, draw(st.integers(-1, 2))) for c in range(amb.ncoords)]
        gens += [tuple(poly(-1, 3) for _ in range(amb.ncoords)) for _ in range(draw(st.integers(0, 2)))]
        return Lattice.from_generators(ring, amb, gens)

    def random_map(src, tgt):
        slots = _hom_slots(src.ambient, tgt.ambient)
        return LatticeMap.from_entries(src, tgt, {s: poly(-1, 3) for s in slots})

    kind = draw(st.sampled_from(("map", "induced", "precompose")))
    if kind == "map":
        f, ref = random_map(lattice(), lattice()), None
    elif kind == "induced":
        x, c, d = lattice(), lattice(), lattice()
        g = random_map(c, d)
        f = hom_induced_map(x, g, hom_lattice(x, c), hom_lattice(x, d))
        ref = lambda phi: composite(x, c, d, flatten(g), phi)
    else:
        x, y, t = lattice(), lattice(), lattice()
        a = tuple(poly(-1, 3) for _ in range(hom_ambient(x.ambient, y.ambient).ncoords))
        f = hom_precompose(a, x, y, hom_lattice(y, t), hom_lattice(x, t))
        ref = lambda phi: composite(x, y, t, phi, a)
    lo = [v + draw(st.integers(-1, 2)) for v in f.target.lo]
    hi = [max(v, h + draw(st.integers(-2, 2))) for v, h in zip(lo, f.target.hi)]
    return f, ref, WindowSpace(field, f.target.ambient, lo, hi), draw(st.randoms(use_true_random=False))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_images())
def test_span_image_matches_closure_of_genset(case):
    # the row kernel equals row_of of the LaurentPoly image (None below lo
    # included), the operators equal the composition route, and the image
    # span equals the R-closure of f(genset) with the same inside flag, on
    # the drawn window and on one floored to the images' valuations
    f, ref, ws, rng = case
    ring, field = f.source.ring, ws.field
    sws, rows = f.source.row_window()
    image = _row_map(f.operator(), sws, ws)
    mixes = [field.clean({j: x * rng.randint(-3, 3) for r in rows for j, x in r.items()}) for _ in range(2)]
    for r in rows + mixes:
        v = sws.vec_of(r)
        assert image(r) == ws.row_of(f.apply(v))
        if ref is not None:
            assert f.apply(v) == ref(v)
    gens = [f.apply(g) for g in f.source.genset()]
    inside = all(ws.row_of(v) is not None for v in gens)
    ech = ws.echelon()
    assert _span_image(ws, ech, f) == inside
    if inside:
        assert ech == raw_span(ring, ws.ambient, gens, [], ws.lo, ws.hi)[1]
    lo = valuation_floor(gens, ws.lo)
    floored = WindowSpace(field, ws.ambient, lo, ws.hi)
    ech = floored.echelon()
    assert _span_image(floored, ech, f)
    assert ech == raw_span(ring, ws.ambient, gens, [], lo, ws.hi)[1]


def test_span_image_below_the_window():
    # t^-1 * identity on R carries 1 below R's window: the row kernel gives
    # None there and the image span reports it, as row_of and the closure do
    ring = _corpus_ring("semigroup_2_3")
    lat = ring.self_lattice
    f = LatticeMap(lat, lat, [[[LaurentPoly.monomial(QQ, -1)]]])
    ws, ech = lat.window()
    image = _row_map(f.operator(), ws, ws)
    assert [image(r) is None for r in ech.rows] == [ws.row_of(f.apply(v)) is None for v in lat.rows]
    assert image(ech.rows[0]) is None
    assert not _span_image(ws, ws.echelon(), f)
    # terms below the window that cancel leave no support there: (1, 1)
    # goes to t^-1 - t^-1 = 0 under (t^-1, -t^-1): R^2 -> R
    src, _ = direct_sum([lat, lat])
    t1 = LaurentPoly.monomial(QQ, -1)
    g = LatticeMap(src, lat, [[[t1, -t1]]])
    sws, _ = src.window()
    row = {sws.index[(0, 0)]: 1, sws.index[(1, 0)]: 1}
    assert _row_map(g.operator(), sws, ws)(row) == ws.row_of(g.apply(sws.vec_of(row))) == {}


def _maximal_ideal_covers(goal, parts, cut):
    """The former route of ``nakayama_covers``: a map part as the generator
    data f(genset) plus the cones f(v), m * goal as ``_maximal_ideal_data``,
    both R-closed by raw_span."""
    rgens, cones, mods = [], [], []
    for p in parts + [_maximal_ideal_data(goal)]:
        if isinstance(p, LatticeMap):
            p = ([p.apply(g) for g in p.source.genset()], [(br, p.apply(v)) for br, v in p.source.cones])
        if isinstance(p, Module):
            mods.append(p)
        else:
            rgens += p[0]
            cones += p[1]
    vecs = rgens + [v for _, v in cones]
    for p in mods:
        vecs += list(p.rows) + [v for _, v in p.cones]
    lo = valuation_floor(vecs, goal.lo)
    ws, e_goal = Module.span(goal, lo, cut)
    _, e_parts = raw_span(goal.ring, goal.ambient, rgens, cones, lo, cut)
    for p in mods:
        e_parts.add_many(Module.span(p, lo, cut)[1].rows)
    inside = e_goal.contains_space(e_parts)
    lifts = [ws.vec_of(r) for r in e_goal.rows if e_parts.add(r)]
    return lifts, inside


def _random_map(rng, src, tgt):
    field = src.ring.field
    entries = {
        (br, k, l): LaurentPoly.from_pairs(field, [(rng.randint(-1, 3), rng.randint(-3, 3))])
        for br in range(src.ambient.nbranches())
        for k in range(tgt.ambient.ranks[br])
        for l in range(src.ambient.ranks[br])
    }
    return LatticeMap.from_entries(src, tgt, entries)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_nakayama_covers_match_closure_route(name):
    # m * goal from shifted window rows and images from the source's rows
    # and cones give the lifts and inside flag of the R-closure of
    # f(genset) and (g - g(0)) * genset, for every kind of part: none
    # (minimal generators), images of Hom elements and random maps
    # (surjectivity, some not inside), a kernel with its embedding and a
    # non-exact multiple, and a Module; generator data is refused
    ring = _corpus_ring(name)
    tree = build_chain_tree(ring)
    rng = random.Random(name)
    lats = [ring.self_lattice, ring.maximal_ideal_lattice()]
    lats += [lat for _, lat in generated_test_lattices(rng, ring, tree)[:3]]
    field = ring.field
    cases = []
    for lat in lats:
        cut = lat.nakayama_cut()
        cases.append((lat, [], cut))
        for x in lats[:3]:
            for g in hom_lattice(x, lat).genset()[:2]:
                cases.append((lat, [hom_element_as_map(x, lat, g)], cut))
            cases.append((lat, [_random_map(rng, x, lat)], cut))
        f = _random_map(rng, direct_sum([lat, lat])[0], lat)
        ker, kcut = kernel_window_module(f)
        _, emb = kernel_lattice(f)
        z = [LaurentPoly.monomial(field, ring.mx(br)) for br in range(ring.branches)]
        zmats = [[[z[br] * e for e in row] for row in m] for br, m in enumerate(emb.mats)]
        zemb = LatticeMap(emb.source, emb.target, zmats)
        cases += [(ker, [emb], kcut), (ker, [zemb], kcut)]
        if lat.ambient == ring.self_lattice.ambient:
            cases.append((lat, [ring.maximal_ideal_lattice()], cut))
    assert any(_maximal_ideal_covers(*c)[1] is False for c in cases)
    for goal, parts, cut in cases:
        assert nakayama_covers(goal, parts, cut) == _maximal_ideal_covers(goal, parts, cut)
    # an image is spanned from its source's rows only when they are a
    # Lattice's window basis; any other source is refused, and so is
    # generator data, which would need R-closure
    f = _random_map(rng, ring.self_lattice, ring.self_lattice)
    bare = LatticeMap(Module(ring, f.source.ambient, f.source.rows, f.source.cones, f.source.lo), f.target, f.mats)
    vecs = [tuple(LaurentPoly.from_pairs(field, [(rng.randint(0, 4), 1)]) for _ in range(f.target.ambient.ncoords))]
    for part in (bare, (vecs, [])):
        with pytest.raises(TypeError):
            nakayama_covers(f.target, [part], f.target.nakayama_cut())


@pytest.mark.parametrize("name", ["semigroup_3_5", "tacnode", "triple_point"])
def test_nakayama_covers_image_routes_agree(name):
    # an image part is spanned in full, or with minimal=True from its
    # source's minimal generators (in full again when the parts are not
    # inside): both routes give the closure route's lifts and inside flag,
    # inside or not, with images below the goal's lo or not, and the
    # minimal route gives the same whether or not the generators were
    # computed before the call
    ring = _corpus_ring(name)
    rng = random.Random(name)
    lats = [ring.self_lattice, ring.maximal_ideal_lattice()]
    lats += [lat for _, lat in generated_test_lattices(rng, ring, build_chain_tree(ring))[:2]]
    outside = below = 0
    for x in lats:
        for lat in lats:
            maps = [_random_map(rng, x, lat)] + [hom_element_as_map(x, lat, g) for g in hom_lattice(x, lat).genset()[:1]]
            for f in maps:
                fresh = Lattice(x.ring, x.ambient, x.lo, x.hi, x.basis)
                unknown = LatticeMap(fresh, lat, f.mats)
                minimal_generators(x)
                cut = lat.nakayama_cut()
                ref = _maximal_ideal_covers(lat, [f], cut)
                assert nakayama_covers(lat, [f], cut) == ref
                assert nakayama_covers(lat, [f], cut, minimal=True) == nakayama_covers(lat, [unknown], cut, minimal=True) == ref
                assert fresh._mingens == x._mingens
                outside += not ref[1]
                below += any(lat.ambient.branch_min_val(f.apply(v), 0) < min(lat.lo) for v in x.rows)
    assert 0 < outside < len(lats) ** 2 * 2 and below


_PLACED_RINGS = ("semigroup_2_3", "semigroup_3_5", "semigroup_3_4_5", "node", "cusp_line", "tacnode", "triple_point")
_PLACED_FIELDS = (QQ, FieldSpec("prime", 7))


@functools.lru_cache(maxsize=None)
def _placed_lattices(name, field):
    """A corpus ring built over ``field``, the members of its chain family
    and its ``generated_test_lattices``."""
    ring = build_ring(field, len(_ring_gens(name, field)[0]), _ring_gens(name, field))
    tree = build_chain_tree(ring)
    lats = [m.lattice for m in chain_family(tree).members]
    lats += [lat for _, lat in generated_test_lattices(random.Random(f"{name}/{field.characteristic}"), ring, tree)]
    return ring, tuple(lats)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_PLACED_RINGS), st.sampled_from(_PLACED_FIELDS), st.data())
def test_placed_span_matches_closure_route(name, field, data):
    # a lattice's window span with lo at or below its lo and a cut at or
    # past its tail is its basis rows plus unit tail rows, the span the
    # closure of its rows and cones gives; a window that cuts into the basis
    # or short of the tail is refused
    _, lats = _placed_lattices(name, field)
    lat = data.draw(st.sampled_from(lats))
    lo = [e - data.draw(st.integers(0, 2)) for e in lat.lo]
    cut = [h + data.draw(st.integers(0, 3)) for h in lat.hi]
    ws, ech = lat.span(lo, cut)
    ref_ws, ref = Module.span(lat, lo, cut)
    assert ws.cols == ref_ws.cols and ech == ref
    fresh = Lattice(lat.ring, lat.ambient, lat.lo, lat.hi, lat.basis)
    assert fresh.window()[1] == Module.span(lat, lat.lo, lat.hi)[1]
    c = data.draw(st.integers(0, lat.ambient.ncoords - 1))
    with pytest.raises(ClaimViolation):
        lat.span([e + (i == c) for i, e in enumerate(lat.lo)], cut)
    with pytest.raises(ClaimViolation):
        lat.span(lo, [h - (i == c) for i, h in enumerate(lat.hi)])


def _full_shift_covers(goal, parts, cut, minimal=False):
    """The former m * goal of ``nakayama_covers``: every RREF row of the
    goal's window span, its tail rows too, shifted by each g - g(0), and
    the contains_space pass even with no parts."""
    maps = [p for p in parts if isinstance(p, LatticeMap)]
    mods = [p for p in parts if not isinstance(p, LatticeMap)]
    lo = valuation_floor([v for p in mods for v in p.rows + tuple(v for _, v in p.cones)], goal.lo)
    for f in maps:
        lo = f.image_floor(lo)
    ws, e_goal = Module.span(goal, lo, cut)
    e_parts = ws.echelon()
    for p in mods:
        _close(ws, e_parts, p.rows, p.cones)
    if minimal:
        _close(ws, e_parts, [f.apply(g) for f in maps for g in minimal_generators(f.source)])
    for f in () if minimal else maps:
        _span_image(ws, e_parts, f)
    for per in goal.ring.maximal_ideal_terms():
        shift = _scalar_map(ws, per)
        for p in filter(None, map(shift, e_goal.rows)):
            e_parts.add(p)
    inside = e_goal.contains_space(e_parts)
    for f in maps if minimal and not inside else ():
        _span_image(ws, e_parts, f)
    return [ws.vec_of(r) for r in e_goal.rows if e_parts.add(r)], inside


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_PLACED_RINGS), st.sampled_from(_PLACED_FIELDS), st.data())
def test_tail_cone_covers_match_full_shift(name, field, data):
    # m * goal from the goal's rows shifted by each g - g(0) and the cone
    # runs t^v_br F[[t]] v gives the lifts and inside flag of every window
    # row shifted: no parts (minimal generators), a random map, a Hom
    # element (spanned in full or from minimal generators), a Module part,
    # and a kernel Module goal with its embedding
    ring, lats = _placed_lattices(name, field)
    goal = data.draw(st.sampled_from(lats))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    kind = data.draw(st.sampled_from(["none", "map", "hom", "module", "kernel"]))
    x = data.draw(st.sampled_from([lat for lat in lats if lat.ambient.nbranches() == goal.ambient.nbranches()]))
    minimal = data.draw(st.booleans())
    cut = [c + data.draw(st.integers(0, 2)) for c in goal.nakayama_cut()]
    if kind == "none":
        parts = []
    elif kind == "map":
        parts = [_random_map(rng, x, goal)]
    elif kind == "hom":
        parts = [hom_element_as_map(x, goal, g) for g in hom_lattice(x, goal).genset()[:1]]
    elif kind == "module":
        parts = [Module(ring, goal.ambient, goal.rows[1:], goal.cones[1:], goal.lo)]
    else:
        f = _random_map(rng, direct_sum([goal, goal])[0], goal)
        goal, cut = kernel_window_module(f)
        parts = [kernel_lattice(f)[1]]
    got = nakayama_covers(goal, parts, cut, minimal=minimal)
    ref = _full_shift_covers(goal, parts, cut, minimal=minimal)
    assert got == ref


def _constant_term_kernel(ring):
    """Reference maximal ideal: the combinations of R's window span on
    [0, max(c, 1)) with zero constant term on every branch."""
    field = ring.field
    amb = ring.self_lattice.ambient
    hi = [max(c, 1) for c in ring.conductor]
    ws, ech = Module.span(ring.self_lattice, [0] * ring.branches, hi)
    rows = ech.rows
    consts = [
        field.clean({i: r.get(ws.index[(br, 0)], 0) for i, r in enumerate(rows)})
        for br in range(ring.branches)
        if (br, 0) in ws.index
    ]
    ech2 = ws.echelon()
    for lam in nullspace_F(consts, len(rows), field):
        acc = {}
        for i, c in lam.items():
            for j, b in rows[i].items():
                acc[j] = acc.get(j, 0) + c * b
        ech2.add(field.clean(acc))
    return Lattice._canonicalize(ring, amb, [0] * amb.ncoords, hi, ech2, ws)


def _local_tree_rings(name):
    return [r for r in _tree_rings(build_chain_tree(_corpus_ring(name))) if r.is_local]


def _check_maximal_ideals(rings):
    for ring in rings:
        ref = _constant_term_kernel(ring)
        assert maximal_ideal(ring) == ref
        assert ring.maximal_ideal_lattice() == ref
        assert closure_maximal_ideal(ring) == ref
        for d in ring.maximal_ideal_gens():
            assert not any(p[0] for p in d)
            assert ring.self_lattice.member(d)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_maximal_ideal_matches_constant_term_kernel(name):
    # m placed from R's basis, and m = sum (g - g(0)) * R over R.gens, equal
    # the constant-term kernel on every local ring of the chain tree: root,
    # each End(m), each factor
    _check_maximal_ideals(_local_tree_rings(name))


@pytest.mark.parametrize("name", ["semigroup_3_4", "semigroup_3_5"])
def test_maximal_ideal_reference_catches_dropped_generator(name, monkeypatch):
    # negative control: without its last generator difference the closure
    # route's m is too small (on <2,3> and <2,7> the conductor cone would
    # cover it), as every m * L shift would be
    rings = _local_tree_rings(name)
    gens = CurveRing.maximal_ideal_gens
    monkeypatch.setattr(CurveRing, "maximal_ideal_gens", lambda self: gens(self)[:-1])
    with pytest.raises(AssertionError):
        _check_maximal_ideals(rings)


def test_scalar_extension_rejects_non_overring():
    # the overring must contain each generator of the base ring: t^2 of
    # <2,3> and t^5 (the last generator) of <3,4,5> are not in <3,4>
    s34 = semigroup_ring(QQ, [3, 4])
    for base in ([2, 3], [3, 4, 5]):
        with pytest.raises(NotAnOverring):
            scalar_extension_test(s34, semigroup_ring(QQ, base).maximal_ideal_lattice())
    # E contains every corpus ring; E is E-stable, R only when R = E
    for name in CORPUS_NAMES:
        ring = _corpus_ring(name)
        egens = [ring.self_lattice.ambient.unit_vec(QQ, br, e) for br in range(ring.branches) for e in (0, 1)]
        e_ring = build_ring(QQ, ring.branches, egens)
        assert scalar_extension_test(e_ring, normalization_lattice(ring))
        assert scalar_extension_test(e_ring, ring.self_lattice) == ring.is_dvr_product()


def _shipped_interior_maps():
    """The maps of the two shipped-module resolutions whose kernels the
    exactness certificates test."""
    from endochain.resolver import keyred_resolve

    maps = []
    for module, name in (("j_over_3_4", "semigroup_3_4"), ("m_over_2_5", "semigroup_2_5")):
        ring = _corpus_ring(name)
        lat = ringio.lattice_from_json(ringio.load_json(os.path.join(MODULES, module + ".json")), ring)
        maps += keyred_resolve(lat, tree=build_chain_tree(ring)).maps[:-1]
    return maps


@pytest.mark.parametrize("name", CORPUS_NAMES + ["shipped"])
def test_kernel_embedding_is_exact(name):
    # 0 -> ker f --emb--> source --f--> target is exact at the source, and
    # z * emb for z in m is not: its image lies in m * ker f
    maps = _shipped_interior_maps() if name == "shipped" else [_kernel_map(_corpus_ring(name))]
    assert maps
    for f in maps:
        ring = f.source.ring
        _, emb = kernel_lattice(f)
        assert is_exact_at(emb, f)
        z = [LaurentPoly.monomial(ring.field, f.source.ring.mx(br)) for br in range(ring.branches)]
        mats = [[[z[br] * e for e in row] for row in m] for br, m in enumerate(emb.mats)]
        assert not is_exact_at(LatticeMap(emb.source, emb.target, mats), f)


def test_compose_through_branch_of_rank_zero():
    # on tacnode, X_2 has rank (1, 0): X_0 -> X_2 -> X_0 passes through a
    # rank-zero middle on branch 1, where the composite is the 1x1 zero map
    from endochain.chain import chain_family

    ring = _corpus_ring("tacnode")
    x = chain_family(build_chain_tree(ring)).lattices()
    assert x[0].ambient.ranks == (1, 1) and x[2].ambient.ranks == (1, 0)
    a = hom_lattice(x[0], x[2]).genset()[0]
    b = hom_lattice(x[2], x[0]).genset()[0]
    ba = hom_element_as_map(x[2], x[0], b).compose(hom_element_as_map(x[0], x[2], a))
    assert ba.mats == (((b[0] * a[0],),), ((Z,),))
    zero = hom_element_as_map(x[2], x[0], (Z, Z)).compose(hom_element_as_map(x[0], x[2], (Z,)))
    assert zero.mats == (((Z,),), ((Z,),))


def test_minimal_generators_not_shared_with_overring():
    # E is key-equal as a lattice over <2,3> and as the self lattice of
    # F[[t]], but needs 2 generators over the first and 1 over the second
    ring = semigroup_ring(QQ, [2, 3])
    over = semigroup_ring(QQ, [1])
    for first in (0, 1):
        lats = [normalization_lattice(ring), over.self_lattice]
        lats = [Lattice(l.ring, l.ambient, l.lo, l.hi, l.basis) for l in lats]  # fresh caches
        assert lats[0].key() == lats[1].key()
        minimal_generators(lats[first])
        assert [len(minimal_generators(l)) for l in lats] == [2, 1]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_hom_lattice_minimal_streams_match_genset(name, monkeypatch):
    # one constraint stream per minimal generator gives the same canonical
    # lattice as one per genset vector
    from endochain import lattice

    ring = _corpus_ring(name)
    lats = [ring.self_lattice, ring.maximal_ideal_lattice()]
    minimal = [hom_lattice(c, d).key() for c in lats for d in lats]
    with monkeypatch.context() as mp:
        mp.setattr(lattice, "minimal_generators", lambda lat: lat.genset())
        full = [hom_lattice(c, d).key() for c in lats for d in lats]
    assert minimal == full


# -- valuation pivots and rank-one isomorphism shapes ------------------------------


@st.composite
def _triangularize_cases(draw):
    """1 to 3 slots over QQ or GF(7), up to 5 vectors of short Laurent
    polynomials (some zero, some with negative exponents), and a cut."""
    field = draw(st.sampled_from((QQ, FieldSpec("prime", 7))))
    nslots = draw(st.integers(1, 3))
    coeff = _coeffs(field)

    def poly():
        return LaurentPoly.from_pairs(field, draw(st.lists(st.tuples(st.integers(-1, 6), coeff), max_size=3)))

    vecs = [[poly() for _ in range(nslots)] for _ in range(draw(st.integers(0, 5)))]
    return field, vecs, nslots, draw(st.integers(1, 10))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_triangularize_cases())
def test_dvr_triangularize_matches_full_elimination(case):
    # stopping once every slot has a pivot keeps every pivot: the round
    # after the last one only reduced vectors nothing reads
    field, vecs, nslots, cut = case
    assert dvr_triangularize(field, vecs, nslots, cut) == reference_dvr_triangularize(field, vecs, nslots, cut)


_SHAPE_RINGS = ("semigroup_2_3", "semigroup_3_4_5", "semigroup_2_9", "node", "tacnode", "triple_point")


@functools.lru_cache(maxsize=None)
def _shape_ring(name):
    return _corpus_ring(name)


@st.composite
def _rank_one_twists(draw):
    """A fractional ideal N of a corpus ring and x = t^k u per branch, u a
    polynomial with nonzero constant term."""
    ring = _shape_ring(draw(st.sampled_from(_SHAPE_RINGS)))
    n = random_fractional_ideal(random.Random(draw(st.integers(0, 10**6))), ring)
    coeff = _coeffs(ring.field)
    ks, x = [], []
    for _ in range(ring.branches):
        k = draw(st.integers(-3, 4))
        terms = [(0, draw(coeff))] + draw(st.lists(st.tuples(st.integers(1, 4), coeff), max_size=2))
        ks.append(k)
        x.append(LaurentPoly.from_pairs(ring.field, terms).shift(k))
    return n, ks, tuple(x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rank_one_twists())
def test_leading_shape_is_invariant_under_rank_one_twists(case):
    # x * N shifts each tail hi and each leading exponent by k_br
    n, ks, x = case
    amb = n.ambient
    xn = Lattice.from_generators(n.ring, amb, [amb.branch_scale(x, g) for g in n.genset()])
    assert xn.hi == tuple(h + ks[amb.branch_of(c)] for c, h in enumerate(n.hi))
    assert _leading_shape(xn) == _leading_shape(n)


def _full_search(a, b):
    """Whether some minimal generator of Hom(a, b) is a surjection."""
    return any(is_surjective_onto(hom_element_as_map(a, b, g)) for g in minimal_generators(hom_lattice(a, b)))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_isomorphism_miss_matches_full_search(name):
    # family members against members and against generated rank-one
    # lattices of equal ranks: a shape miss is a miss of the full search
    ring = _corpus_ring(name)
    tree = build_chain_tree(ring)
    members = [m.lattice for m in chain_family(tree).members]
    gens = [lat for _, lat in generated_test_lattices(random.Random(f"{name}/0"), ring, tree, count=5)]
    hits = 0
    for a in members:
        for b in members + gens:
            if a.ambient.ranks != b.ambient.ranks:
                continue
            found = isomorphism(a, b) is not None
            assert found == _full_search(a, b), (a.key(), b.key())
            hits += found
    assert hits >= len(members)
