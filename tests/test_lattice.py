import os
import random

import pytest

from endochain import ringio
from endochain.chain import build_chain_tree
from endochain.field import QQ
from endochain.series import LaurentPoly, BranchVector
from endochain.curve_ring import build_ring, semigroup_ring, normalization_lattice
from endochain.lattice import (
    Ambient,
    Lattice,
    LatticeMap,
    direct_sum,
    free_decomposition_over_dvr_product,
    hom_lattice,
    is_exact_at,
    is_surjective_onto,
    kernel_lattice,
    kernel_window_module,
    largest_submodule_over,
    lattice_sum,
    membership,
    minimal_generators,
    quotient_dimension,
    raw_span,
    scalar_extension_test,
)
from endochain.verify import generated_test_lattices
from endochain.errors import AmbientMismatch, NotASubmodule, NotDvrProduct, NotFullRank
from oracle import sg_values, colon_values, ideal_values, sg_conductor


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
    assert membership(amb.unit_vec(QQ, 0, 4), m)  # t^4 = t^2 t^2
    assert not membership(amb.unit_vec(QQ, 0, 1), r.self_lattice)  # gap
    assert membership(amb.zero_vec(QQ), m)


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
    kappa = BranchVector([LaurentPoly.from_pairs(QQ, [(0, 1), (2, 3)])])
    gens = [c.ambient.branch_scale(kappa, g) for g in c.genset()]
    img = Lattice.from_generators(r, c.ambient, gens)
    assert scalar_extension_test(s, img)


def test_sum_and_direct_sum():
    r = semigroup_ring(QQ, [2, 3])
    m = r.maximal_ideal_lattice()
    s = lattice_sum(m, r.self_lattice)
    assert s == r.self_lattice  # m + R = R
    ds, injs = direct_sum([r.self_lattice, normalization_lattice(r)])
    assert ds.ambient.ranks == (2,)
    gens = minimal_generators(ds)
    assert len(gens) == 3  # 1 generator for R, two (1, t) for E
    t2f = mono_lattice(r, [2, 3])  # t^2 F[[t]]
    t3f = mono_lattice(r, [3, 4])  # t^3 F[[t]]
    assert t2f.contains_lattice(t3f)
    assert lattice_sum(t2f, t3f) == t2f


def test_sum_ambient_mismatch():
    r = semigroup_ring(QQ, [2, 3])
    ds, _ = direct_sum([r.self_lattice, r.self_lattice])
    with pytest.raises(AmbientMismatch):
        lattice_sum(ds, r.self_lattice)


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
        assert n.contains_lattice(big)
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
    r = build_ring(QQ, 2, [BranchVector([T, Z]), BranchVector([Z, T])])
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


def test_image_lattice_examples():
    from endochain.lattice import image_lattice

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


def _kernel_module(ring):
    """ker(R^2 -> R, (x, y) -> a x - b y) for two generators a, b of m."""
    gens = ring.maximal_ideal_lattice().genset()
    a, b = gens[0], gens[-1]
    src, _ = direct_sum([ring.self_lattice, ring.self_lattice])
    mats = [[[a[br], -b[br]]] for br in range(ring.branches)]
    return kernel_window_module(LatticeMap(src, ring.self_lattice, mats))


@pytest.mark.parametrize("name", sorted(f[:-5] for f in os.listdir(CORPUS)))
def test_module_span_matches_raw_span(name):
    # R-closed rows span their module without R-multiples: Module.span must
    # agree with raw_span, which closes the same rows and cones under R
    ring = ringio.ring_from_json(ringio.load_json(os.path.join(CORPUS, name + ".json")))
    tree = build_chain_tree(ring)
    lats = [ring.self_lattice, ring.maximal_ideal_lattice()]
    lats += [lat for _, lat in generated_test_lattices(random.Random(name), ring, tree)]
    cases = []
    for lat in lats:
        cut = [h + lat.mx(lat.ambient.branch_of(c)) + 1 for c, h in enumerate(lat.hi)]
        cases.append((lat, cut))
    ker, ker_cut = _kernel_module(ring)
    assert ker.rows and ker.cones
    cases.append((ker, [h + 1 for h in ker_cut]))
    for mod, cut in cases:
        lo = [v - 1 for v in mod.lo]
        _, ech = mod.span(lo, cut)
        _, ref = raw_span(ring, mod.ambient, list(mod.rows), mod.cones, lo, cut)
        assert ech.rank() > 0 and ech == ref
