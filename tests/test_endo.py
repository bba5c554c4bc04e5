import os
from fractions import Fraction

import pytest

from endochain.field import QQ, FieldSpec
from endochain.lattice import Ambient, Lattice, direct_sum, hom_lattice
from endochain.series import LaurentPoly
from endochain.curve_ring import build_ring, semigroup_ring, normalization_lattice
from endochain.chain import build_chain_tree, chain_family
from endochain.endo import (
    build_endo_algebra,
    fcmt_check,
    global_dimension,
    minimal_projective_resolution,
    projectivization_check,
    minimal_cover_syzygy,
    sink_syzygy,
)
from endochain.errors import (
    CharacteristicTooSmall,
    DuplicateSummand,
    MissingFreeSummand,
    NotIndecomposable,
)
from oracle import gamma_top, projective_gamma, rad_projective_gamma


DATA = os.path.join(os.path.dirname(__file__), "..", "data")
T = LaurentPoly.monomial(QQ, 1)
Z = LaurentPoly.zero(QQ)


def family_algebra(ring):
    tree = build_chain_tree(ring)
    fam = chain_family(tree)
    alg = build_endo_algebra(ring, fam.lattices(), fam.labels())
    return tree, alg


def test_gamma_blocks_cusp():
    r = semigroup_ring(QQ, [2, 3])
    _, alg = family_algebra(r)
    assert alg.k == 2
    # H(R -> E) = E, H(E -> R) = conductor t^2 F[[t]], End(E) = F[[t]]
    assert alg.hom[(0, 1)].hi == (0,)
    assert alg.hom[(1, 0)].lo == (2,) and alg.hom[(1, 0)].hi == (2,)
    assert alg.hom[(1, 1)].hi == (0,)


def test_radical_cusp_blocks():
    r = semigroup_ring(QQ, [2, 3])
    _, alg = family_algebra(r)
    # rad End(R) = m: positive-valuation part
    rad0 = alg.rad_diag[0]
    assert rad0.lo == (2,) and rad0.hi == (2,)
    rad1 = alg.rad_diag[1]
    assert rad1.lo == (1,) and rad1.hi == (1,)  # t F[[t]]


def test_radical_dvr():
    r = semigroup_ring(QQ, [1])
    _, alg = family_algebra(r)
    assert alg.rad_diag[0].lo == (1,)


def test_gldim_fixtures():
    for gens, expected in [([1], 1), ([2, 3], 2)]:
        r = semigroup_ring(QQ, gens)
        tree, alg = family_algebra(r)
        rep = global_dimension(alg, n=tree.n)
        assert rep.gldim == expected
        assert not rep.capped


def test_gldim_cusp_pd_multiset():
    # hand resolution: S at the free summand has pd 1 (rad P_R is a twist of
    # P_E), the other simple has pd 2
    r = semigroup_ring(QQ, [2, 3])
    tree, alg = family_algebra(r)
    rep = global_dimension(alg, n=tree.n)
    assert sorted(rep.pd_per_simple) == [1, 2]


def test_gldim_node():
    node = build_ring(QQ, 2, [(T, Z), (Z, T)])
    tree, alg = family_algebra(node)
    rep = global_dimension(alg, n=tree.n)
    assert rep.gldim == 2 and rep.gldim <= tree.n + 1


def test_gldim_2_5_recorded_and_bounded():
    r = semigroup_ring(QQ, [2, 5])
    tree, alg = family_algebra(r)
    rep = global_dimension(alg, n=tree.n)
    assert rep.gldim == 2
    assert rep.gldim <= tree.n + 1 == 3
    assert rep.multiplicity == 2  # n + 1 = 3 > e = 2: recorded, not a failure


def test_projective_has_pd_zero():
    r = semigroup_ring(QQ, [2, 3])
    _, alg = family_algebra(r)
    cert = minimal_projective_resolution(projective_gamma(alg, 0), cap=8)
    assert cert.pd == 0 and not cert.capped


def test_simple_resolution_steps_dvr():
    # P -> S is the first cover; rad P = (t) is projective, so pd S = 1
    r = semigroup_ring(QQ, [1])
    tree, alg = family_algebra(r)
    cert = minimal_projective_resolution(rad_projective_gamma(alg, 0), cap=8)
    assert cert.pd == 0 and not cert.capped
    assert cert.cover_types == [[0]]  # P -> rad P = (t)
    assert global_dimension(alg, n=tree.n).pd_per_simple == [1]


def test_top_of_projective_is_one_dimensional():
    r = semigroup_ring(QQ, [2, 5])
    _, alg = family_algebra(r)
    for i in range(alg.k):
        tops = gamma_top(projective_gamma(alg, i))
        assert len(tops) == 1 and tops[0][0] == i


def test_syzygy_of_rad_projective_terminates():
    r = semigroup_ring(QQ, [2, 3])
    _, alg = family_algebra(r)
    omega = rad_projective_gamma(alg, 1)
    types, syz = minimal_cover_syzygy(omega)
    assert len(types) == 2  # the hand computation: P_0 (+) P_1 covers rad P_1
    types2, syz2 = minimal_cover_syzygy(syz)
    assert syz2.is_zero()


def test_duplicate_summand_guard(e6_syzygy):
    r = semigroup_ring(QQ, [2, 3])
    e = normalization_lattice(r)
    with pytest.raises(DuplicateSummand):
        build_endo_algebra(r, [r.self_lattice, e, e])
    # isomorphic but unequal: m = t^2 E is a twist of E
    with pytest.raises(DuplicateSummand):
        build_endo_algebra(r, [r.self_lattice, e, r.maximal_ideal_lattice()])
    # rank 2: K and t*K on <3,4>
    r, k, tk = e6_syzygy
    with pytest.raises(DuplicateSummand):
        build_endo_algebra(r, [r.self_lattice, k, tk])


def test_build_endo_algebra_solves_each_hom_once(monkeypatch):
    # the duplicate guard reads the Hom blocks the algebra keeps, so no
    # (source, target) pair is solved twice in one build
    from endochain import endo, lattice

    ring = semigroup_ring(QQ, [2, 9])
    fam = chain_family(build_chain_tree(ring))
    solved = []
    real = lattice.hom_lattice

    def counting(c, d):
        solved.append((c.key(), d.key()))
        return real(c, d)

    monkeypatch.setattr(lattice, "hom_lattice", counting)
    monkeypatch.setattr(endo, "hom_lattice", counting)
    alg = build_endo_algebra(ring, fam.lattices(), fam.labels())
    assert len(alg.hom) == alg.k**2 and len(solved) >= alg.k**2
    assert len(solved) == len(set(solved))


def test_projectivization_checks():
    for gens in [[2, 3], [2, 5], [3, 4, 5]]:
        r = semigroup_ring(QQ, gens)
        _, alg = family_algebra(r)
        assert projectivization_check(alg)
    # negative control: End(X_i) replaced by its radical breaks P_i, and for
    # i = 0 also the counit Hom(R, R) = R; for the last summand only the
    # column solve Hom(M, X_i) = P_i can notice, as P_i is assembled from
    # the blocks at check time
    for name in ["<2,5>", "tacnode"]:
        _, alg = family_algebra(_corpus_ring(name))
        assert projectivization_check(alg), name
        for i in (0, alg.k - 1):
            block = alg.hom[(i, i)]
            alg.hom[(i, i)] = alg.rad_diag[i]
            assert not projectivization_check(alg), (name, i)
            alg.hom[(i, i)] = block


def test_fcmt_a2g_family():
    # A_{2g} curves <2, 2g+1>: overrings are a complete MCM list; gldim
    # is exactly 2 for every g >= 1
    for g in [1, 2, 3]:
        gens = [2, 2 * g + 1]
        r = semigroup_ring(QQ, gens)
        tree = build_chain_tree(r)
        fam = chain_family(tree)
        rep = fcmt_check(r, fam.lattices(), labels=fam.labels(), n=tree.n)
        assert rep.gldim == 2
        assert rep.assumptions


def test_fcmt_requires_free_summand():
    r = semigroup_ring(QQ, [2, 3])
    e = normalization_lattice(r)
    with pytest.raises(MissingFreeSummand):
        fcmt_check(r, [e])


def test_fcmt_dvr():
    r = semigroup_ring(QQ, [1])
    rep = fcmt_check(r, [r.self_lattice], n=0)
    assert rep.gldim == 1


def test_prime_field_agrees_with_rationals():
    # both fields do int arithmetic, in Laurent polynomials and echelon rows
    # alike (QQ also on Fractions), and differ only by the reduction mod p
    # that ``FieldSpec.clean`` applies over GF(p), so a lost or misplaced
    # reduction shows here: every corpus ring must give the same chain
    # depth, delta, family size, gldim and pd per simple
    from endochain.verify import corpus

    f101 = FieldSpec("prime", 101)
    r = semigroup_ring(f101, [2, 5])
    tree, alg = family_algebra(r)
    rep = global_dimension(alg, n=tree.n)
    assert rep.gldim == 2 and rep.pd_per_simple == [1, 2, 2]
    rings = zip(corpus(QQ), corpus(FieldSpec("prime", 32003)))
    for (name, rq), (_, rp) in rings:
        got = []
        for r in (rq, rp):
            tree, alg = family_algebra(r)
            rep = global_dimension(alg, n=tree.n)
            got.append((tree.n, r.delta(), alg.k, rep.gldim, rep.pd_per_simple))
        assert got[0] == got[1], name


def _coefficients(rows):
    """The coefficients of rows of LaurentPoly (lattice vectors, matrices)."""
    return [c for row in rows for poly in row for c in poly.coeffs.values()]


def _is_kernel_entry(field, x):
    """A stored coefficient, of a LaurentPoly or an echelon row: over GF(p)
    an int in [1, p), over QQ a nonzero int (not a bool) or Fraction."""
    if field.characteristic:
        return type(x) is int and 0 < x < field.characteristic
    return type(x) in (int, Fraction) and x != 0


def test_coefficients_are_exact_field_elements():
    # int / int is a float and a bool is an int: every stored coefficient,
    # of the lattice vectors and of the echelon rows behind them, must be a
    # nonzero int (not a bool) or Fraction over QQ, an int in [1, p) over GF(p)
    from endochain import ringio
    from endochain.lattice import raw_span
    from endochain.resolver import keyred_resolve
    from endochain.verify import corpus

    for field in (QQ, FieldSpec("prime", 32003)):
        coeffs, entries = 0, 0
        for name, r in corpus(field):
            tree, alg = family_algebra(r)
            lats = [nd.ring.self_lattice for nd in tree.nodes()]
            lats += [*alg.summands, *alg.hom.values(), *alg.rad_diag]
            cs = [c for lat in lats for c in _coefficients(lat.basis)]
            assert all(_is_kernel_entry(field, c) for c in cs), (field, name)
            coeffs += len(cs)
            # window() rebuilds from RREF vectors, whose leads are 1 already;
            # the spans of the Hom blocks' generators times 3 go through monic
            rows = [row for lat in lats for row in lat.window()[1].rows]
            for lat in alg.hom.values():
                gens = [lat.ambient.scale_vec(field.coerce(3), g) for g in lat.genset()]
                rows += raw_span(r, lat.ambient, gens, [], lat.lo, lat.hi)[1].rows
            assert all(_is_kernel_entry(field, x) for row in rows for x in row.values()), (field, name)
            entries += sum(len(row) for row in rows)
        assert coeffs and entries
    # a module with non-integral generators takes the Fraction branch
    ring = ringio.ring_from_json(ringio.load_json(os.path.join(DATA, "rings", "semigroup_2_5.json")))
    module = ringio.load_json(os.path.join(DATA, "modules", "m_frac_over_2_5.json"))
    res = keyred_resolve(ringio.lattice_from_json(module, ring))
    coeffs = [c for t in res.terms for c in _coefficients(t.lattice.basis)]
    coeffs += [c for f in res.maps for mat in f.mats for c in _coefficients(mat)]
    assert {type(c) for c in coeffs} == {int, Fraction}


def test_characteristic_too_small():
    f5 = FieldSpec("prime", 5)
    r = semigroup_ring(f5, [2, 7])
    with pytest.raises(CharacteristicTooSmall):
        family_algebra(r)


def test_gldim_report_json_shape():
    r = semigroup_ring(QQ, [2, 3])
    tree, alg = family_algebra(r)
    rep = global_dimension(alg, n=tree.n).as_json()
    for key in (
        "summands",
        "pd_per_simple",
        "gldim",
        "bound_chain_depth_plus_one",
        "bound_fcmt_max_2_d",
        "multiplicity",
        "chain_depth",
    ):
        assert key in rep


def test_radical_block_description():
    from endochain.endo import radical

    r = semigroup_ring(QQ, [2, 3])
    _, alg = family_algebra(r)
    blocks = radical(alg)
    # off-diagonal blocks are the full Hom lattices
    assert blocks[(0, 1)] == alg.hom[(0, 1)]
    assert blocks[(1, 0)] == alg.hom[(1, 0)]
    # diagonal blocks are proper: the identity is not in the radical
    one = alg.hom[(0, 0)].ambient.unit_vec(QQ, 0, 0)
    assert alg.hom[(0, 0)].member(one)
    assert not blocks[(0, 0)].member(one)


def test_projectives_assembled_from_hom_blocks():
    # P_i is assembled from the Hom(X_j, X_i) blocks; hom_lattice(M, X_i)
    # computes it from scratch and must give the same canonical lattice.
    # The top of P_i as a Gamma-lattice is the simple at i: one lift, of
    # type i.
    from endochain.endo import _column_lattice
    from endochain.lattice import direct_sum, hom_lattice
    from endochain.verify import corpus

    for name, r in corpus():
        _, alg = family_algebra(r)
        M, _ = direct_sum(alg.summands)
        for i, x in enumerate(alg.summands):
            assert _column_lattice(alg, M, i).key() == hom_lattice(M, x).key(), (name, i)
            tops = gamma_top(projective_gamma(alg, i))
            assert [j for j, _ in tops] == [i], (name, i)


def test_hom_into_pair_is_sum_of_columns():
    # Hom(M, -) is additive, which is why projectivization_check solves
    # Hom(M, X_i) once per summand and never for a pair X_i + X_j
    from endochain.lattice import direct_sum, hom_lattice
    from endochain.verify import corpus

    pairs = 0
    for name, r in corpus():
        _, alg = family_algebra(r)
        if alg.k < 2:
            continue
        M, _ = direct_sum(alg.summands)
        x = alg.summands
        for i, j in [(alg.k - 2, alg.k - 1), (alg.k - 1, alg.k - 1)]:
            pair, _ = direct_sum([x[i], x[j]])
            cols, _ = direct_sum([hom_lattice(M, x[i]), hom_lattice(M, x[j])])
            assert hom_lattice(M, pair).key() == cols.key(), (name, i, j)
            pairs += 1
    assert pairs


def _drop_last_top(tops):
    return tops[:-1]


def _add_top_below_window(tops):
    j, lift = tops[-1]
    return tops + [(j, tuple(a.shift(-50) for a in lift))]


@pytest.mark.parametrize("tamper", [_drop_last_top, _add_top_below_window])
def test_cover_certificate_negative_control(monkeypatch, tamper):
    # dropping a top lift leaves part of Q/Q rad uncovered; an extra lift far
    # below the window maps outside Q and must not be skipped by the window.
    # Either way the certificate built on the shared Q rad span must fail.
    from endochain import endo
    from endochain.errors import ClaimViolation

    r = semigroup_ring(QQ, [2, 3])
    _, alg = family_algebra(r)
    omega = rad_projective_gamma(alg, 1)
    full = endo._top_lifts

    def tampered(*spans):
        tops = full(*spans)
        assert len(tops) == 2
        return tamper(tops)

    monkeypatch.setattr(endo, "_top_lifts", tampered)
    with pytest.raises(ClaimViolation, match="minimal cover is not surjective"):
        minimal_cover_syzygy(omega)


def test_zero_gamma_lattice_is_refused_before_a_cover_step(monkeypatch):
    # a zero Gamma-lattice has no minimal resolution to compute: it is named
    # as the input at fault, and no cover step runs
    from endochain import endo
    from endochain.endo import GammaLattice
    from endochain.errors import ClaimViolation
    from endochain.lattice import Module

    _, alg = family_algebra(semigroup_ring(QQ, [2, 3]))
    blocks = GammaLattice(alg, (1,), []).blocks
    zero = GammaLattice(alg, (1,), [Module(alg.ring, b.ambient, [], [], b.lo) for b in blocks])
    monkeypatch.setattr(endo, "minimal_cover_syzygy", lambda q: pytest.fail("a cover step ran"))
    with pytest.raises(ClaimViolation, match="the Gamma-lattice to resolve is zero") as err:
        minimal_projective_resolution(zero)
    assert err.value.context == {"col_types": [1]}


def _corpus_ring(name):
    from endochain.verify import corpus

    return dict(corpus())[name]


@pytest.mark.parametrize("name,arrows", [("<2,7>", 7), ("<3,5>", 8)])
def test_arrows_span_radical_mod_square(name, arrows):
    # the arrows lift an F-basis of J/J^2, J = rad Gamma
    _, alg = family_algebra(_corpus_ring(name))
    assert len(alg.arrows) == arrows


def _drop_last_arrow(arrows, alg):
    return arrows[:-1]


def _add_identity_arrow(arrows, alg):
    return arrows + [(0, 0, alg.hom[(0, 0)].ambient.unit_vec(alg.ring.field, 0, 0))]


def _scale_last_arrow_by_t(arrows, alg):
    j, l, a = arrows[-1]
    return arrows[:-1] + [(j, l, tuple(c.shift(1) for c in a))]


@pytest.mark.parametrize("name", ["<2,3>", "tacnode"])
@pytest.mark.parametrize("tamper", [_drop_last_arrow, _add_identity_arrow, _scale_last_arrow_by_t])
def test_arrow_certificate_negative_control(monkeypatch, name, tamper):
    # too few arrows would make the sink covers and Q * rad too small
    # (non-minimal covers, wrong pd), and so would an arrow moved into J^2
    # (scaled by t); an arrow outside rad Gamma would make them too large.
    # Each way the sink certificate must refuse the algebra.
    from endochain.endo import EndoAlgebra
    from endochain.errors import ClaimViolation

    full = EndoAlgebra.rad_gens
    monkeypatch.setattr(EndoAlgebra, "rad_gens", lambda alg: tamper(full(alg), alg))
    with pytest.raises(ClaimViolation, match="arrows do not generate rad Gamma"):
        family_algebra(_corpus_ring(name))


@pytest.mark.parametrize("name", ["<2,7>", "<3,5>", "tacnode"])
def test_gldim_invariant_under_summand_permutation(name):
    # rotating the non-free summands rotates pd_per_simple the same way
    ring = _corpus_ring(name)
    tree = build_chain_tree(ring)
    lats = chain_family(tree).lattices()
    perm = [0] + list(range(2, len(lats))) + [1]
    base = global_dimension(build_endo_algebra(ring, lats), n=tree.n)
    rep = global_dimension(build_endo_algebra(ring, [lats[i] for i in perm]), n=tree.n)
    assert len(lats) > 2
    assert rep.pd_per_simple == [base.pd_per_simple[i] for i in perm]
    assert rep.gldim == base.gldim


@pytest.mark.parametrize(
    "name,dim", [("node", 2), ("tacnode", 2), ("cusp_line", 2), ("triple_point", 3), ("<3,4>", 4)]
)
def test_decomposable_summand_is_not_indecomposable(name, dim):
    # End(E) of a ring with b branches is F^b modulo its radical, and
    # End(m (+) m) over <3,4> is M_2(End(m)), so M_2(F) modulo its radical:
    # neither is local, and the summand is refused with dim End/rad
    ring = _corpus_ring(name)
    if name == "<3,4>":
        m = ring.maximal_ideal_lattice()
        x = direct_sum([m, m])[0]
    else:
        x = normalization_lattice(ring)
    with pytest.raises(NotIndecomposable) as err:
        build_endo_algebra(ring, [ring.self_lattice, x])
    assert err.value.context == {"label": "X1", "dim": dim}


def _radical_or_error(route, alg, i):
    """The key of ``route(alg, i)``, or the code and context it raises."""
    try:
        return route(alg, i).key()
    except (NotIndecomposable, CharacteristicTooSmall) as e:
        return e.code, e.context


@pytest.mark.parametrize("field", [QQ, FieldSpec("prime", 32003)], ids=["qq", "gf32003"])
@pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(DATA, "rings"))))
def test_radical_matches_trace_form_reference(name, field):
    # the top action X/mX gives the radical of the former trace-form route
    # on End(X)/z End(X), for every chain family member of every data ring
    from endochain import ringio
    from oracle import reference_diagonal_radical

    obj = ringio.load_json(os.path.join(DATA, "rings", name))
    _, alg = family_algebra(ringio.ring_from_json(dict(obj, field=field.as_json())))
    for i in range(alg.k):
        assert alg.rad_diag[i].key() == reference_diagonal_radical(alg, i).key(), (name, i)


def _skewed_sum(ring, x, y, k):
    """g(X (+) Y) in rank two per branch, g = [[1, t^-k], [0, 1]] on every
    branch: isomorphic to X (+) Y, but with mX rows whose pivot lies before
    a top pivot and whose entries reach it."""
    zero = LaurentPoly.zero(ring.field)
    gens = [tuple(p for a in v for p in (a, zero)) for v in x.genset()]
    gens += [tuple(p for a in w for p in (a.shift(-k), a)) for w in y.genset()]
    return Lattice.from_generators(ring, Ambient([2] * ring.branches), gens)


@pytest.mark.parametrize(
    "name",
    ["<1>", "<2,3>", "<2,5>", "<2,7>", "<3,4>", "<3,5>", "<3,4,5>", "<4,5,6,7>", "node", "triple_point", "tacnode", "cusp_line"],
)
def test_radical_of_generated_lattices_matches_reference(name):
    # the rank-one generated lattices, decomposable ones included (both
    # routes must refuse them with the same dim End/rad), and skewed sums
    # of two family members: on rank one End(X) acts branch by branch and
    # no diagonal coordinate of the top takes a correction from mX, so the
    # skewed sums are what check the reduction modulo mX
    import random
    from types import SimpleNamespace

    from endochain.endo import diagonal_radical
    from endochain.verify import generated_test_lattices
    from oracle import reference_diagonal_radical

    ring = _corpus_ring(name)
    tree = build_chain_tree(ring)
    lats = generated_test_lattices(random.Random(name), ring, tree, count=10)
    xs = [lat for _, lat in lats if lat.ambient.ranks == (1,) * ring.branches]
    fam = [lat for lat in chain_family(tree).lattices() if lat.ambient.ranks == (1,) * ring.branches]
    xs += [_skewed_sum(ring, fam[0], fam[-1], k) for k in (1, 2)]
    for x in xs:
        alg = SimpleNamespace(ring=ring, summands=[x], labels=["X"], hom={(0, 0): hom_lattice(x, x)})
        got = _radical_or_error(diagonal_radical, alg, 0)
        assert got == _radical_or_error(reference_diagonal_radical, alg, 0), (name, x.key())


# the simples whose second syzygy Hom(M, ker lam_i) is neither 0 nor a
# member's projective, so that it goes to the Gamma loop
SINK_FALLBACK = {"cusp_line": ["S1"], "semigroup_3_4": ["S1"], "semigroup_3_5": ["S1"], "triple_point": ["S1", "S2", "S3"]}


def _ring_in(path, field):
    from endochain import ringio

    return ringio.ring_from_json(dict(ringio.load_json(path), field=field.as_json()))


def _assert_sink_route_matches_gamma_route(alg, n):
    # the former first cover step, P_i -> S_i with kernel rad P_i, and the
    # Gamma loop from there give the same pd as the sink route
    rep = global_dimension(alg, n=n)
    certs = [minimal_projective_resolution(rad_projective_gamma(alg, i)) for i in range(alg.k)]
    assert not rep.capped and not any(c.capped for c in certs)
    assert rep.pd_per_simple == [1 + c.pd for c in certs]


@pytest.mark.parametrize("field", [QQ, FieldSpec("prime", 32003)], ids=["qq", "gf32003"])
@pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(DATA, "rings"))))
def test_sink_route_matches_gamma_route(name, field):
    tree, alg = family_algebra(_ring_in(os.path.join(DATA, "rings", name), field))
    _assert_sink_route_matches_gamma_route(alg, tree.n)
    fallback = [alg.labels[i] for i in range(alg.k) if sink_syzygy(alg, i)[0] is None]
    assert fallback == SINK_FALLBACK.get(name[: -len(".json")], [])


@pytest.mark.slow
@pytest.mark.parametrize("field", [QQ, FieldSpec("prime", 32003)], ids=["qq", "gf32003"])
@pytest.mark.parametrize("name", ["semigroup_5_9", "a_21"])
def test_sink_route_matches_gamma_route_on_large_rings(name, field):
    path = os.path.join(os.path.dirname(__file__), "golden", "large", "rings", name + ".json")
    tree, alg = family_algebra(_ring_in(path, field))
    _assert_sink_route_matches_gamma_route(alg, tree.n)
