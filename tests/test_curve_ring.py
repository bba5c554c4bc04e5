import itertools
import json
import math
import os

import pytest

from endochain import ringio
from endochain.chain import build_chain_tree
from endochain.field import QQ, FieldSpec
from endochain.series import LaurentPoly
from endochain.curve_ring import (
    MAX_WINDOW,
    build_ring,
    semigroup_ring,
    maximal_ideal,
    factor,
    ring_report,
    normalization_lattice,
)
from endochain.errors import (
    ClaimViolation,
    NoFiniteConductor,
    NotCoprime,
    NotIdempotentFactor,
    NotLocal,
    SchemaError,
)
from endochain.lattice import Ambient, Lattice
from oracle import branch_atoms_by_membership, sg_conductor, sg_gaps, sg_minimal_generators, sg_values


T = LaurentPoly.monomial(QQ, 1)
Z = LaurentPoly.zero(QQ)
CORPUS = os.path.join(os.path.dirname(__file__), "..", "data", "rings")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def node_ring():
    return build_ring(QQ, 2, [(T, Z), (Z, T)])


def test_cusp_window_closure():
    r = semigroup_ring(QQ, [2, 3])
    assert r.conductor == (2,)
    rep = ring_report(r)
    assert rep.multiplicity == 2 and rep.delta == 1


def test_dvr():
    r = semigroup_ring(QQ, [1])
    assert r.conductor == (0,)
    assert r.is_dvr_product()
    rep = ring_report(r)
    assert rep.multiplicity == 1 and rep.delta == 0 and rep.is_dvr_product


def test_node_from_generators():
    r = node_ring()
    assert r.conductor == (1, 1)
    assert r.is_local
    rep = ring_report(r)
    assert rep.multiplicity == 2 and rep.delta == 1


# the last four need windows beyond the general cap of 192 (semigroup_ring's
# proven cap)
@pytest.mark.parametrize(
    "gens",
    [[2, 3], [2, 5], [3, 4], [3, 5], [3, 4, 5], [4, 5, 6, 7], [2, 7], [6, 11], [7, 11], [9, 10], [10, 11]],
)
def test_semigroup_rings_against_oracle(gens):
    r = semigroup_ring(QQ, gens)
    assert r.conductor == (sg_conductor(gens),)
    rep = ring_report(r)
    assert rep.multiplicity == min(gens)
    assert rep.delta == len(sg_gaps(gens))
    assert rep.embedding_dim == len(sg_minimal_generators(gens))
    # window basis value set matches the semigroup below the conductor
    vals = {v[0].valuation() for v in r.self_lattice.basis}
    expected = {v for v in sg_values(gens, r.conductor[0])}
    assert vals == expected


def test_semigroup_2_5_values():
    r = semigroup_ring(QQ, [2, 5])
    assert r.conductor == (4,)
    rep = ring_report(r)
    assert rep.multiplicity == 2 and rep.delta == 2


def test_semigroup_requires_gcd_one():
    with pytest.raises(NotCoprime):
        semigroup_ring(QQ, [2, 4])


def test_no_finite_conductor():
    # the diagonal {(f, f)} inside two branches never reaches a conductor
    with pytest.raises(NoFiniteConductor) as exc:
        build_ring(QQ, 2, [(T, T)])
    assert exc.value.context == {"window": MAX_WINDOW}


@pytest.mark.parametrize(
    "gen",
    [[T, Z], (T,), (T, 1), (T, LaurentPoly.from_pairs(QQ, [(-1, 1), (2, 3)]))],
    ids=["list", "branch_count", "not_laurent", "negative_exponent"],
)
def test_build_ring_rejects_malformed_generators(gen):
    with pytest.raises(SchemaError):
        build_ring(QQ, 2, [(Z, T), gen])


def test_semigroup_bound_takes_coprime_pairs():
    # a coprime pair a, b of generators bounds the conductor by
    # (a - 1)(b - 1), often below Schur's (a_min - 1)(a_max - 1): every
    # semigroup of 3 or 4 generators in 3..11 with gcd 1 builds the same ring
    # under Schur's bound, and most at a smaller window
    smaller = 0
    sets = [g for k in (3, 4) for g in itertools.combinations(range(3, 12), k) if math.gcd(*g) == 1]
    assert len(sets) == 204
    for gens in sets:
        r = semigroup_ring(QQ, gens)
        schur = semigroup_ring(QQ, gens, conductor_bound=[(gens[0] - 1) * (gens[-1] - 1)])
        assert r.key() == schur.key() and r.gens == schur.gens
        smaller += r.window_bound < schur.window_bound
    assert smaller == 175
    # (4, 5) gives 12 against Schur's 18: 2 * 12 + 7 + 2 instead of 45
    assert semigroup_ring(QQ, [4, 5, 6, 7]).window_bound == 33
    # no coprime pair in <6,10,15>: Schur's 5 * 14 = 70 stays
    assert semigroup_ring(QQ, [6, 10, 15]).window_bound == 2 * 70 + 15 + 2


def test_wrong_conductor_bound_raises():
    # <4,7> has conductor 18: the bound 17 gives the one window
    # 2 * 17 + 7 + 2 = 43, below the 2 * 18 + 7 + 2 = 45 the rule needs.  On
    # the node (conductor (1, 1)) the bound (1, 0) keeps the window, and
    # the branch it is wrong on is caught
    assert semigroup_ring(QQ, [4, 7]).conductor == (18,)
    with pytest.raises(NoFiniteConductor):
        semigroup_ring(QQ, [4, 7], conductor_bound=[17])
    with pytest.raises(NoFiniteConductor):
        build_ring(QQ, 2, node_ring().gens, conductor_bound=[1, 0])


@pytest.mark.parametrize("name", sorted(f[: -len(".json")] for f in os.listdir(CORPUS)))
def test_corpus_chain_rings_rebuild_alike(name, rebuilds_agree):
    # every ring of a corpus chain tree, End(m) before it splits too: its
    # conductors against the golden chain report, then rebuilt three ways
    ring = ringio.ring_from_json(ringio.load_json(os.path.join(CORPUS, name + ".json")))
    with open(os.path.join(GOLDEN, f"chain-{name}.json")) as f:
        golden = json.load(f)
    nodes = build_chain_tree(ring).nodes()
    assert [list(nd.ring.conductor) for nd in nodes] == [g["conductor"] for g in golden["nodes"]]
    for nd in nodes:
        for s in (nd.ring, nd.r1):
            if s is not None:
                rebuilds_agree(s)


def test_fake_conjugate_constants_split_the_ring():
    # (1, -1) is a unit of order two, so (1+u)/2 is an idempotent: over a
    # prime coefficient field "conjugate constants" force a splitting
    # rather than a bigger residue field (kept local, residue is always F).
    u = (LaurentPoly.from_pairs(QQ, [(0, 1)]), LaurentPoly.from_pairs(QQ, [(0, -1)]))
    r = build_ring(QQ, 2, [u, (T, Z), (Z, T)])
    assert not r.is_local
    assert sorted(r.atoms) == [(0,), (1,)]


def _chain_rings(ring):
    """The ring and every ring of its chain tree, End(m) before it splits
    too."""
    nodes = build_chain_tree(ring).nodes()
    return [nd.ring for nd in nodes] + [nd.r1 for nd in nodes if nd.r1 is not None]


def _axes(field, b):
    """The b coordinate axes: generators t * e_i."""
    amb = Ambient([1] * b)
    return build_ring(field, b, [amb.unit_vec(field, i, 1) for i in range(b)])


@pytest.mark.parametrize("field", [QQ, FieldSpec("prime", 32003)], ids=["qq", "gf32003"])
@pytest.mark.parametrize("name", sorted(f[: -len(".json")] for f in os.listdir(CORPUS)))
def test_atoms_match_the_membership_search(name, field):
    # the atoms read off the constant terms against the subset search, in
    # its order, on every ring of the corpus chain trees
    obj = dict(ringio.load_json(os.path.join(CORPUS, name + ".json")), field=field.as_json())
    for s in _chain_rings(ringio.ring_from_json(obj)):
        assert s.atoms == branch_atoms_by_membership(s), s


def test_atoms_of_tacnode_line_in_size_order():
    # End(m) of the tacnode_line has the atoms (1,) and (0, 2): the pivot
    # order of the constant terms would put (0, 2) first
    ring = ringio.ring_from_json(ringio.load_json(os.path.join(GOLDEN, "rings", "tacnode_line.json")))
    assert build_chain_tree(ring).root.r1.atoms == ((1,), (0, 2))
    for s in _chain_rings(ring):
        assert s.atoms == branch_atoms_by_membership(s), s


@pytest.mark.parametrize("b", range(2, 9))
def test_atoms_of_the_coordinate_axes(b):
    for s in _chain_rings(_axes(QQ, b)):
        assert s.atoms == branch_atoms_by_membership(s), s


def test_atoms_take_one_member_test_each(monkeypatch):
    # the 12 coordinate axes: one atom, so one membership certificate; a
    # search over branch subsets makes 2^12 - 1 = 4095 membership tests
    calls = []
    real = Lattice.member
    monkeypatch.setattr(Lattice, "member", lambda lat, v: calls.append(v) or real(lat, v))
    ring = _axes(QQ, 12)
    assert ring.atoms == (tuple(range(12)),)
    assert len(calls) == 1


def test_atom_without_its_idempotent_is_refused(monkeypatch):
    monkeypatch.setattr(Lattice, "member", lambda lat, v: False)
    with pytest.raises(ClaimViolation, match="idempotent"):
        node_ring()


def test_maximal_ideal_cusp():
    r = semigroup_ring(QQ, [2, 3])
    m = r.maximal_ideal_lattice()
    # m = t^2 F[[t]]: empty window basis, tail exponent 2
    assert m.lo == (2,) and m.hi == (2,) and m.basis == ()


def test_maximal_ideal_generators():
    r = semigroup_ring(QQ, [3, 4])
    from endochain.lattice import minimal_generators

    gens = minimal_generators(r.maximal_ideal_lattice())
    vals = sorted(g[0].valuation() for g in gens)
    assert vals == [3, 4]


def test_maximal_ideal_dvr():
    r = semigroup_ring(QQ, [1])
    m = r.maximal_ideal_lattice()
    assert m.lo == (1,) and m.hi == (1,) and m.basis == ()


def test_maximal_ideal_node():
    r = node_ring()
    m = r.maximal_ideal_lattice()
    assert m.lo == (1, 1) and m.hi == (1, 1)
    from endochain.lattice import minimal_generators

    gens = minimal_generators(m)
    assert len(gens) == 2


def test_maximal_ideal_requires_local():
    e = build_ring(QQ, 2, [(LaurentPoly.one(QQ), Z), (T, Z), (Z, T)])
    assert not e.is_local
    with pytest.raises(NotLocal):
        maximal_ideal(e)
    with pytest.raises(NotLocal):
        e.maximal_ideal_gens()


def test_branch_idempotents_node_vs_product():
    assert list(node_ring().atoms) == [(0, 1)]
    e = build_ring(QQ, 2, [(LaurentPoly.one(QQ), Z), (T, Z), (Z, T)])
    assert sorted(e.atoms) == [(0,), (1,)]
    assert list(semigroup_ring(QQ, [2, 3]).atoms) == [(0,)]


def test_factor_of_product():
    e = build_ring(QQ, 2, [(LaurentPoly.one(QQ), Z), (T, Z), (Z, T)])
    f0 = factor(e, (0,))
    assert f0.branches == 1 and f0.is_dvr_product()


def test_factor_rejects_non_idempotent():
    with pytest.raises(NotIdempotentFactor):
        factor(node_ring(), (0,))


def test_factor_partition_reconstructs():
    e = build_ring(QQ, 2, [(LaurentPoly.one(QQ), Z), (T, Z), (Z, T)])
    from endochain.chain import embedded_ring_lattice

    parts = [embedded_ring_lattice(e, (0,), factor(e, (0,))), embedded_ring_lattice(e, (1,), factor(e, (1,)))]
    # the sum of the two factor lattices is E itself; compare generator sets
    amb = Ambient([1, 1])
    gens = []
    for lat, pos in zip(parts, [(0,), (1,)]):
        for g in lat.genset():
            vec = list(amb.zero_vec(QQ))
            for i, p in enumerate(pos):
                vec[amb.coord(p, 0)] = g[lat.ambient.coord(p, 0)]
            gens.append(tuple(vec))
    rebuilt = Lattice.from_generators(e, amb, gens)
    assert rebuilt == e.self_lattice


def test_window_double_check_determinism():
    r1 = semigroup_ring(QQ, [3, 5])
    r2 = semigroup_ring(QQ, [3, 5], window_hint=2 * r1.window_bound)
    assert r1.key() == r2.key()


def test_normalization_lattice():
    r = semigroup_ring(QQ, [2, 3])
    e = normalization_lattice(r)
    assert e.hi == (0,) and e.lo == (0,) and e.basis == ()


def test_window_basis_multiplicatively_closed():
    r = semigroup_ring(QQ, [3, 4])
    lat = r.self_lattice
    for a in lat.genset():
        for b in lat.genset():
            prod = tuple(x * y for x, y in zip(a, b))
            assert lat.member(prod)


def test_conductor_tail_membership():
    r = node_ring()
    amb = r.self_lattice.ambient
    for br in range(2):
        for m in range(4):
            mono = amb.unit_vec(QQ, br, r.conductor[br] + m)
            assert r.self_lattice.member(mono)


@pytest.mark.parametrize("name", ["node", "triple_point", "tacnode", "cusp_line"])
def test_factor_matches_restricted_window_basis(name):
    # factor closes the parent's generators restricted to T; the restricted
    # window basis plus the conductor monomials generate the same ring
    ring = ringio.ring_from_json(ringio.load_json(os.path.join(CORPUS, name + ".json")))
    for nd in build_chain_tree(ring).nodes():
        if nd.r1 is None:
            continue
        s1 = nd.r1
        for T in s1.atoms:
            gens = [tuple(v[b] for b in T) for v in s1.scalar_basis()]
            for i, b in enumerate(T):
                c = s1.conductor[b]
                gens += [Ambient([1] * len(T)).unit_vec(QQ, i, c + m) for m in range(max(c, 1) + 1)]
            assert factor(s1, T).key() == build_ring(QQ, len(T), gens).key()
