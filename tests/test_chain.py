import os

import pytest

from endochain import ringio
from endochain.field import QQ, FieldSpec
from endochain.series import LaurentPoly
from endochain.curve_ring import build_ring, placed_ring, semigroup_ring
from endochain.chain import (
    build_chain_tree,
    chain_family,
    chain_json,
    embedded_ring_lattice,
    end_of_maximal_ideal,
    normalization_check,
    representation_module,
)
from endochain import chain, curve_ring, lattice
from endochain.errors import AlreadyNormal, ClaimViolation, NotLocal
from endochain.lattice import hom_lattice, minimal_generators
from oracle import end_chain_value_sets


HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "..", "data", "rings")
LARGE = os.path.join(HERE, "golden", "large", "rings")
T = LaurentPoly.monomial(QQ, 1)
Z = LaurentPoly.zero(QQ)


def node_ring():
    return build_ring(QQ, 2, [(T, Z), (Z, T)])


def test_end_of_maximal_ideal_cusp():
    r = semigroup_ring(QQ, [2, 3])
    s = end_of_maximal_ideal(r)
    assert s.conductor == (0,)  # F[[t]]
    assert s.is_dvr_product()


def test_end_of_maximal_ideal_node_is_full_product():
    s = end_of_maximal_ideal(node_ring())
    assert s.conductor == (0, 0)
    assert not s.is_local


def test_end_of_maximal_ideal_2_5():
    s = end_of_maximal_ideal(semigroup_ring(QQ, [2, 5]))
    expect = semigroup_ring(QQ, [2, 3])
    assert s.key() == expect.key()


def test_ring_generators_drop_constants():
    # the minimal generators of End(m) over R include the identity, and
    # build_ring adjoins 1 anyway: End(m) of <3,5> keeps t^7, t^3, t^5, and
    # no ring of a corpus chain tree keeps a constant multiple of 1
    from endochain.verify import corpus

    s = end_of_maximal_ideal(semigroup_ring(QQ, [3, 5]))
    assert [g[0] for g in s.gens] == [LaurentPoly.monomial(QQ, e) for e in (7, 3, 5)]
    for name, r in corpus():
        for nd in build_chain_tree(r).nodes():
            for ring in filter(None, (nd.ring, nd.r1)):
                for g in ring.gens:
                    constant = set(g[0].coeffs) <= {0} and all(p == g[0] for p in g)
                    assert not constant, name


def test_end_rejects_normal_ring():
    with pytest.raises(AlreadyNormal):
        end_of_maximal_ideal(semigroup_ring(QQ, [1]))


@pytest.mark.parametrize(
    "gens",
    [[1], [2, 3], [2, 5], [2, 7], [3, 4], [3, 5], [3, 4, 5], [4, 5, 6, 7]],
)
def test_chain_depth_matches_value_set_oracle(gens):
    r = semigroup_ring(QQ, gens)
    tree = build_chain_tree(r)
    _, n_expected = end_chain_value_sets(gens)
    assert tree.n == n_expected
    assert normalization_check(tree)
    for leaf in tree.leaves():
        assert leaf.ring.is_dvr_product()


@pytest.mark.parametrize("gens", [[4, 7], [5, 6], [6, 7], [5, 9]])
def test_prime_field_chain_agrees_with_rationals(gens):
    # the chain_ladder rings past the corpus (delta 9-16): GF(32003) and QQ
    # share the echelon kernel's int arithmetic up to the reduction mod p,
    # so chain depth, delta and family size must agree, and the depth must
    # be the value-set oracle's
    got = []
    for field in (QQ, FieldSpec("prime", 32003)):
        r = semigroup_ring(field, gens)
        tree = build_chain_tree(r)
        got.append((tree.n, r.delta(), len(chain_family(tree).lattices())))
    assert got[0] == got[1]
    assert got[0][0] == end_chain_value_sets(gens)[1]


LADDER = [(4, 7), (5, 6), (5, 7), (5, 8), (6, 7), (4, 9), (5, 9)]


def _tree_counting_closures(monkeypatch, make_root):
    """The chain tree of make_root(), and for the root build and then for
    the tree under it, [build_ring calls, closures made with multipliers]."""
    real_build, real_close = curve_ring.build_ring, lattice._close
    counts = []

    def build(*a, **kw):
        counts[-1][0] += 1
        return real_build(*a, **kw)

    def close(ws, ech, vecs, cones=(), mults=()):
        counts[-1][1] += bool(mults)
        return real_close(ws, ech, vecs, cones, mults)

    for mod in (curve_ring, ringio):
        monkeypatch.setattr(mod, "build_ring", build)
    for mod in (curve_ring, lattice):
        monkeypatch.setattr(mod, "_close", close)
    counts.append([0, 0])
    root = make_root()
    counts.append([0, 0])
    tree = build_chain_tree(root)
    monkeypatch.undo()
    return tree, counts


def _placed_from_parents(tree):
    """Each End(m) below the root is Hom(m, m) of its node's ring, and each
    factor its End(m)'s basis rows on its branches, with that conductor."""
    for nd in tree.nodes():
        if nd.r1 is None:
            continue
        h = hom_lattice(nd.ring.maximal_ideal_lattice(), nd.ring.maximal_ideal_lattice())
        assert (nd.r1.conductor, nd.r1.self_lattice.basis) == (h.hi, h.basis)
        for T, ch in nd.children:
            rows = [tuple(v[b] for b in T) for v in nd.r1.self_lattice.basis if any(v[b] for b in T)]
            assert ch.ring.conductor == tuple(nd.r1.conductor[b] for b in T)
            assert ch.ring.self_lattice.basis == tuple(rows)


@pytest.mark.parametrize("field", [QQ, FieldSpec("prime", 32003)], ids=["qq", "gf32003"])
@pytest.mark.parametrize("gens", LADDER)
def test_ladder_rings_close_once_at_proven_windows(gens, field, monkeypatch, rebuilds_agree):
    # the chain tree closes F[gens] exactly once, at the root's
    # self-certifying window of its semigroup bound; every End(m) below it is
    # placed from Hom(m, m), with no build_ring call and no closure with
    # multipliers; one branch, so each End(m) is the child ring
    tree, counts = _tree_counting_closures(monkeypatch, lambda: semigroup_ring(field, gens))
    nodes = tree.nodes()
    assert counts == [[1, 1], [0, 0]]
    a, b = gens
    assert nodes[0].ring.window_bound == 2 * (a - 1) * (b - 1) + b + 2
    _placed_from_parents(tree)
    conductors = []
    for vs in end_chain_value_sets(list(gens))[0]:
        c = max(vs) + 1
        while c - 1 in vs:
            c -= 1
        conductors.append((c,))
    assert [nd.ring.conductor for nd in nodes] == conductors
    for nd in nodes:
        rebuilds_agree(nd.ring)


@pytest.mark.parametrize("path", [os.path.join(DATA, "tacnode.json"), os.path.join(LARGE, "a_21.json")], ids=["tacnode", "a_21"])
def test_split_chain_rings_close_once_at_inherited_windows(path, monkeypatch, rebuilds_agree):
    # two branches: the root is built once, on the unbounded window schedule
    # (A_21 closes at two windows), and End(m) and each factor e_T End(m)
    # under it are placed, with no closure with multipliers; every ring,
    # End(m) before it splits too, is the one the unbounded generator route
    # builds
    obj = ringio.load_json(path)
    tree, counts = _tree_counting_closures(monkeypatch, lambda: ringio.ring_from_json(obj))
    assert counts[0][0] == 1 and counts[1] == [0, 0]
    _placed_from_parents(tree)
    factors = [ch for nd in tree.nodes() for _, ch in nd.children if ch.ring is not nd.r1]
    assert len(factors) == 2
    for nd in tree.nodes():
        for s in (nd.ring, nd.r1):
            if s is not None:
                rebuilds_agree(s)


def test_chain_ring_without_its_parents_generators_raises(monkeypatch):
    # End(m) of <3,5> placed with the minimal generators of End(m) over R
    # alone, without m's, or with one of m's dropped: its gens would not be
    # shown to generate it, and placed_ring refuses them
    r = semigroup_ring(QQ, [3, 5])
    m = r.maximal_ideal_lattice()
    h = hom_lattice(m, m)
    hgens, mgens = minimal_generators(h), minimal_generators(m)
    for gens in (hgens, hgens + mgens[1:]):
        with pytest.raises(ClaimViolation):
            placed_ring(QQ, h.hi, h.basis, max(h.hi), gens, kept=mgens)
    assert placed_ring(QQ, h.hi, h.basis, max(h.hi), hgens + mgens, kept=mgens).key() == end_of_maximal_ideal(r).key()
    # a Hom(m, m) whose lowest valuation is not 0 is no ring inside E; here
    # m itself stands in for it (lo 3), and it is refused before placement
    monkeypatch.setattr(chain, "hom_lattice", lambda c, d: d)
    with pytest.raises(ClaimViolation, match="valuation"):
        end_of_maximal_ideal(semigroup_ring(QQ, [3, 5]))


def test_chain_members_match_value_sets():
    gens = [2, 7]
    r = semigroup_ring(QQ, gens)
    tree = build_chain_tree(r)
    chain_sets, _ = end_chain_value_sets(gens)
    nodes = tree.nodes()
    assert len(nodes) == len(chain_sets)
    for node, vs in zip(nodes, chain_sets):
        got = {v[0].valuation() for v in node.ring.self_lattice.basis}
        got |= set(range(node.ring.conductor[0], 12))
        assert got == {v for v in vs if v < 12}


def test_node_tree():
    tree = build_chain_tree(node_ring())
    assert tree.n == 1
    assert len(tree.leaves()) == 2
    assert normalization_check(tree)
    fam = chain_family(tree)
    assert len(fam.members) == 3
    m, _ = representation_module(fam)
    assert m.ambient.ranks == (2, 2)


def test_triple_point_tree():
    trip = build_ring(
        QQ, 3, [(T, Z, Z), (Z, T, Z), (Z, Z, T)]
    )
    tree = build_chain_tree(trip)
    assert tree.n == 1
    assert len(tree.leaves()) == 3
    assert normalization_check(tree)


def test_tacnode_tree():
    tac = build_ring(QQ, 2, [(T, T), (T * T, Z)])
    tree = build_chain_tree(tac)
    assert tree.n == 2
    # middle ring is the node
    mid = tree.root.children[0][1]
    assert mid.ring.conductor == (1, 1) and mid.ring.is_local
    assert normalization_check(tree)


def test_chain_tree_requires_local():
    e = build_ring(QQ, 2, [(LaurentPoly.one(QQ), Z), (T, Z), (Z, T)])
    with pytest.raises(NotLocal):
        build_chain_tree(e)


def test_depth_zero_for_dvr():
    tree = build_chain_tree(semigroup_ring(QQ, [1]))
    assert tree.n == 0 and tree.root.is_leaf()
    assert normalization_check(tree)


def test_strictness_and_delta_decrease():
    for gens in [[2, 7], [3, 5], [4, 5, 6, 7]]:
        tree = build_chain_tree(semigroup_ring(QQ, gens))
        for node in tree.nodes():
            for _, ch in node.children:
                assert ch.ring.delta() < node.ring.delta()
        assert tree.n <= tree.root.ring.delta()


def test_family_deduplication_and_root_first():
    r = semigroup_ring(QQ, [2, 5])
    tree = build_chain_tree(r)
    fam = chain_family(tree)
    assert fam.members[0].lattice == r.self_lattice
    keys = [m.lattice.key() for m in fam.members]
    assert len(keys) == len(set(keys))
    assert len(fam.members) == 3


def test_representation_module_cusp():
    r = semigroup_ring(QQ, [2, 3])
    fam = chain_family(build_chain_tree(r))
    m, injs = representation_module(fam)
    assert m.ambient.ranks == (2,)
    assert len(minimal_generators(m)) == 3
    assert len(injs) == 2


def test_representation_module_dvr():
    r = semigroup_ring(QQ, [1])
    fam = chain_family(build_chain_tree(r))
    m, _ = representation_module(fam)
    assert m == r.self_lattice


def test_chain_determinism_double_window():
    r1 = semigroup_ring(QQ, [3, 5])
    r2 = semigroup_ring(QQ, [3, 5], window_hint=2 * r1.window_bound)
    assert chain_json(build_chain_tree(r1)) == chain_json(build_chain_tree(r2))


def test_embedded_member_lattice():
    r = semigroup_ring(QQ, [2, 5])
    s = semigroup_ring(QQ, [2, 3])
    lat = embedded_ring_lattice(r, (0,), s)
    # <2,3> as a <2,5>-lattice: window basis {1}, tail at 2
    assert lat.lo == (0,) and lat.hi == (2,)
    assert lat.member(lat.ambient.unit_vec(QQ, 0, 3))
    assert not lat.member(lat.ambient.unit_vec(QQ, 0, 1))


def test_normalization_check_propagates_engine_errors(monkeypatch):
    # only leaves that do not partition the root's branches give False;
    # an error from placing the leaf lattices surfaces
    tree = build_chain_tree(semigroup_ring(QQ, [2, 5]))
    assert normalization_check(tree)

    def broken(*args):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(chain, "placed_sum", broken)
    with pytest.raises(RuntimeError, match="engine bug"):
        normalization_check(tree)


def test_normalization_check_negative_controls():
    # doctored trees: two leaves on one branch, a root branch with no leaf,
    # and a leaf that is not a DVR
    tree = build_chain_tree(node_ring())
    assert normalization_check(tree)
    a, b = tree.leaves()
    b.global_branches = a.global_branches
    assert not normalization_check(tree)
    tree = build_chain_tree(node_ring())
    tree.root.children.pop()
    assert not normalization_check(tree)
    tree = build_chain_tree(semigroup_ring(QQ, [2, 3]))
    tree.leaves()[0].ring = tree.root.ring
    assert not normalization_check(tree)
