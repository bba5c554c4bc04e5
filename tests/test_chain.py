import pytest

from endochain.field import QQ
from endochain.series import LaurentPoly, BranchVector
from endochain.curve_ring import build_ring, semigroup_ring
from endochain.chain import (
    build_chain_tree,
    chain_family,
    chain_json,
    embedded_ring_lattice,
    end_of_maximal_ideal,
    normalization_check,
    representation_module,
)
from endochain.errors import AlreadyNormal, NotLocal
from endochain.lattice import Lattice, minimal_generators
from oracle import end_chain_value_sets


T = LaurentPoly.monomial(QQ, 1)
Z = LaurentPoly.zero(QQ)


def node_ring():
    return build_ring(QQ, 2, [BranchVector([T, Z]), BranchVector([Z, T])])


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
        QQ, 3, [BranchVector([T, Z, Z]), BranchVector([Z, T, Z]), BranchVector([Z, Z, T])]
    )
    tree = build_chain_tree(trip)
    assert tree.n == 1
    assert len(tree.leaves()) == 3
    assert normalization_check(tree)


def test_tacnode_tree():
    tac = build_ring(QQ, 2, [BranchVector([T, T]), BranchVector([T * T, Z])])
    tree = build_chain_tree(tac)
    assert tree.n == 2
    # middle ring is the node
    mid = tree.root.children[0][1]
    assert mid.ring.conductor == (1, 1) and mid.ring.is_local
    assert normalization_check(tree)


def test_chain_tree_requires_local():
    e = build_ring(QQ, 2, [BranchVector([LaurentPoly.one(QQ), Z]), BranchVector([T, Z]), BranchVector([Z, T])])
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
    # only NotFullRank means "the leaves do not multiply out"; other errors surface
    tree = build_chain_tree(semigroup_ring(QQ, [2, 5]))
    assert normalization_check(tree)
    original = Lattice.from_generators

    def broken(cls, ring, ambient, gens, known_tail=None):
        if known_tail is None:  # the product of the leaves, not the leaf lattices
            raise RuntimeError("engine bug")
        return original(ring, ambient, gens, known_tail=known_tail)

    monkeypatch.setattr(Lattice, "from_generators", classmethod(broken))
    with pytest.raises(RuntimeError, match="engine bug"):
        normalization_check(tree)
