"""The tree of iterated endomorphism rings and the family E(R).

Starting from a local ring, alternately take End(maximal ideal) and split
off the idempotent factors until every leaf is a DVR.  Tree depth counts
End-steps only; splits are free.  The family E(R) collects every ring in
the tree as a rank-one lattice over the root, deduplicated by canonical
form (equality as subrings of K).
"""

from .series import BranchVector
from .errors import AlreadyNormal, ChainDiverged, ClaimViolation, NotFullRank, NotLocal
from .curve_ring import build_ring, factor, normalization_lattice
from .lattice import Ambient, Lattice, direct_sum, hom_lattice


def end_of_maximal_ideal(ring):
    """End_R(m) realized as a subring of K via the rank-one colon."""
    if not ring.is_local:
        raise NotLocal("End(m) chain step needs a local ring")
    if ring.is_dvr_product():
        raise AlreadyNormal("ring equals its normalization; m is principal")
    m = ring.maximal_ideal_lattice()
    h = hom_lattice(m, m)
    gens = [BranchVector(v) for v in h.genset()]
    from .lattice import ring_scalar_vectors

    gens += ring_scalar_vectors(ring)
    s1 = build_ring(ring.field, ring.branches, gens)
    if s1.delta() >= ring.delta():
        raise ClaimViolation(
            "End(m) did not strictly enlarge the ring",
            delta_before=ring.delta(),
            delta_after=s1.delta(),
        )
    return s1


class ChainNode:
    __slots__ = ("ring", "global_branches", "r1", "children", "label")

    def __init__(self, ring, global_branches):
        self.ring = ring
        self.global_branches = tuple(global_branches)
        self.r1 = None
        self.children = []  # (local branch subset of self, ChainNode)
        self.label = None

    def is_leaf(self):
        return not self.children

    def depth(self):
        if not self.children:
            return 0
        return 1 + max(ch.depth() for _, ch in self.children)

    def walk(self):
        yield self
        for _, ch in self.children:
            yield from ch.walk()


class ChainTree:
    __slots__ = ("root", "n")

    def __init__(self, root):
        self.root = root
        self.n = root.depth()
        for i, node in enumerate(root.walk()):
            node.label = f"S{i}"

    def nodes(self):
        return list(self.root.walk())

    def leaves(self):
        return [nd for nd in self.root.walk() if nd.is_leaf()]


def build_chain_tree(ring, depth_cap=64):
    if not ring.is_local:
        raise NotLocal("chain tree needs a local root")

    def grow(nd, cap):
        s = nd.ring
        if s.is_dvr_product():
            return
        if cap <= 0:
            raise ChainDiverged("chain exceeded the depth cap", cap=depth_cap)
        s1 = end_of_maximal_ideal(s)
        nd.r1 = s1
        for T in s1.atoms:
            fac = factor(s1, T) if len(T) < s.branches or len(s1.atoms) > 1 else s1
            child = ChainNode(fac, tuple(nd.global_branches[i] for i in T))
            nd.children.append((T, child))
            if fac.delta() >= s.delta():
                raise ClaimViolation("delta did not drop along a chain edge")
            grow(child, cap - 1)

    root = ChainNode(ring, tuple(range(ring.branches)))
    grow(root, depth_cap)
    return ChainTree(root)


def embedded_ring_lattice(base_ring, positions, s):
    """A chain ring S living on a subset of base branches, as a rank-one
    lattice over the base.  ``positions[i]`` is the base branch carrying
    branch i of S."""
    ranks = [0] * base_ring.branches
    for p in positions:
        ranks[p] = 1
    amb = Ambient(ranks)
    field = base_ring.field

    def pad(bv):
        vec = list(amb.zero_vec(field))
        for i, p in enumerate(positions):
            vec[amb.coord(p, 0)] = bv.parts[i]
        return tuple(vec)

    gens = [pad(bv) for bv in s.scalar_basis()]
    tail = [0] * amb.ncoords
    for i, p in enumerate(positions):
        tail[amb.coord(p, 0)] = s.conductor[i]
        mx = max(base_ring.conductor[p], 1)
        for mshift in range(mx):
            gens.append(
                amb.unit_vec(field, amb.coord(p, 0), s.conductor[i] + mshift)
            )
    return Lattice.from_generators(base_ring, amb, gens, known_tail=tail)


class FamilyMember:
    __slots__ = ("label", "lattice", "node")

    def __init__(self, label, lattice, node):
        self.label = label
        self.lattice = lattice
        self.node = node

    def __repr__(self):
        return f"FamilyMember({self.label})"


class EFamily:
    """E(R): the deduplicated rings of the chain tree as root lattices."""

    __slots__ = ("base_ring", "members")

    def __init__(self, base_ring, members):
        self.base_ring = base_ring
        self.members = members

    def labels(self):
        return [m.label for m in self.members]

    def lattices(self):
        return [m.lattice for m in self.members]

    def find(self, lattice):
        for m in self.members:
            if m.lattice == lattice:
                return m
        return None


def chain_family(tree, base_node=None):
    """The family of a (sub)tree as lattices over the subtree root."""
    root = base_node or tree.root
    base = root.ring
    pos_of = {g: i for i, g in enumerate(root.global_branches)}
    members = []
    seen = set()
    for node in root.walk():
        positions = tuple(pos_of[g] for g in node.global_branches)
        lat = embedded_ring_lattice(base, positions, node.ring)
        if lat.key() in seen:
            continue
        seen.add(lat.key())
        members.append(FamilyMember(f"S{len(members)}", lat, node))
    return EFamily(base, members)


def representation_module(fam):
    """M = (+) of all family members; the root is the first summand."""
    return direct_sum(fam.lattices())


def normalization_check(tree):
    """True iff the leaf rings multiply out to E inside K."""
    root = tree.root
    base = root.ring
    pos_of = {g: i for i, g in enumerate(root.global_branches)}
    amb = Ambient([1] * base.branches)
    field = base.field
    gens = []
    for leaf in tree.leaves():
        positions = tuple(pos_of[g] for g in leaf.global_branches)
        lat = embedded_ring_lattice(base, positions, leaf.ring)
        for g in lat.genset():
            vec = list(amb.zero_vec(field))
            for i, p in enumerate(positions):
                vec[amb.coord(p, 0)] = g[lat.ambient.coord(p, 0)]
            gens.append(tuple(vec))
    covered = set()
    for leaf in tree.leaves():
        covered.update(leaf.global_branches)
    if covered != set(root.global_branches):
        return False
    try:
        produced = Lattice.from_generators(base, amb, gens)
    except NotFullRank:
        return False
    return produced == normalization_lattice(base)


def chain_json(tree):
    from .curve_ring import ring_report

    nodes = []
    for node in tree.nodes():
        entry = {
            "label": node.label,
            "global_branches": list(node.global_branches),
            "conductor": list(node.ring.conductor),
            "delta": node.ring.delta(),
            "is_leaf": node.is_leaf(),
        }
        nodes.append(entry)
    edges = []
    for node in tree.nodes():
        for T, ch in node.children:
            edges.append(
                {"parent": node.label, "child": ch.label, "branch_subset": list(T)}
            )
    rep = ring_report(tree.root.ring)
    return {
        "nodes": nodes,
        "edges": edges,
        "n": tree.n,
        "multiplicity": rep.multiplicity,
        "delta": rep.delta,
        "normalization_check": normalization_check(tree),
    }
