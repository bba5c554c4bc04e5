"""The tree of iterated endomorphism rings and the family E(R).

Starting from a local ring, alternately take End(maximal ideal) and split
off the idempotent factors until every leaf is a DVR.  Tree depth counts
End-steps only; splits are free.  The family E(R) collects every ring in
the tree as a rank-one lattice over the root, deduplicated by canonical
form (equality as subrings of K).
"""

from .errors import AlreadyNormal, ClaimViolation, NotLocal
from .curve_ring import factor, normalization_lattice, placed_ring, ring_report
from .lattice import Ambient, direct_sum, hom_lattice, minimal_generators, placed_sum


def end_of_maximal_ideal(ring):
    """End_R(m) realized as a subring of K via the rank-one colon, placed:
    it is the lattice h = Hom(m, m) as solved, so its conductor is h.hi and
    its window basis h.basis.  End(m) is a ring inside E, so h.lo is 0
    (else ClaimViolation).

    Its algebra generators are the minimal generators of End(m) over R and
    of m: the latter span m/m^2, so F[m/m^2 lifts] is m-adically dense in R,
    and m^k lies in t^k E, so together they generate End(m) densely modulo
    t^N E, as ``_close`` needs; ``placed_ring`` checks that m's are kept.
    """
    if not ring.is_local:
        raise NotLocal("End(m) chain step needs a local ring")
    if ring.is_dvr_product():
        raise AlreadyNormal("ring equals its normalization; m is principal")
    m = ring.maximal_ideal_lattice()
    h = hom_lattice(m, m)
    if any(h.lo):
        raise ClaimViolation("Hom(m, m) has a lowest valuation other than 0", lo=list(h.lo))
    mgens = minimal_generators(m)
    s1 = placed_ring(ring.field, h.hi, h.basis, max(h.hi), minimal_generators(h) + mgens, kept=mgens)
    if s1.delta() >= ring.delta():
        raise ClaimViolation(
            "End(m) did not strictly enlarge the ring",
            delta_before=ring.delta(),
            delta_after=s1.delta(),
        )
    return s1


class ChainNode:
    __slots__ = ("ring", "global_branches", "r1", "children", "label", "family", "tags")

    def __init__(self, ring, global_branches):
        self.ring = ring
        self.global_branches = tuple(global_branches)
        self.r1 = None
        self.children = []  # (local branch subset of self, ChainNode)
        self.label = None
        self.family = None  # chain_family of the subtree, once computed
        self.tags = None  # this family's member keys -> the parent's family lattices, once computed

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


def build_chain_tree(ring):
    """The chain tree of ``ring``, uncapped: every edge drops delta or raises
    ClaimViolation, so its depth is at most delta(R)."""
    if not ring.is_local:
        raise NotLocal("chain tree needs a local root")

    def grow(nd):
        s = nd.ring
        if s.is_dvr_product():
            return
        s1 = end_of_maximal_ideal(s)
        nd.r1 = s1
        for T in s1.atoms:
            fac = s1 if len(s1.atoms) == 1 else factor(s1, T)
            child = ChainNode(fac, tuple(nd.global_branches[i] for i in T))
            nd.children.append((T, child))
            if fac.delta() >= s.delta():
                raise ClaimViolation("delta did not drop along a chain edge")
            grow(child)

    root = ChainNode(ring, tuple(range(ring.branches)))
    grow(root)
    return ChainTree(root)


def embedded_lattice(base_ring, parts):
    """Lattices over factor rings, each living on its own subset of base
    branches, placed side by side as one base-ring lattice.  ``parts`` are
    (positions, lattice) pairs; ``positions[i]`` is the base branch carrying
    branch i of the factor."""
    ranks = [0] * base_ring.branches
    for positions, lat in parts:
        for p, r in zip(positions, lat.ambient.ranks):
            ranks[p] = r
    amb = Ambient(ranks)
    placements = [[amb.coord(p, s) for p, r in zip(positions, lat.ambient.ranks) for s in range(r)] for positions, lat in parts]
    return placed_sum(base_ring, amb, [lat for _, lat in parts], placements)


def embedded_ring_lattice(base_ring, positions, s):
    """A chain ring S living on a subset of base branches, as a rank-one
    lattice over the base.  ``positions[i]`` is the base branch carrying
    branch i of S."""
    return embedded_lattice(base_ring, [(positions, s.self_lattice)])


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
    """The family of a (sub)tree as lattices over the subtree root, computed
    once per node: every later call returns the same EFamily."""
    root = base_node or tree.root
    if root.family is not None:
        return root.family
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
    root.family = EFamily(base, members)
    return root.family


def representation_module(fam):
    """M = (+) of all family members; the root is the first summand."""
    return direct_sum(fam.lattices())


def normalization_check(tree):
    """True iff the leaf rings multiply out to E inside K: the leaves'
    branches partition the root's, and their self-lattices, placed on
    their branches, make up the normalization lattice."""
    root = tree.root
    leaves = tree.leaves()
    if sorted(g for leaf in leaves for g in leaf.global_branches) != sorted(root.global_branches):
        return False
    pos_of = {g: i for i, g in enumerate(root.global_branches)}
    parts = [(tuple(pos_of[g] for g in leaf.global_branches), leaf.ring.self_lattice) for leaf in leaves]
    return embedded_lattice(root.ring, parts) == normalization_lattice(root.ring)


def chain_json(tree):
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
