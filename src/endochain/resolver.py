"""Constructive resolutions of torsion-free lattices by the chain family.

The algorithm follows the inductive proof shape exactly: over a DVR the
module is free; if the module is stable under R1 = End(m) it splits along
the idempotents of R1 and recurses into the factors (one factor when R1 is
local); otherwise it is covered by (minimal free) + (resolution of the
largest R1-submodule), and the kernel of that cover is again R1-stable, so
the recursion drops a level.  When the
module is isomorphic to a family member, ``lattice.isomorphism`` returns the
isomorphism itself, which is the whole resolution; it is exact there, as
every member is a local ring S with End(S) = S.

Every resolution carries verifiable certificates: exactness at every
position and exactness after Hom(X, -) for each family member X.  Where the
plain exactness certificate holds, the Hom(X, -) certificate checks only
what left exactness leaves open: surjectivity onto Hom(X, N) and exactness
at Hom(X, C_j) for j <= n - 2; X = R and a single isomorphism need no check
(``verify_hom_exactness``).
"""

from .errors import ClaimViolation, FailedDecomposition, NotTorsionFree
from .lattice import (
    Ambient,
    LatticeMap,
    direct_sum,
    free_decomposition_over_dvr_product,
    hom_induced_map,
    hom_lattice,
    is_exact_at,
    is_surjective_onto,
    isomorphism,
    kernel_lattice,
    largest_submodule_over,
    nakayama_covers,
    placed_sum,
    scalar_extension_test,
)
from .chain import build_chain_tree, chain_family, embedded_lattice


class Term:
    __slots__ = ("lattice", "tags")

    def __init__(self, lattice, tags):
        self.lattice = lattice
        self.tags = tuple(tags)  # member lattices, construction order

    def decomposition_ok(self):
        """The term is the direct sum of its tags; one tag is its own sum."""
        ds = self.tags[0] if len(self.tags) == 1 else direct_sum(list(self.tags))[0]
        return ds.key() == self.lattice.key()


class Resolution:
    __slots__ = ("ring", "target", "terms", "maps", "notes", "certificates")

    def __init__(self, ring, target, terms, maps, notes=None):
        self.ring = ring
        self.target = target
        self.terms = terms
        self.maps = maps
        self.notes = notes or {}
        self.certificates = None

    def length(self):
        return len(self.terms) - 1

    def certify(self, members, presentation=False):
        """Fill the certificate dict; ``members`` are the Hom-test lattices.

        A ``presentation`` complex (``resolve_presented_module``) has a
        rightmost map that is not surjective by design and terms that are
        not family sums: it skips the cokernel position and the
        decompositions.  When the plain certificate holds (composites zero,
        surjective unless a presentation, exact at every interior term,
        injective on the left), ``verify_hom_exactness`` is told so and
        checks each member only where left exactness leaves a gap.
        """
        certs = {}
        comp = True
        for j in range(len(self.maps) - 1):
            if not self.maps[j].compose(self.maps[j + 1]).is_zero():
                comp = False
        certs["composites_zero"] = comp
        if presentation:
            certs["surjective_onto_target"] = None
        else:
            certs["surjective_onto_target"] = is_surjective_onto(self.maps[0])
        exact = []
        for j in range(len(self.maps) - 1):
            exact.append(is_exact_at(self.maps[j + 1], self.maps[j]))
        certs["exact_at_interior"] = exact
        certs["left_injective"] = self.maps[-1].is_injective()
        if not presentation:
            certs["decompositions"] = [t.decomposition_ok() for t in self.terms]
        plain = comp and certs["surjective_onto_target"] is not False and all(exact) and certs["left_injective"]
        hom = {}
        for label, x in members:
            hom[label] = verify_hom_exactness(self, x, presentation, plain)
        certs["hom_exact"] = hom
        self.certificates = certs
        return certs

    def all_certified(self):
        c = self.certificates
        if c is None:
            return False
        ok = c["composites_zero"] and c["left_injective"]
        if c["surjective_onto_target"] is not None:
            ok = ok and c["surjective_onto_target"]
        ok = ok and all(c["exact_at_interior"])
        if "decompositions" in c:
            ok = ok and all(c["decompositions"])
        ok = ok and all(c["hom_exact"].values())
        return ok


def verify_hom_exactness(res, x, skip_cokernel_position=False, exact=False):
    """Exactness of the complex 0 -> C_n -> ... -> C_0 -> N (-> 0) after
    applying Hom(x, -); ``skip_cokernel_position`` drops surjectivity onto
    Hom(x, N), as a presentation does.

    With ``exact`` the caller has certified the complex itself exact (the
    plain certificate of ``Resolution.certify``), and only what that leaves
    open is checked; write f_j for res.maps[j]: C_j -> C_{j-1}, C_{-1} = N.

    - Hom(x, -) is left exact.  f_n is injective with image ker f_{n-1}, so
      a phi: x -> C_{n-1} with f_{n-1} phi = 0 lands in f_n(C_n) and is
      f_n psi for the R-linear psi = f_n^{-1} phi in Hom(x, C_n), and
      f_n phi = 0 forces phi = 0.  So Hom(x, f_n) is injective and
      Hom(x, -) stays exact at Hom(x, C_{n-1}): neither is checked, and
      Hom(x, C_n) is not solved.
    - x = R: Hom(R, C) is C itself in the ``hom_coord`` layout (phi is
      phi(1)) and Hom(R, f) is f, so the plain certificate is the answer.
    - n = 0 and not a presentation: f_0 is bijective, its inverse is
      R-linear, so Hom(x, f_0) is bijective as well.

    What remains is surjectivity onto Hom(x, N) (unless skipped) and
    exactness at Hom(x, C_j) for j <= n - 2; for n = 0, and for n = 1 in a
    presentation, that is nothing.  Without ``exact`` every position is
    checked.
    """
    n = res.length()
    surjective = not skip_cokernel_position
    last = n  # exactness is checked at Hom(x, C_j) for j < last
    if exact:
        if x.key() == res.ring.self_lattice.key() or n == 0 or (n == 1 and not surjective):
            return True
        last = n - 1
    # Hom(x, f_j) for j <= last, on Hom(x, C_j) for j <= last and Hom(x, N)
    homs = [hom_lattice(x, t.lattice) for t in res.terms[: last + 1]]
    hom_target = hom_lattice(x, res.target)
    imaps = [hom_induced_map(x, res.maps[0], hom_src=homs[0], hom_tgt=hom_target)]
    for j in range(1, last + 1):
        imaps.append(
            hom_induced_map(x, res.maps[j], hom_src=homs[j], hom_tgt=homs[j - 1])
        )
    if surjective and not is_surjective_onto(imaps[0]):
        return False
    for j in range(last):
        if not is_exact_at(imaps[j + 1], imaps[j]):
            return False
    return exact or imaps[-1].is_injective()


def _free_cover_data(n, n1):
    """Nakayama lifts of N/(N1 + mN); deterministic via echelon order."""
    cut = [max(a, b) for a, b in zip(n1.hi, n.nakayama_cut())]
    lifts, _ = nakayama_covers(n, [n1], cut)
    return lifts


def _resolve(node, n, bound, depth=0):
    """Resolve n over the ring of the chain node ``node``; ``depth`` counts
    the calls above this one and may not exceed ``bound``.

    Case (b), N stable under R1, is the factor route
    (``_resolve_factors``): it recurses one chain level down, into each
    factor e_T R1, one factor when R1 is local.  Case (c) recurses at the same
    node into n1 and ker, both R1-stable (n1 by construction, ker by the
    check below), so each of those calls ends in the base case, the fast path
    or case (b).  A chain level thus adds at most 2 to the depth, and a leaf
    is a DVR product, the base case: on a chain of depth n the depth is at
    most 2n, the ``bound`` callers pass, and a deeper call is a
    ClaimViolation.
    """
    ring = node.ring
    if depth > bound:
        raise ClaimViolation("resolver recursion deeper than twice the chain depth", depth=depth, bound=bound)
    if n.is_zero():
        raise NotTorsionFree("cannot resolve the zero module here")
    family = chain_family(None, base_node=node)

    # (a) base case: torsion-free over a DVR is free (local leaves have a
    # single branch, so the free cover is an isomorphism)
    if ring.is_dvr_product():
        ranks, bases = free_decomposition_over_dvr_product(n)
        total = sum(ranks)
        c0, _ = direct_sum([ring.self_lattice] * total)
        entries = {}
        j = 0
        for br in range(n.ambient.nbranches()):
            for vec in bases[br]:
                for k, a in enumerate(vec):
                    entries[(br, k, j)] = a
                j += 1
        f = LatticeMap.from_entries(c0, n, entries)
        mem = family.members[0].lattice
        return Resolution(ring, n, [Term(c0, (mem,) * total)], [f])

    # fast path: n is already (isomorphic to) a family member
    for mem in family.members:
        f = isomorphism(mem.lattice, n)
        if f is not None:
            return Resolution(ring, n, [Term(mem.lattice, (mem.lattice,))], [f])

    # (b): N is R1-stable, a lattice over R1's factors
    r1 = node.r1
    if scalar_extension_test(r1, n):
        return _resolve_factors(node, n, bound, depth)

    # (c): cover by free + resolution of the largest R1-submodule
    n1 = largest_submodule_over(r1, n)
    res1 = _resolve(node, n1, bound, depth + 1)
    cp_term = res1.terms[0]
    lifts = _free_cover_data(n, n1)
    d = len(lifts)
    if d == 0:
        raise ClaimViolation("free cover of N/N' is empty although N' < N")
    c0, _ = direct_sum([ring.self_lattice] * d + [cp_term.lattice])
    entries = {}
    for br in range(n.ambient.nbranches()):
        for k in range(n.ambient.ranks[br]):
            for j, lift in enumerate(lifts):
                entries[(br, k, j)] = lift[n.ambient.coord(br, k)]
            for l, e in enumerate(res1.maps[0].mats[br][k]):
                entries[(br, k, d + l)] = -e
    pi = LatticeMap.from_entries(c0, n, entries)
    lk, emb = kernel_lattice(pi)
    if lk.is_zero():
        term0 = Term(c0, (family.members[0].lattice,) * d + cp_term.tags)
        return Resolution(ring, n, [term0], [pi], notes={"kernel": "zero"})
    if not scalar_extension_test(r1, lk):
        raise ClaimViolation("kernel of the cover is not R1-stable")
    res_l = _resolve(node, lk, bound, depth + 1)
    term0 = Term(c0, (family.members[0].lattice,) * d + cp_term.tags)
    terms = [term0] + res_l.terms
    maps = [pi, emb.compose(res_l.maps[0])]
    for j in range(1, len(res_l.maps)):
        maps.append(res_l.maps[j])
    return Resolution(ring, n, terms, maps)


def _restrict_to_factor(n, positions, child_ring):
    """e_T * N as a lattice over the factor ring: the projection of N onto
    the T-branches, a summand as N is R1-stable."""
    amb = n.ambient
    camb = Ambient([amb.ranks[p] for p in positions])
    cmap = [None] * amb.ncoords
    for i, p in enumerate(positions):
        for s in range(amb.ranks[p]):
            cmap[amb.coord(p, s)] = camb.coord(i, s)
    return placed_sum(child_ring, camb, [n], [cmap])


def _tag_map(node, T, child):
    """The child's family member keys -> the node's family lattices, each
    member placed on the branches T: built once per (node, child) and kept
    on the child (``ChainNode.tags``), as ``chain_family`` keeps ``family``."""
    if child.tags is None:
        family = chain_family(None, base_node=node)
        tmap = {}
        for mem in chain_family(None, base_node=child).members:
            pm = family.find(embedded_lattice(node.ring, [(T, mem.lattice)]))
            if pm is None:
                raise FailedDecomposition("factor family member missing upstairs")
            tmap[mem.lattice.key()] = pm.lattice
        child.tags = tmap
    return child.tags


def _resolve_factors(node, n, bound, depth):
    """Case (b), N stable under R1 = prod e_T R1: resolve each projection
    e_T N over its factor and place the factors' terms side by side, each on
    its own branches, with tags lifted to the node's family.  A local R1 is
    the one-factor case: T is every branch, the projection places N as
    itself over R1, and the terms come back with the same matrices."""
    ring = node.ring
    subs = []
    for T, child in node.children:
        sub = _resolve(child, _restrict_to_factor(n, T, child.ring), bound, depth + 1)
        subs.append((T, sub, _tag_map(node, T, child)))
    length = max(len(sub.terms) for _, sub, _ in subs)
    terms = []
    maps = []
    for j in range(length):
        parts = [(T, sub.terms[j], tmap) for T, sub, tmap in subs if j < len(sub.terms)]
        cj = embedded_lattice(ring, [(T, t.lattice) for T, t, _ in parts])
        terms.append(Term(cj, [tmap[tg.key()] for _, t, tmap in parts for tg in t.tags]))
    # maps: factors live on disjoint branches, so per-branch blocks are just
    # the owning factor's matrices
    for j in range(length):
        tgt = n if j == 0 else terms[j - 1].lattice
        entries = {}
        for positions, sub, _ in subs:
            if j < len(sub.maps):
                for i, p in enumerate(positions):
                    for k, row in enumerate(sub.maps[j].mats[i]):
                        for l, e in enumerate(row):
                            entries[(p, k, l)] = e
        maps.append(LatticeMap.from_entries(terms[j].lattice, tgt, entries))
    return Resolution(ring, n, terms, maps)


def keyred_resolve(n, tree=None, certify=True):
    """Resolve a torsion-free lattice by the chain family of its ring.

    Returns a Resolution of length at most the chain depth, with exactness
    and Hom-exactness certificates against every family member.
    """
    ring = n.ring
    if tree is None:
        tree = build_chain_tree(ring)
    res = _resolve(tree.root, n, 2 * tree.n)
    if res.length() > tree.n:
        raise ClaimViolation(
            "resolution longer than the chain depth", length=res.length(), n=tree.n
        )
    if certify:
        fam = chain_family(tree)
        res.certify([(m.label, m.lattice) for m in fam.members])
    return res


def resolve_presented_module(f, tree=None, certify=True):
    """Resolve the cokernel Gamma-module of Hom(M, f) on the lattice side.

    Returns the presentation complex [M0, M1, D_0, ..., D_m]: applying
    Hom(M, -) yields a projective resolution of coker Hom(M, f).
    """
    ring = f.source.ring
    if tree is None:
        tree = build_chain_tree(ring)
    lk, emb = kernel_lattice(f)
    m0, m1 = f.target, f.source
    if lk.is_zero():
        res = Resolution(ring, m0, [Term(m1, ())], [f], notes={"kernel": "zero"})
    else:
        res_l = _resolve(tree.root, lk, 2 * tree.n)
        terms = [Term(m1, ())] + res_l.terms
        maps = [f, emb.compose(res_l.maps[0])]
        for j in range(1, len(res_l.maps)):
            maps.append(res_l.maps[j])
        res = Resolution(ring, m0, terms, maps)
    res.notes["gamma_pd_bound"] = len(res.terms)
    if certify:
        fam = chain_family(tree)
        res.certify([(m.label, m.lattice) for m in fam.members], presentation=True)
    return res
