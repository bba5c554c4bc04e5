"""Constructive resolutions of torsion-free lattices by the chain family.

The algorithm follows the inductive proof shape exactly: over a DVR the
module is free; if the module is stable under R1 = End(m) it splits along
the idempotents of R1 and recurses into the factors; otherwise it is covered
by (minimal free) + (resolution of the largest R1-submodule), and the kernel
of that cover is again R1-stable, so the recursion drops a level.  A cheap
isomorphism test against the family members keeps resolutions short when the
module already lies in the additive closure.

Every resolution carries verifiable certificates: exactness at every
position and exactness after Hom(X, -) for each family member X.
"""

from .errors import ClaimViolation, FailedDecomposition, NotFullRank, NotTorsionFree
from .series import LaurentPoly, BranchVector
from .lattice import (
    Ambient,
    Lattice,
    LatticeMap,
    direct_sum,
    free_decomposition_over_dvr_product,
    hom_induced_map,
    hom_lattice,
    is_exact_at,
    is_surjective_onto,
    kernel_lattice,
    largest_submodule_over,
    maximal_ideal_module,
    nakayama_covers,
    scalar_extension_test,
)
from .chain import build_chain_tree, chain_family


class Term:
    __slots__ = ("lattice", "tags")

    def __init__(self, lattice, tags):
        self.lattice = lattice
        self.tags = tuple(tags)  # member lattices, construction order

    def decomposition_ok(self):
        ds, _ = direct_sum(list(self.tags))
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

    def certify(self, members, check_decomposition=True, skip_cokernel_position=False):
        """Fill the certificate dict; ``members`` are the Hom-test lattices.

        ``skip_cokernel_position`` is used for presentation complexes whose
        rightmost map is not surjective by design.
        """
        certs = {}
        comp = True
        for j in range(len(self.maps) - 1):
            if not self.maps[j].compose(self.maps[j + 1]).is_zero():
                comp = False
        certs["composites_zero"] = comp
        if skip_cokernel_position:
            certs["surjective_onto_target"] = None
        else:
            certs["surjective_onto_target"] = is_surjective_onto(self.maps[0])
        exact = []
        for j in range(len(self.maps) - 1):
            exact.append(is_exact_at(self.maps[j + 1], self.maps[j]))
        certs["exact_at_interior"] = exact
        certs["left_injective"] = self.maps[-1].is_injective()
        if check_decomposition:
            certs["decompositions"] = [t.decomposition_ok() for t in self.terms]
        hom = {}
        for label, x in members:
            hom[label] = verify_hom_exactness(self, x, skip_cokernel_position)
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


def verify_hom_exactness(res, x, skip_cokernel_position=False):
    """Exactness of the complex after applying Hom(x, -)."""
    homs = [hom_lattice(x, t.lattice) for t in res.terms]
    hom_target = hom_lattice(x, res.target)
    imaps = [hom_induced_map(x, res.maps[0], hom_src=homs[0], hom_tgt=hom_target)]
    for j in range(1, len(res.maps)):
        imaps.append(
            hom_induced_map(x, res.maps[j], hom_src=homs[j], hom_tgt=homs[j - 1])
        )
    if not skip_cokernel_position:
        if not is_surjective_onto(imaps[0]):
            return False
    for j in range(len(imaps) - 1):
        if not imaps[j].compose(imaps[j + 1]).is_zero():
            return False
        if not is_exact_at(imaps[j + 1], imaps[j]):
            return False
    if not imaps[-1].is_injective():
        return False
    return True


# -- context ------------------------------------------------------------------------


class _Ctx:
    """Per-chain-node resolution context."""

    def __init__(self, node):
        self.node = node
        self.ring = node.ring
        self._family = None
        self._children = None

    def family(self):
        if self._family is None:
            self._family = chain_family(None, base_node=self.node)
        return self._family

    def children(self):
        if self._children is None:
            self._children = [(T, _Ctx(ch)) for T, ch in self.node.children]
        return self._children


def _relattice(lat, ring):
    """The same canonical lattice viewed over a different (over)ring."""
    out = Lattice(ring, lat.ambient, lat.lo, lat.hi, lat.basis)
    return out


def _remap(f, src, tgt):
    return LatticeMap(src, tgt, f.mats)


def iso_scaling(a, b):
    """If a and b are rank-<=1 lattices with b = kappa * a, return kappa.

    Exact: Hom(a, b) is tested for cyclicity over End(a) and the single
    Nakayama generator is tried as the scaling.  Assumes End(a) is local
    with residue field F (true for rank-one lattices over a local ring
    with no branch idempotent acting on them).
    """
    if a.ambient.ranks != b.ambient.ranks or any(r > 1 for r in a.ambient.ranks):
        return None
    if a.ambient.ncoords == 0:
        return None
    ring = a.ring
    field = ring.field
    h = hom_lattice(a, b)
    ea = hom_lattice(a, a)

    def as_bv(vec, amb):
        return BranchVector(
            [
                vec[amb.coord(br, 0)] if amb.ranks[br] else LaurentPoly.zero(field)
                for br in range(ring.branches)
            ]
        )

    # generators of the maximal ideal of End(a): genset members with their
    # residue-constant multiple of the identity removed, plus m_R scalars
    id_vec = tuple(LaurentPoly.one(field) for _ in range(ea.ambient.ncoords))
    scalars = []
    for v in ea.genset():
        lam = None
        for c in range(ea.ambient.ncoords):
            if v[c][0]:
                lam = v[c][0]
                break
        if lam is not None:
            v = ea.ambient.sub_vec(v, ea.ambient.scale_vec(lam, id_vec))
            if any(v[c][0] for c in range(ea.ambient.ncoords)):
                return None  # End(a) not local: not comparable this way
        if not ea.ambient.vec_is_zero(v):
            scalars.append(as_bv(v, ea.ambient))
    mlat = ring.maximal_ideal_lattice()
    for mu in mlat.genset():
        scalars.append(as_bv(mu, mlat.ambient))

    hgens = h.genset()
    prods = [h.ambient.branch_scale(s, g) for s in scalars for g in hgens]
    cones = [(br, h.ambient.mono_scale(br, h.mx(br), v)) for br, v in h.cones]
    cut = [hi + h.mx(h.ambient.branch_of(c)) for c, hi in enumerate(h.hi)]
    lifts, _ = nakayama_covers(h, [(prods, cones)], cut)
    if len(lifts) != 1:
        return None
    kappa = as_bv(lifts[0], h.ambient)
    try:
        cand = Lattice.from_generators(ring, a.ambient, [a.ambient.branch_scale(kappa, g) for g in a.genset()])
    except NotFullRank:
        return None
    if cand.key() == b.key():
        return kappa
    return None


def _free_cover_data(n, n1):
    """Nakayama lifts of N/(N1 + mN); deterministic via echelon order."""
    cut = [max(n1.hi[c], h + n.mx(n.ambient.branch_of(c))) for c, h in enumerate(n.hi)]
    lifts, _ = nakayama_covers(n, [n1, maximal_ideal_module(n.ring, n)], cut)
    return lifts


def _zero_lattice(ring, nbranches):
    return Lattice(ring, Ambient([0] * nbranches), (), (), ())


def _resolve(ctx, n, depth=0):
    ring = ctx.ring
    if depth > 80:
        raise ClaimViolation("resolver recursion too deep")
    if n.is_zero():
        raise NotTorsionFree("cannot resolve the zero module here")

    # (a) base case: torsion-free over a DVR is free (local leaves have a
    # single branch, so the free cover is an isomorphism)
    if ring.is_dvr_product():
        ranks, bases = free_decomposition_over_dvr_product(n)
        total = sum(ranks)
        self_lat = ring.self_lattice
        c0, _ = direct_sum([self_lat] * total)
        field = ring.field
        mats = []
        for br in range(n.ambient.nbranches()):
            rows = n.ambient.ranks[br]
            cols = c0.ambient.ranks[br]
            mats.append([[LaurentPoly.zero(field) for _ in range(cols)] for _ in range(rows)])
        j = 0
        for br in range(n.ambient.nbranches()):
            for vec in bases[br]:
                for k, a in enumerate(vec):
                    mats[br][k][j] = a
                j += 1
        f = LatticeMap(c0, n, mats)
        mem = ctx.family().members[0].lattice
        return Resolution(ring, n, [Term(c0, (mem,) * total)], [f])

    # fast path: n is already (isomorphic to) a family member
    for mem in ctx.family().members:
        kappa = iso_scaling(mem.lattice, n)
        if kappa is not None:
            field = ring.field
            mats = []
            for br in range(n.ambient.nbranches()):
                r = n.ambient.ranks[br]
                m = [[LaurentPoly.zero(field) for _ in range(r)] for _ in range(r)]
                for k in range(r):
                    m[k][k] = kappa.parts[br]
                mats.append(m)
            f = LatticeMap(mem.lattice, n, mats)
            return Resolution(ring, n, [Term(mem.lattice, (mem.lattice,))], [f])

    r1 = ctx.node.r1
    if scalar_extension_test(r1, n):
        children = ctx.children()
        if len(children) == 1 and children[0][1].ring.branches == ring.branches:
            # R1 local on the same branches: resolve over R1 and restrict back
            _, cctx = children[0]
            sub = _resolve(cctx, _relattice(n, cctx.ring), depth + 1)
            terms = [Term(_relattice(t.lattice, ring), t.tags) for t in sub.terms]
            maps = []
            maps.append(_remap(sub.maps[0], terms[0].lattice, n))
            for j in range(1, len(sub.maps)):
                maps.append(_remap(sub.maps[j], terms[j].lattice, terms[j - 1].lattice))
            return Resolution(ring, n, terms, maps)
        return _resolve_split(ctx, n, depth)

    # (c): cover by free + resolution of the largest R1-submodule
    n1 = largest_submodule_over(r1, n)
    res1 = _resolve(ctx, n1, depth + 1)
    cp_term = res1.terms[0]
    f = _remap(res1.maps[0], cp_term.lattice, n)
    lifts = _free_cover_data(n, n1)
    d = len(lifts)
    if d == 0:
        raise ClaimViolation("free cover of N/N' is empty although N' < N")
    field = ring.field
    self_lat = ring.self_lattice
    c0, injs = direct_sum([self_lat] * d + [cp_term.lattice])
    mats = []
    for br in range(n.ambient.nbranches()):
        rows = n.ambient.ranks[br]
        cols = c0.ambient.ranks[br]
        m = [[LaurentPoly.zero(field) for _ in range(cols)] for _ in range(rows)]
        for j, lift in enumerate(lifts):
            for k in range(rows):
                m[k][j] = lift[n.ambient.coord(br, k)]
        off = d
        fm = f.mats[br]
        for k in range(rows):
            for l in range(len(fm[0]) if fm else 0):
                m[k][off + l] = -fm[k][l]
        mats.append(m)
    pi = LatticeMap(c0, n, mats)
    lk, emb = kernel_lattice(pi)
    if lk.is_zero():
        term0 = Term(c0, (ctx.family().members[0].lattice,) * d + cp_term.tags)
        return Resolution(ring, n, [term0], [pi], notes={"case": "c", "kernel": "zero"})
    if not scalar_extension_test(r1, lk):
        raise ClaimViolation("kernel of the cover is not R1-stable")
    res_l = _resolve(ctx, lk, depth + 1)
    term0 = Term(c0, (ctx.family().members[0].lattice,) * d + cp_term.tags)
    terms = [term0] + res_l.terms
    maps = [pi, emb.compose(res_l.maps[0])]
    for j in range(1, len(res_l.maps)):
        maps.append(res_l.maps[j])
    return Resolution(ring, n, terms, maps, notes={"case": "c"})


def _restrict_to_factor(n, positions, child_ring):
    """e_T * N as a lattice over the factor ring (projection to T-branches)."""
    amb = n.ambient
    ranks = [amb.ranks[p] for p in positions]
    camb = Ambient(ranks)
    field = child_ring.field

    def project(vec):
        out = []
        for i, p in enumerate(positions):
            for s in range(amb.ranks[p]):
                out.append(vec[amb.coord(p, s)])
        return tuple(out)

    gens = [project(g) for g in n.genset()]
    tail = []
    for i, p in enumerate(positions):
        for s in range(amb.ranks[p]):
            tail.append(n.hi[amb.coord(p, s)])
    return Lattice.from_generators(child_ring, camb, gens, known_tail=tail), project


def _embed_lattice(base_ring, positions, lat):
    """A lattice over a factor ring re-embedded as a base-ring lattice."""
    ranks = [0] * base_ring.branches
    for i, p in enumerate(positions):
        ranks[p] = lat.ambient.ranks[i]
    amb = Ambient(ranks)
    field = base_ring.field

    def pad(vec):
        out = list(amb.zero_vec(field))
        for i, p in enumerate(positions):
            for s in range(lat.ambient.ranks[i]):
                out[amb.coord(p, s)] = vec[lat.ambient.coord(i, s)]
        return tuple(out)

    gens = [pad(g) for g in lat.basis]
    tail = [0] * amb.ncoords
    for i, p in enumerate(positions):
        mx = max(base_ring.conductor[p], 1)
        for s in range(lat.ambient.ranks[i]):
            h = lat.hi[lat.ambient.coord(i, s)]
            tail[amb.coord(p, s)] = h
            for m in range(mx):
                gens.append(amb.unit_vec(field, amb.coord(p, s), h + m))
    return Lattice.from_generators(base_ring, amb, gens, known_tail=tail), pad


def _resolve_split(ctx, n, depth):
    """Case (b) with several idempotent factors: resolve each projection and
    take the direct sum of the sequences."""
    ring = ctx.ring
    field = ring.field
    subs = []
    for T, cctx in ctx.children():
        positions = T
        n_t, _ = _restrict_to_factor(n, positions, cctx.ring)
        sub = _resolve(cctx, n_t, depth + 1)
        subs.append((positions, cctx, sub))
    length = max(len(sub.terms) for _, _, sub in subs)
    terms = []
    maps = []
    embedded = []  # per sub: list of embedded term lattices
    tag_maps = []
    for positions, cctx, sub in subs:
        emb_terms = []
        for t in sub.terms:
            el, _ = _embed_lattice(ring, positions, t.lattice)
            emb_terms.append(el)
        embedded.append(emb_terms)
        tmap = {}
        for mem in cctx.family().members:
            el, _ = _embed_lattice(ring, positions, mem.lattice)
            pm = ctx.family().find(el)
            if pm is None:
                raise FailedDecomposition("factor family member missing upstairs")
            tmap[mem.lattice.key()] = pm.lattice
        tag_maps.append(tmap)
    zero = _zero_lattice(ring, ring.branches)
    for j in range(length):
        blocks = []
        tags = []
        for idx, (positions, cctx, sub) in enumerate(subs):
            if j < len(sub.terms):
                blocks.append(embedded[idx][j])
                tags.extend(
                    tag_maps[idx][tg.key()] for tg in sub.terms[j].tags
                )
            else:
                blocks.append(zero)
        cj, _ = direct_sum(blocks)
        terms.append(Term(cj, tags))
    # maps: factors live on disjoint branches, so per-branch blocks are just
    # the owning factor's matrices
    for j in range(length):
        tgt = n if j == 0 else terms[j - 1].lattice
        src = terms[j].lattice
        mats = []
        for br in range(src.ambient.nbranches()):
            rows = tgt.ambient.ranks[br]
            cols = src.ambient.ranks[br]
            mats.append(
                [[LaurentPoly.zero(field) for _ in range(cols)] for _ in range(rows)]
            )
        for idx, (positions, cctx, sub) in enumerate(subs):
            if j >= len(sub.maps):
                continue
            fmat = sub.maps[j].mats
            for i, p in enumerate(positions):
                block = fmat[i]
                for k in range(len(block)):
                    for l in range(len(block[k]) if block else 0):
                        mats[p][k][l] = block[k][l]
        maps.append(LatticeMap(src, tgt, mats))
    return Resolution(ring, n, terms, maps, notes={"case": "b-split"})


def keyred_resolve(n, tree=None, certify=True):
    """Resolve a torsion-free lattice by the chain family of its ring.

    Returns a Resolution of length at most the chain depth, with exactness
    and Hom-exactness certificates against every family member.
    """
    ring = n.ring
    if tree is None:
        tree = build_chain_tree(ring)
    ctx = _Ctx(tree.root)
    res = _resolve(ctx, n)
    if res.length() > tree.n:
        raise ClaimViolation(
            "resolution longer than the chain depth", length=res.length(), n=tree.n
        )
    if certify:
        fam = ctx.family()
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
    ctx = _Ctx(tree.root)
    lk, emb = kernel_lattice(f)
    m0, m1 = f.target, f.source
    if lk.is_zero():
        res = Resolution(ring, m0, [Term(m1, ())], [f], notes={"kernel": "zero"})
    else:
        res_l = _resolve(ctx, lk)
        terms = [Term(m1, ())] + res_l.terms
        maps = [f, _remap(emb.compose(res_l.maps[0]), res_l.terms[0].lattice, m1)]
        for j in range(1, len(res_l.maps)):
            maps.append(res_l.maps[j])
        res = Resolution(ring, m0, terms, maps)
    res.notes["gamma_pd_bound"] = len(res.terms)
    if certify:
        fam = ctx.family()
        res.certify(
            [(m.label, m.lattice) for m in fam.members],
            check_decomposition=False,
            skip_cokernel_position=True,
        )
    return res
