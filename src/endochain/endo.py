"""The lattice algebra Gamma = End_R(M)^op and its global dimension.

Gamma is kept as its block data Hom(X_i, X_j); right End(M)-modules stand in
for Gamma-modules throughout (the opposite-ring convention).  Projectives are
P_i = Hom(M, X_i), assembled from the blocks Hom(X_j, X_i) (rad P_i from the
blocks of rad Gamma); a simple sits on top of each P_i.  Syzygies of simples
are genuine sublattices of direct sums of the P_i: Modules in a ``ProjIndex``
ambient, which is the hom ambient Hom(M, T) of ``lattice.hom_ambient`` for
T = (+)_a X_{c_a}.  Minimal covers use Nakayama over Gamma/rad: each cover
step spans Q and Q * rad once, reads the tops off them, and certifies the
cover by adding its images to the Q * rad span.  Q * rad = Q * A for the
arrows A of Gamma, lifts of a basis of J/J^2 (J = rad Gamma), as J = Gamma A
by Nakayama; each algebra certifies J = Gamma A when it is built.  The
cover is Hom(M, lam) for a map lam: T' -> T read off the tops, and its
syzygy is the image of ``kernel_lattice`` (``lattice.kernel_window_module``).
The source-slot grading of the hom ambient makes the type decomposition of
tops coordinate-aligned.  ``hom_lattice(M, X_i)`` is recomputed only by
``projectivization_check``.

The radical of each End(X_i) is computed two ways and cross-checked: the
trace-form kernel of the finite quotient End(X_i)/z End(X_i) (z a deep
conductor-monomial scalar), and the "image is proper" surjectivity test.
"""

from dataclasses import dataclass

from .series import LaurentPoly, BranchVector
from .linalg import Echelon, nullspace_F
from .errors import (
    CharacteristicTooSmall,
    ClaimViolation,
    DuplicateSummand,
    MissingFreeSummand,
    NotIndecomposable,
)
from .lattice import (
    Ambient,
    Lattice,
    LatticeMap,
    Module,
    direct_sum,
    hom_ambient,
    hom_coord,
    hom_element_as_map,
    hom_induced_map,
    hom_lattice,
    is_surjective_onto,
    kernel_window_module,
    map_as_hom_element,
    maximal_ideal_module,
    minimal_generators,
    nakayama_covers,
    placed_sum,
    quotient_dimension,
    raw_span,
    valuation_floor,
    _close,
)


class EndoAlgebra:
    """Block data of End_R(M) for M = (+) X_i, the X_i pairwise
    non-isomorphic indecomposable lattices (X_0 free when M is a generator).
    """

    def __init__(self, ring, summands, labels=None):
        self.ring = ring
        self.summands = list(summands)
        self.k = len(summands)
        self.labels = list(labels) if labels else [f"X{i}" for i in range(self.k)]
        self.M, self.M_injections = direct_sum(self.summands)
        # per branch, m_off[br][j]: slot offset of summand j inside M, and
        # m_type[br][s]: the summand that M slot s belongs to
        self.m_off = []
        self.m_type = []
        for br in range(ring.branches):
            offs = []
            types = []
            for j, x in enumerate(self.summands):
                offs.append(len(types))
                types += [j] * x.ambient.ranks[br]
            self.m_off.append(offs)
            self.m_type.append(types)
        self.hom = {}
        for i in range(self.k):
            for j in range(self.k):
                self.hom[(i, j)] = hom_lattice(self.summands[i], self.summands[j])
        self.rad_diag = [diagonal_radical(self, i) for i in range(self.k)]
        self.P = [_column_lattice(self, self.hom, i) for i in range(self.k)]
        self.arrows = self.rad_gens()
        _certify_arrows(self)

    def rad_gens(self):
        """The arrows A: per block (j, l) of J = rad Gamma, (j, l, a) for
        the Nakayama lifts a of J_(j,l) over the composites J_(m,l) o
        J_(j,m) of minimal generators plus m * J_(j,l) (which lies in J^2),
        i.e. lifts of an F-basis of J/J^2.  Nakayama over Gamma gives
        J = Gamma A, so Q * rad = Q * A; ``_certify_arrows`` checks it."""
        rad = radical(self)
        gens = {b: minimal_generators(lat) for b, lat in rad.items()}
        return [
            (j, l, a)
            for (j, l), lat in rad.items()
            for a in _block_cover(lat, _products(self, gens, gens, j, l))[0]
        ]


def diagonal_radical(alg, i):
    """rad End(X_i) inside Hom(X_i, X_i), with a two-method cross-check."""
    ring = alg.ring
    field = ring.field
    ea = alg.hom[(i, i)]
    amb = ea.ambient
    if amb.ncoords == 0:
        raise NotIndecomposable("zero summand", label=alg.labels[i])
    lo_min = min(ea.lo)
    m = max(1, 1 - lo_min)
    zexp = [ring.mx(br) * m for br in range(ring.branches)]
    z = BranchVector([LaurentPoly.monomial(field, e) for e in zexp])
    jgens = [amb.branch_scale(z, g) for g in ea.genset()]
    jtail = [ea.hi[c] + zexp[amb.branch_of(c)] for c in range(amb.ncoords)]
    jlat = Lattice.from_module_data(ring, amb, jgens, [], list(ea.lo), jtail)

    lo = [min(2 * lo_min, lo_min)] * amb.ncoords
    cut = list(jlat.hi)
    ws, ech_j = jlat.span(lo, cut)
    _, ech_full = ea.span(lo, cut)
    # quotient space A = EA/J: RREF basis of the J-residues; coordinates of
    # a residue are then its raw entries at the basis pivots
    ey = Echelon(field, ws.ncols())
    for r in ech_full.rows:
        ey.add(ech_j.residue(r))
    dim_a = ey.rank()
    if field.kind == "prime" and field.characteristic <= dim_a:
        raise CharacteristicTooSmall(
            "prime field must exceed the finite-quotient dimension",
            p=field.characteristic,
            dim=dim_a,
        )
    rep_vecs = [ws.vec_of(r) for r in ey.rows]
    qpivots = list(ey.pivots)

    def acoords(vec):
        """Quotient coordinates of an EA element (window absorbs its tail)."""
        row = ws.row_of(amb.truncate_vec(vec, cut))
        y = ech_j.residue(row)
        return [y[p] for p in qpivots]

    # lmats[a][b]: quotient coordinates of rep_a o rep_b; traces[a] = tr(L_a)
    x = alg.summands[i]
    maps = [hom_element_as_map(x, x, v) for v in rep_vecs]
    lmats = [[acoords(map_as_hom_element(fa.compose(fb))) for fb in maps] for fa in maps]
    traces = [sum((lmats[a][b][b] for b in range(dim_a)), field.zero()) for a in range(dim_a)]
    gram = [
        [sum((c * traces[s] for s, c in enumerate(lmats[a][b]) if c), field.zero()) for b in range(dim_a)]
        for a in range(dim_a)
    ]
    null = nullspace_F(gram, dim_a, field)
    rad_reps = []
    for lam in null:
        acc = None
        for c, vec in zip(lam, rep_vecs):
            if c:
                term = amb.scale_vec(c, vec)
                acc = term if acc is None else amb.add_vec(acc, term)
        if acc is not None:
            rad_reps.append(acc)
    rad = Lattice.from_module_data(
        ring, amb, rad_reps + jlat.genset(), [], lo, list(jlat.hi)
    )
    dim = quotient_dimension(ea, rad)
    if dim != 1:
        raise NotIndecomposable(
            "End(X)/rad has F-dimension != 1", label=alg.labels[i], dim=dim
        )
    for v in ea.basis:
        f = hom_element_as_map(x, x, v)
        if is_surjective_onto(f) == rad.member(v):
            raise ClaimViolation(
                "radical cross-check failed (trace form vs image test)",
                summand=alg.labels[i],
            )
    return rad


def build_endo_algebra(ring, summands, labels=None):
    """Assemble Gamma with the summand guards (distinct, non-isomorphic)."""
    from .resolver import iso_scaling

    for a in range(len(summands)):
        for b in range(a + 1, len(summands)):
            if summands[a].key() == summands[b].key():
                raise DuplicateSummand("equal summands", i=a, j=b)
            if iso_scaling(summands[a], summands[b]) is not None:
                raise DuplicateSummand("isomorphic summands", i=a, j=b)
    return EndoAlgebra(ring, summands, labels)


def radical(alg):
    """rad(Gamma) as its block description: every off-diagonal Hom block in
    full, plus rad End(X_i) on the diagonal."""
    blocks = {}
    for j in range(alg.k):
        for l in range(alg.k):
            blocks[(j, l)] = alg.rad_diag[j] if j == l else alg.hom[(j, l)]
    return blocks


def _products(alg, left, right, j, l):
    """The composites b o a, a in left[(j, m)], b in right[(m, l)], over
    every m, as hom-vectors of Hom(X_j, X_l)."""
    x = alg.summands
    out = []
    for m in range(alg.k):
        for a in left[(j, m)]:
            fa = hom_element_as_map(x[j], x[m], a)
            out += [map_as_hom_element(hom_element_as_map(x[m], x[l], b).compose(fa)) for b in right[(m, l)]]
    return out


def _block_cover(lat, vecs):
    """``nakayama_covers`` of the block ``lat`` over R * vecs + m * lat at
    the cut hi + mx, past which every element of ``lat`` lies in m * lat."""
    return nakayama_covers(lat, [(vecs, []), maximal_ideal_module(lat)], lat.nakayama_cut())


def _certify_arrows(alg):
    """J = Gamma A: per block, the composites of the arrows with the minimal
    generators of the Hom blocks, plus m * J_(j,l), span J_(j,l) at the cut
    hi + mx and lie in it; Nakayama over R does the rest.  Missing arrows
    would make covers non-minimal and a pd wrong; an arrow outside J would
    make Q * rad too large."""
    rad = radical(alg)
    arrows = {b: [a for j, l, a in alg.arrows if (j, l) == b] for b in rad}
    hom = {b: minimal_generators(lat) for b, lat in alg.hom.items()}
    for (j, l), lat in rad.items():
        lifts, inside = _block_cover(lat, _products(alg, arrows, hom, j, l))
        if lifts or not inside:
            raise ClaimViolation("arrows do not generate rad Gamma", source=alg.labels[j], target=alg.labels[l])


def _column_lattice(alg, blocks, i):
    """(+)_j blocks[(j, i)] in the hom ambient of (M, X_i): coordinate
    (br, k, l) of the Hom(X_j, X_i) block goes to (br, k, m_off[br][j] + l).
    With the Hom blocks this is P_i = Hom(M, X_i); with radical(alg), rad P_i."""
    M, Xi = alg.M.ambient, alg.summands[i].ambient
    hamb = hom_ambient(M, Xi)
    lats = [blocks[(j, i)] for j in range(alg.k)]
    placements = []
    for j, blk in enumerate(lats):
        bamb, rj = blk.ambient, alg.summands[j].ambient.ranks
        cmap = []
        for cb in range(bamb.ncoords):
            br = bamb.branch_of(cb)
            k, l = divmod(cb - bamb.offsets[br], rj[br])
            cmap.append(hom_coord(hamb, M, Xi, br, k, alg.m_off[br][j] + l))
        placements.append(cmap)
    return placed_sum(hamb, lats, placements)


# -- Gamma-lattices ------------------------------------------------------------------


class ProjIndex(Ambient):
    """The ambient Hom(M, T) = (+)_a Hom(M, X_{c_a}) for T = (+)_a X_{c_a}.

    A Gamma-lattice is a Module in this ambient; ``T`` is the direct sum
    lattice and ``plat`` the lattice (+)_a P_{c_a} itself.
    """

    __slots__ = ("alg", "col_types", "T", "_types", "plat")

    def __init__(self, alg, col_types):
        self.alg = alg
        self.col_types = tuple(col_types)
        self.T, _ = direct_sum([alg.summands[c] for c in self.col_types])
        M = alg.M.ambient
        super().__init__(hom_ambient(M, self.T.ambient).ranks)
        types = []
        for br in range(alg.ring.branches):
            types += [alg.m_type[br][s % M.ranks[br]] for s in range(self.ranks[br])]
        self._types = tuple(types)
        ds, _ = direct_sum([alg.P[c] for c in self.col_types])
        self.plat = Lattice(alg.ring, self, ds.lo, ds.hi, ds.basis)

    def source_type(self, coord):
        return self._types[coord]


def _right_act(alg, pidx, vec, j, l, g):
    """vec * gamma for gamma = g in the Hom(X_j, X_l) block of End(M)."""
    field = alg.ring.field
    out = [LaurentPoly.zero(field)] * pidx.ncoords
    M, T = alg.M.ambient, pidx.T.ambient
    Aj = alg.summands[j].ambient
    Al = alg.summands[l].ambient
    hjl = hom_ambient(Aj, Al)
    for br in range(alg.ring.branches):
        oj, ol = alg.m_off[br][j], alg.m_off[br][l]
        for k in range(T.ranks[br]):
            for k3 in range(Aj.ranks[br]):
                acc = LaurentPoly.zero(field)
                for k2 in range(Al.ranks[br]):
                    phi = vec[hom_coord(pidx, M, T, br, k, ol + k2)]
                    gg = g[hom_coord(hjl, Aj, Al, br, k2, k3)]
                    if phi and gg:
                        acc = acc + phi * gg
                if acc:
                    out[hom_coord(pidx, M, T, br, k, oj + k3)] = acc
    return tuple(out)


def _gamma_module(alg, i, lat):
    """A lattice in the hom ambient of (M, X_i) as a Module in P_i's
    ProjIndex ambient, with a skeleton unit vector per coordinate at depth
    tail + mx."""
    pidx = ProjIndex(alg, (i,))
    field = alg.ring.field
    skel = []
    for c, h in enumerate(lat.hi):
        br = pidx.branch_of(c)
        skel.append((br, pidx.unit_vec(field, c, 0), h + alg.ring.mx(br)))
    return Module(alg.ring, pidx, lat.basis, lat.cones, lat.lo, skel)


def projective_gamma(alg, i):
    """P_i as a Gamma-lattice."""
    return _gamma_module(alg, i, alg.P[i])


def rad_projective_gamma(alg, i):
    """rad P_i = (+)_{j != i} Hom(X_j, X_i)  (+)  rad End(X_i)."""
    return _gamma_module(alg, i, _column_lattice(alg, radical(alg), i))


def _top_cut(q):
    """The window cut at which Q is compared with Q * rad: past the tails of
    the ambient P's by mx, and past Q's skeleton and rows."""
    return q.deep_cut(q.ambient.plat.nakayama_cut())


def _top_spans(q):
    """The spans one cover step compares: (window, Q, Q * rad), cut where
    Q is compared with Q * rad.  Q * rad = Q * A is R-generated by the
    products u * a of Q's generators u with the arrows a."""
    alg = q.ambient.alg
    rgens = [_right_act(alg, q.ambient, u, j, l, a) for u in q.genset() for j, l, a in alg.arrows]
    cut = _top_cut(q)
    lo = valuation_floor(rgens, q.lo)
    ws, ech_q = q.span(lo, cut)
    _, ech_r = raw_span(q.ring, q.ambient, rgens, [], lo, cut)
    return ws, ech_q, ech_r


def _top_lifts(alg, ws, ech_q, ech_r):
    """Type decomposition of Q/(Q rad) from the spans of ``_top_spans``:
    list of (type j, lift).  ``ech_r`` is left unchanged."""
    field = alg.ring.field
    out = []
    for j in range(alg.k):
        # split by source type: coordinate-aligned projections
        keep = {idx for idx, (coord, e) in enumerate(ws.cols) if ws.ambient.source_type(coord) == j}
        if not keep:
            continue
        zero = field.zero()

        def proj(row):
            return [c if idx in keep else zero for idx, c in enumerate(row)]

        denom = Echelon(field, ws.ncols())
        for r in ech_r.rows:
            denom.add(proj(r))
        for r in ech_q.rows:
            pr = proj(r)
            if denom.add(pr):
                out.append((j, ws.vec_of(pr)))
    return out


def gamma_top(q):
    """Type decomposition of Q/(Q rad): returns list of (type j, lift)."""
    return _top_lifts(q.ambient.alg, *_top_spans(q))


def minimal_cover_syzygy(q):
    """One step of the minimal projective resolution of Q.

    Returns (cover column types, syzygy Gamma-lattice).  Q and Q * rad are
    spanned once; the surjectivity certificate adds the cover images to the
    Q * rad span.
    """
    qidx = q.ambient
    alg = qidx.alg
    ws, ech_q, ech_r = _top_spans(q)
    tops = _top_lifts(alg, ws, ech_q, ech_r)
    if not tops:
        raise ClaimViolation("nonzero Gamma-lattice with zero top")
    pidx = ProjIndex(alg, (j for j, _ in tops))
    # the cover is Hom(M, lam) for lam: T_p -> T_q, whose summand a of type
    # j is the restriction of the a-th top lift to the M slots of X_j
    M, Tq = alg.M.ambient, qidx.T.ambient
    entries = {}
    toff = [0] * alg.ring.branches
    for j, lift in tops:
        Aj = alg.summands[j].ambient
        for br in range(alg.ring.branches):
            for kq in range(Tq.ranks[br]):
                for k in range(Aj.ranks[br]):
                    entries[(br, kq, toff[br] + k)] = lift[hom_coord(qidx, M, Tq, br, kq, alg.m_off[br][j] + k)]
            toff[br] += Aj.ranks[br]
    lam = LatticeMap.from_entries(pidx.T, qidx.T, entries)
    cover_map = hom_induced_map(alg.M, lam, pidx.plat, qidx.plat)
    syz, _ = kernel_window_module(cover_map)
    # Nakayama over Gamma: im(cover) + Q rad = Q.  An image below the
    # window lies below Q's valuations, so it is not in Q; multiplying by R
    # never lowers a valuation, so no R-multiple of the others is either.
    images = [cover_map.apply(g) for g in pidx.plat.genset()]
    inside = _close(ws, ech_r, images, mults=q.ring.gens)
    if not (inside and ech_r.contains_space(ech_q) and ech_q.contains_space(ech_r)):
        raise ClaimViolation("minimal cover is not surjective")
    return pidx.col_types, syz


@dataclass
class PdCertificate:
    pd: int
    capped: bool
    cover_types: list

    def as_json(self):
        return {
            "pd": self.pd if not self.capped else None,
            "capped": self.capped,
            "cover_types": self.cover_types,
        }


class SimpleModule:
    """The simple right Gamma-module at summand i (top of P_i)."""

    __slots__ = ("alg", "index")

    def __init__(self, alg, index):
        self.alg = alg
        self.index = index


def minimal_projective_resolution(qmod, cap=16):
    """pd certificate via minimal covers; termination when a syzygy is 0."""
    if isinstance(qmod, SimpleModule):
        alg = qmod.alg
        omega = rad_projective_gamma(alg, qmod.index)
        steps = 1
        covers = [[qmod.index]]
    else:
        omega = qmod
        steps = 0
        covers = []
    if omega.is_zero():
        return PdCertificate(pd=steps - 1 if steps else 0, capped=False, cover_types=covers)
    while True:
        col_types, syz = minimal_cover_syzygy(omega)
        covers.append(list(col_types))
        if syz.is_zero():
            return PdCertificate(pd=steps, capped=False, cover_types=covers)
        omega = syz
        steps += 1
        if steps > cap:
            return PdCertificate(pd=cap, capped=True, cover_types=covers)


@dataclass
class GldimReport:
    labels: list
    pd_per_simple: list
    gldim: int
    capped: bool
    bound_theorem_dim_one: int  # n + 1
    bound_fcmt: int  # max{2, d} with d = 1
    multiplicity: int
    n: int
    delta: int
    assumptions: list

    def as_json(self):
        return {
            "summands": self.labels,
            "pd_per_simple": self.pd_per_simple,
            "gldim": self.gldim if not self.capped else None,
            "capped": self.capped,
            "bound_chain_depth_plus_one": self.bound_theorem_dim_one,
            "bound_fcmt_max_2_d": self.bound_fcmt,
            "multiplicity": self.multiplicity,
            "chain_depth": self.n,
            "delta": self.delta,
            "assumptions": self.assumptions,
        }


def global_dimension(alg, cap=16, n=None, assumptions=None):
    """Exact global dimension: max pd over the simple modules."""
    pds = []
    capped = False
    for i in range(alg.k):
        cert = minimal_projective_resolution(SimpleModule(alg, i), cap=cap)
        pds.append(cert.pd)
        capped = capped or cert.capped
    from .curve_ring import ring_report

    rep = ring_report(alg.ring)
    return GldimReport(
        labels=list(alg.labels),
        pd_per_simple=pds,
        gldim=max(pds) if pds else 0,
        capped=capped,
        bound_theorem_dim_one=(n + 1) if n is not None else -1,
        bound_fcmt=2,
        multiplicity=rep.multiplicity,
        n=n if n is not None else -1,
        delta=rep.delta,
        assumptions=list(assumptions or []),
    )


def projectivization_check(alg):
    """Hom(M, -) is an equivalence from add(M) to projectives: pairwise
    Hom(M, X_i + X_j) = P_i + P_j, and the free-source block of each P_i
    recovers X_i (counit)."""
    for i in range(alg.k):
        for j in range(alg.k):
            ds, _ = direct_sum([alg.summands[i], alg.summands[j]])
            h = hom_lattice(alg.M, ds)
            pp, _ = direct_sum([alg.P[i], alg.P[j]])
            if h.key() != pp.key():
                return False
    # counit against the free summand X_0 = R: Hom(R, X_i) = X_i
    root = alg.summands[0]
    if root.ambient.ranks != tuple([1] * alg.ring.branches):
        return False
    for i in range(alg.k):
        h = alg.hom[(0, i)]
        if h.ambient.ranks != alg.summands[i].ambient.ranks:
            return False
        if h.key() != alg.summands[i].key():
            return False
    return True


def fcmt_check(ring, mcm_list, labels=None, cap=16, n=None):
    """Finite-CM-type check: Gamma on a user-asserted complete MCM list.

    Completeness of the list is not verifiable here and is recorded as an
    assumption.  R itself must be in the list (free summand).
    """
    root_key = None
    self_as_member = ring.self_lattice
    idx = None
    for a, l in enumerate(mcm_list):
        if l.key() == self_as_member.key():
            idx = a
            break
    if idx is None:
        raise MissingFreeSummand("the ring itself must appear in the MCM list")
    ordered = [mcm_list[idx]] + [l for a, l in enumerate(mcm_list) if a != idx]
    if labels:
        labels = [labels[idx]] + [x for a, x in enumerate(labels) if a != idx]
    alg = build_endo_algebra(ring, ordered, labels)
    rep = global_dimension(
        alg,
        cap=cap,
        n=n,
        assumptions=[
            "mcm_list asserted complete by the caller (classification input)"
        ],
    )
    return rep
