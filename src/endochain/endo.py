"""The lattice algebra Gamma = End_R(M)^op and its global dimension.

Gamma is kept as its block data Hom(X_i, X_j); right End(M)-modules stand in
for Gamma-modules throughout (the opposite-ring convention).  Projectives are
P_i = Hom(M, X_i); a simple sits on top of each P_i.  Syzygies of simples are
genuine sublattices of direct sums of the P_i: Modules in a ``ProjIndex``
ambient, with exact window rows plus F[[t]]-cones along a per-branch basis
of their K-span.  Minimal covers use Nakayama over Gamma/rad; the
source-block grading of the hom ambient makes the type decomposition of tops
coordinate-aligned.

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
    hom_lattice,
    is_surjective_onto,
    kernel_window_module,
    nakayama_covers,
    quotient_dimension,
    raw_span,
    valuation_floor,
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
        # m_off[br][j]: slot offset of summand j inside M on a branch
        self.m_off = []
        for br in range(ring.branches):
            offs = []
            acc = 0
            for x in self.summands:
                offs.append(acc)
                acc += x.ambient.ranks[br]
            self.m_off.append(offs)
        self.hom = {}
        for i in range(self.k):
            for j in range(self.k):
                self.hom[(i, j)] = hom_lattice(self.summands[i], self.summands[j])
        self.rad_diag = [diagonal_radical(self, i) for i in range(self.k)]
        self.P = [hom_lattice(self.M, x) for x in self.summands]
        self._rad_gens = None

    def rad_gens(self):
        """R-module generators of rad(Gamma), each in a single block
        (source j, target l, hom-vector of Hom(X_j, X_l))."""
        if self._rad_gens is None:
            out = []
            for j in range(self.k):
                for l in range(self.k):
                    blk = self.rad_diag[j] if j == l else self.hom[(j, l)]
                    for g in blk.genset():
                        if not blk.ambient.vec_is_zero(g):
                            out.append((j, l, g))
            self._rad_gens = out
        return self._rad_gens

    def mx(self, br):
        return max(self.ring.conductor[br], 1)


def _compose_hvec(alg, a, b, c, f, g):
    """f in Hom(X_b, X_c), g in Hom(X_a, X_b) -> f o g in Hom(X_a, X_c)."""
    A = alg.summands[a].ambient
    B = alg.summands[b].ambient
    C = alg.summands[c].ambient
    hef = hom_ambient(B, C)
    heg = hom_ambient(A, B)
    hout = hom_ambient(A, C)
    field = alg.ring.field
    out = [LaurentPoly.zero(field)] * hout.ncoords
    for br in range(A.nbranches()):
        for kk in range(C.ranks[br]):
            for ll in range(A.ranks[br]):
                acc = LaurentPoly.zero(field)
                for mm in range(B.ranks[br]):
                    x = f[hom_coord(hef, B, C, br, kk, mm)]
                    y = g[hom_coord(heg, A, B, br, mm, ll)]
                    if x and y:
                        acc = acc + x * y
                out[hom_coord(hout, A, C, br, kk, ll)] = acc
    return tuple(out)


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
    zexp = [max(ring.conductor[br], 1) * m for br in range(ring.branches)]
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

    lmats = []
    traces = []
    for a in range(dim_a):
        cols = []
        tr = field.zero()
        for b in range(dim_a):
            prod = _compose_hvec(alg, i, i, i, rep_vecs[a], rep_vecs[b])
            coords = acoords(prod)
            cols.append(coords)
            tr = tr + coords[b]
        lmats.append(cols)
        traces.append(tr)
    gram = []
    for a in range(dim_a):
        grow = []
        for b in range(dim_a):
            prod = _compose_hvec(alg, i, i, i, rep_vecs[a], rep_vecs[b])
            coords = acoords(prod)
            tr = field.zero()
            for s in range(dim_a):
                if coords[s]:
                    tr = tr + coords[s] * traces[s]
            grow.append(tr)
        gram.append(grow)
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
    x = alg.summands[i]
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


# -- Gamma-lattices ------------------------------------------------------------------


class ProjIndex(Ambient):
    """The ambient of (+)_a Hom(M, X_{c_a}) with its block bookkeeping.

    A Gamma-lattice is a Module in this ambient; ``plat`` is the lattice
    (+)_a P_{c_a} itself.
    """

    __slots__ = ("alg", "col_types", "rM", "block_off", "_types", "plat")

    def __init__(self, alg, col_types):
        self.alg = alg
        self.col_types = tuple(col_types)
        nb = alg.ring.branches
        self.rM = [alg.M.ambient.ranks[br] for br in range(nb)]
        ranks = []
        self.block_off = []
        for br in range(nb):
            offs = []
            acc = 0
            for c in self.col_types:
                offs.append(acc)
                acc += alg.summands[c].ambient.ranks[br] * self.rM[br]
            self.block_off.append(offs)
            ranks.append(acc)
        super().__init__(ranks)
        types = []
        for coord in range(self.ncoords):
            br = self.branch_of(coord)
            rem = coord - self.offsets[br]
            a = 0
            for idx in range(len(self.col_types)):
                if rem >= self.block_off[br][idx]:
                    a = idx
            rem -= self.block_off[br][a]
            lM = rem % self.rM[br] if self.rM[br] else 0
            j = 0
            for idx in range(alg.k):
                if lM >= alg.m_off[br][idx]:
                    j = idx
            types.append(j)
        self._types = tuple(types)
        ds, _ = direct_sum([alg.P[c] for c in self.col_types])
        self.plat = Lattice(alg.ring, self, ds.lo, ds.hi, ds.basis)

    def block_coord(self, a, br, k, lM):
        return self.coord(br, self.block_off[br][a] + k * self.rM[br] + lM)

    def source_type(self, coord):
        return self._types[coord]


def _right_act(alg, pidx, vec, j, l, g):
    """vec * gamma for gamma = g in the Hom(X_j, X_l) block of End(M)."""
    field = alg.ring.field
    out = [LaurentPoly.zero(field)] * pidx.ncoords
    Aj = alg.summands[j].ambient
    Al = alg.summands[l].ambient
    hjl = hom_ambient(Aj, Al)
    nb = alg.ring.branches
    for a, ctype in enumerate(pidx.col_types):
        Xc = alg.summands[ctype].ambient
        for br in range(nb):
            for k in range(Xc.ranks[br]):
                for k3 in range(Aj.ranks[br]):
                    acc = LaurentPoly.zero(field)
                    for k2 in range(Al.ranks[br]):
                        phi = vec[pidx.block_coord(a, br, k, alg.m_off[br][l] + k2)]
                        gg = g[hom_coord(hjl, Aj, Al, br, k2, k3)]
                        if phi and gg:
                            acc = acc + phi * gg
                    if acc:
                        c = pidx.block_coord(a, br, k, alg.m_off[br][j] + k3)
                        out[c] = out[c] + acc
    return tuple(out)


def projective_gamma(alg, i):
    """P_i as a Gamma-lattice."""
    pidx = ProjIndex(alg, (i,))
    plat = pidx.plat
    field = alg.ring.field
    skel = []
    for c in range(pidx.ncoords):
        br = pidx.branch_of(c)
        skel.append((br, pidx.unit_vec(field, c, 0), plat.hi[c] + alg.mx(br)))
    return Module(alg.ring, pidx, plat.basis, plat.cones, plat.lo, skel)


def rad_projective_gamma(alg, i):
    """rad P_i = (+)_{j != i} Hom(X_j, X_i)  (+)  rad End(X_i)."""
    pidx = ProjIndex(alg, (i,))
    field = alg.ring.field
    Xi = alg.summands[i].ambient
    rows = []
    cones = []
    skel = []
    for j in range(alg.k):
        blk = alg.rad_diag[i] if j == i else alg.hom[(j, i)]
        Aj = alg.summands[j].ambient
        hji = hom_ambient(Aj, Xi)

        def embed(v):
            out = [LaurentPoly.zero(field)] * pidx.ncoords
            for cb in range(hji.ncoords):
                if v[cb]:
                    br2 = hji.branch_of(cb)
                    rem = cb - hji.offsets[br2]
                    rj = Aj.ranks[br2]
                    k, l = divmod(rem, rj)
                    out[pidx.block_coord(0, br2, k, alg.m_off[br2][j] + l)] = v[cb]
            return tuple(out)

        for v in blk.basis:
            rows.append(embed(v))
        for br, v in blk.cones:
            cones.append((br, embed(v)))
        for cb in range(hji.ncoords):
            br2 = hji.branch_of(cb)
            skel.append(
                (
                    br2,
                    embed(hji.unit_vec(field, cb, 0)),
                    blk.hi[cb] + alg.mx(br2),
                )
            )
    return Module(alg.ring, pidx, rows, cones, pidx.plat.lo, skel)


def _times_rad_gens(q):
    """R-module generators of Q * rad(Gamma)."""
    alg = q.ambient.alg
    out = []
    for u in q.genset():
        for j, l, g in alg.rad_gens():
            out.append(_right_act(alg, q.ambient, u, j, l, g))
    return out


def _top_cut(q):
    """The window cut at which Q is compared with Q * rad: past the tails of
    the ambient P's by mx, and past Q's skeleton and rows."""
    pidx = q.ambient
    return q.deep_cut(
        [pidx.plat.hi[c] + pidx.alg.mx(pidx.branch_of(c)) for c in range(pidx.ncoords)]
    )


def gamma_top(q):
    """Type decomposition of Q/(Q rad): returns list of (type j, lift)."""
    pidx = q.ambient
    alg = pidx.alg
    field = alg.ring.field
    cut = _top_cut(q)
    rgens = _times_rad_gens(q)
    lo = valuation_floor(rgens, q.lo)
    ws, ech_q = q.span(lo, cut)
    _, ech_r = raw_span(alg.ring, pidx, rgens, [], lo, cut)
    # split by source type: coordinate-aligned projections
    out = []
    for j in range(alg.k):
        cols_j = [
            idx
            for idx, (coord, e) in enumerate(ws.cols)
            if pidx.source_type(coord) == j
        ]
        if not cols_j:
            continue
        keep = set(cols_j)
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


def minimal_cover_syzygy(q, check_surjective=True):
    """One step of the minimal projective resolution of Q.

    Returns (cover column types, syzygy Gamma-lattice).
    """
    qidx = q.ambient
    alg = qidx.alg
    field = alg.ring.field
    tops = gamma_top(q)
    if not tops:
        raise ClaimViolation("nonzero Gamma-lattice with zero top")
    pidx = ProjIndex(alg, (j for j, _ in tops))
    # cover matrix: summand a' of type j sends phi to q_{a'} . phi;
    # entry C[(a,(k,l))][(a',(k'',l))] = lift_{a'}[a-block, (k, m_off[j]+k'')]
    nb = alg.ring.branches
    mats = []
    for br in range(nb):
        m = [[LaurentPoly.zero(field) for _ in range(pidx.ranks[br])] for _ in range(qidx.ranks[br])]
        mats.append(m)
    for a2, (j, lift) in enumerate(tops):
        Aj = alg.summands[j].ambient
        for a, ctype in enumerate(qidx.col_types):
            Xc = alg.summands[ctype].ambient
            for br in range(nb):
                for k in range(Xc.ranks[br]):
                    for k2 in range(Aj.ranks[br]):
                        entry = lift[qidx.block_coord(a, br, k, alg.m_off[br][j] + k2)]
                        if not entry:
                            continue
                        for lM in range(pidx.rM[br]):
                            rr = qidx.block_coord(a, br, k, lM) - qidx.offsets[br]
                            cc = pidx.block_coord(a2, br, k2, lM) - pidx.offsets[br]
                            mats[br][rr][cc] = entry
    cover_map = LatticeMap(pidx.plat, qidx.plat, mats)
    syz, _ = kernel_window_module(cover_map)
    if check_surjective:
        # Nakayama over Gamma: im(cover) + Q rad = Q
        rgens = [cover_map.apply(g) for g in pidx.plat.genset()] + _times_rad_gens(q)
        lifts, inside = nakayama_covers(q, [(rgens, [])], _top_cut(q))
        if lifts or not inside:
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


def projective(alg, i):
    return projective_gamma(alg, i)


def simple(alg, i):
    return SimpleModule(alg, i)


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
