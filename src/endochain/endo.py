"""The lattice algebra Gamma = End_R(M)^op and its global dimension.

Gamma is kept as its block data Hom(X_i, X_j); right End(M)-modules stand in
for Gamma-modules throughout (the opposite-ring convention).  Gamma has one
idempotent e_j per summand, the projection of M onto X_j.  A right
Gamma-lattice Q in Hom(M, T), T = (+)_a X_{c_a}, contains each Q e_j (it is
a right module) and is their direct sum (the e_j sum to 1), with Q e_j
inside Hom(X_j, T); a ``GammaLattice`` stores Q by these parts.  The
projective P_i = Hom(M, X_i) has the parts Hom(X_j, X_i), rad P_i those of
rad Gamma, each part a block lattice as the algebra keeps it.  The simple
S_i = P_i/rad P_i has P_i -> S_i as its first minimal cover, so pd S_i =
1 + pd rad P_i, and every pd is one loop of cover steps over
Gamma-lattices (``minimal_projective_resolution``).  Minimal covers use Nakayama
over Gamma/rad: Q rad = Q A for the arrows A of Gamma, lifts of a basis of
J/J^2 (J = rad Gamma), as J = Gamma A by Nakayama; each algebra certifies
J = Gamma A when it is built.  An arrow a: X_j -> X_l carries Q e_l into
Q e_j, so each cover step spans Q e_j and Q rad e_j once per type, reads the
tops of type j off them, and certifies the cover there.  Q rad e_j is the
sum of the images of Q e_l under Hom(a, T) (``lattice.hom_precompose``),
R-modules spanned as images with no R-closure, as are the composites that
give and certify the arrows and the cover's image.  The cover is
Hom(M, lam) for a map lam: T' -> T read off the tops; it maps Hom(X_j, T')
into Hom(X_j, T) for each j, so its certificate and its syzygy (the image
of ``kernel_lattice``, ``lattice.kernel_window_module``) split by type as
well.  Only ``projectivization_check`` builds M and P_i in the
Hom(M, X_i) layout, as locals, to compare P_i with ``hom_lattice(M, X_i)``.

The radical of each End(X_i) is the trace-form kernel of its action on the
top X_i/mX_i, placed with no closure (``diagonal_radical``), and is
cross-checked by the "image is proper" surjectivity test.
"""

from dataclasses import dataclass

from .linalg import Echelon
from .curve_ring import ring_report
from .errors import (
    CharacteristicTooSmall,
    ClaimViolation,
    DuplicateSummand,
    MissingFreeSummand,
    NotIndecomposable,
)
from .lattice import (
    Lattice,
    LatticeMap,
    direct_sum,
    hom_ambient,
    hom_coord,
    hom_element_as_map,
    hom_induced_map,
    hom_lattice,
    hom_precompose,
    is_surjective_onto,
    isomorphism,
    kernel_window_module,
    minimal_generators,
    nakayama_covers,
    placed_sum,
    _span_image,
    _span_m,
)


class EndoAlgebra:
    """Block data of End_R(M) for M = (+) X_i, the X_i pairwise
    non-isomorphic indecomposable lattices (X_0 free when M is a generator),
    from the Hom blocks hom[(i, j)] = Hom(X_i, X_j).
    """

    def __init__(self, ring, summands, labels, hom):
        self.ring = ring
        self.summands = list(summands)
        self.k = len(summands)
        self.labels = list(labels) if labels else [f"X{i}" for i in range(self.k)]
        self.hom = hom
        self.col_blocks = {}  # column types -> (T, blocks) of GammaLattice
        self.rad_diag = [diagonal_radical(self, i) for i in range(self.k)]
        self.arrows = self.rad_gens()
        _certify_arrows(self)

    def rad_gens(self):
        """The arrows A: per block (j, l) of J = rad Gamma, (j, l, a) for
        the Nakayama lifts a of J_(j,l) over the images of J_(m,l) under
        Hom(a', X_l) (``hom_precompose``), a' over the minimal generators of
        J_(j,m), plus m * J_(j,l) (which lies in J^2), i.e. lifts of an
        F-basis of J/J^2.  Nakayama over Gamma gives J = Gamma A, so
        Q * rad = Q * A; ``_certify_arrows`` checks it."""
        rad = radical(self)
        gens = {b: minimal_generators(lat) for b, lat in rad.items()}
        return [
            (j, l, a)
            for (j, l), lat in rad.items()
            for a in _block_cover(lat, _products(self, gens, rad, j, l))[0]
        ]


def _top_action(x):
    """The action of End(X) on the top X/mX, on X's window at its Nakayama
    cut, past which X lies in m * X.  X's window rows reduced modulo m * X
    give, in RREF, vectors of X whose classes are an F-basis of X/mX; the
    coordinates of y + mX in it are the entries of y's residue modulo m * X
    at their pivots.  Returns (dim X/mX, f -> the matrix of f on X/mX as a
    row, entry (c, a) at a * dim + c)."""
    ws, e_x = x.span(x.lo, x.nakayama_cut())
    e_m, e_top = ws.echelon(), ws.echelon()
    _span_m(ws, e_m, x)
    e_top.add_many(e_m.residue(r) for r in e_x.rows)
    pivots = sorted(e_top.by_pivot)
    tops = [ws.vec_of(r) for r in e_top.rows]

    def bar(f):
        images = (e_m.residue(ws.row_of(f.apply(y))) for y in tops)
        return {a * len(tops) + c: res[p] for a, res in enumerate(images) for c, p in enumerate(pivots) if p in res}

    return len(tops), bar


def diagonal_radical(alg, i):
    """rad End(X) inside Hom(X, X), X = X_i, from End(X)'s action on the
    top X/mX, mu = dim X/mX, cross-checked by the image test.

    An f with f(X) <= mX lies in rad End(X), as 1 - gf is onto by
    Nakayama; so End(X)/rad = A/rad A for the image A <= M_mu(F) of End(X).
    For char F = 0 or p > mu, rad A is the kernel of the trace form
    tr(a b) on A (Dickson's criterion; Cohen, Ivanyos and Wales, J. Pure
    Appl. Algebra 117-118, 1997), so X is indecomposable exactly when the
    form has rank dim End(X)/rad = 1.  Then A = F * 1 + rad A, whose
    nilpotents have trace 0, so rad End(X) is the kernel of phi(f) =
    tr(f-bar)/mu, an R-submodule as phi(r f) = r(0) phi(f).  Past its
    Nakayama cut End(X) lies in m * End(X), which kills X/mX and lies in
    rad: so the rows of End(X)'s window at that cut give A, and their
    kernel of phi places rad there, the cut a valid tail.

    The guard asks p > dim End/z End, z = (t^zexp_br) a deep conductor
    monomial; dim L/zL is the sum of zexp_br over L's coordinates for any
    full lattice L.  As z lies in m, mu = dim X/mX <= dim X/zX <=
    dim End/z End < p."""
    ring, field = alg.ring, alg.ring.field
    x, ea = alg.summands[i], alg.hom[(i, i)]
    amb = ea.ambient
    if amb.ncoords == 0:
        raise NotIndecomposable("zero summand", label=alg.labels[i])
    depth = max(1, 1 - min(ea.lo))
    dim_z = sum(ring.mx(amb.branch_of(c)) * depth for c in range(amb.ncoords))
    if field.kind == "prime" and field.characteristic <= dim_z:
        raise CharacteristicTooSmall("prime field must exceed the finite-quotient dimension", p=field.characteristic, dim=dim_z)
    n, bar = _top_action(x)
    cut = ea.nakayama_cut()
    ws, e_end = ea.span(ea.lo, cut)
    rows = e_end.rows
    # the trace form on an F-basis of A, the span of the matrices b-bar
    bars = [bar(hom_element_as_map(x, x, ws.vec_of(b))) for b in rows]
    span_a = Echelon(field, n * n)
    span_a.add_many(bars)
    gram = Echelon(field, span_a.rank())
    gram.add_many(
        field.clean({k: sum(v * q.get(j % n * n + j // n, 0) for j, v in p.items()) for k, q in enumerate(span_a.rows)})
        for p in span_a.rows
    )
    if gram.rank() != 1:
        raise NotIndecomposable("End(X)/rad has F-dimension != 1", label=alg.labels[i], dim=gram.rank())
    # rad's window rows b - phi(b)/phi(u) * u, u a row with phi(u) != 0
    traces = field.clean({k: sum(q.get(a * n + a, 0) for a in range(n)) for k, q in enumerate(bars)})
    k_u = min(traces)
    u = rows[k_u]
    ech = ws.echelon()
    for k, b in enumerate(rows):
        c = field.div(traces.get(k, 0), traces[k_u])
        ech.add(field.clean({j: b.get(j, 0) - c * u.get(j, 0) for j in b.keys() | u.keys()}))
    rad = Lattice._canonicalize(ring, amb, list(ea.lo), cut, ech, ws)
    for v in ea.basis:
        if is_surjective_onto(hom_element_as_map(x, x, v)) == rad.member(v):
            raise ClaimViolation("radical cross-check failed (trace form vs image test)", summand=alg.labels[i])
    return rad


def build_endo_algebra(ring, summands, labels=None):
    """Assemble Gamma from pairwise non-isomorphic summands of any rank;
    ``lattice.isomorphism`` is exact here, as EndoAlgebra then certifies
    each End(X_i) local (``diagonal_radical``).  The guard reads the Hom
    blocks the algebra keeps, so each is solved once."""
    hom = {}
    for a in range(len(summands)):
        for b in range(a + 1, len(summands)):
            if summands[a].key() == summands[b].key():
                raise DuplicateSummand("equal summands", i=a, j=b)
            hom[(a, b)] = hom_lattice(summands[a], summands[b])
            if isomorphism(summands[a], summands[b], hom[(a, b)]) is not None:
                raise DuplicateSummand("isomorphic summands", i=a, j=b)
    hom = {
        (i, j): hom[(i, j)] if (i, j) in hom else hom_lattice(x, y)
        for i, x in enumerate(summands)
        for j, y in enumerate(summands)
    }
    return EndoAlgebra(ring, summands, labels, hom)


def radical(alg):
    """rad(Gamma) as its block description: every off-diagonal Hom block in
    full, plus rad End(X_i) on the diagonal."""
    blocks = {}
    for j in range(alg.k):
        for l in range(alg.k):
            blocks[(j, l)] = alg.rad_diag[j] if j == l else alg.hom[(j, l)]
    return blocks


def _products(alg, left, right, j, l):
    """The composites right[(m, l)] o a, a in left[(j, m)], over every m, as
    image parts in Hom(X_j, X_l): the lattice right[(m, l)] under Hom(a, X_l)
    (``hom_precompose``), an R-module that needs no closure."""
    x = alg.summands
    return [hom_precompose(a, x[j], x[m], right[(m, l)], alg.hom[(j, l)]) for m in range(alg.k) for a in left[(j, m)]]


def _block_cover(lat, parts):
    """``nakayama_covers`` of the block ``lat`` over the image ``parts`` +
    m * lat at the cut hi + mx, past which every element of ``lat`` lies in
    m * lat.  The images are spanned from the minimal generators of their
    sources, Hom blocks of the algebra that serve one part per arrow."""
    return nakayama_covers(lat, parts, lat.nakayama_cut(), minimal=True)


def _certify_arrows(alg):
    """J = Gamma A: per block, the composites of the arrows with the minimal
    generators of the Hom blocks, plus m * J_(j,l), span J_(j,l) at the cut
    hi + mx and lie in it; Nakayama over R does the rest.  Missing arrows
    would make covers non-minimal and a pd wrong; an arrow outside J would
    make Q * rad too large."""
    rad = radical(alg)
    arrows = {b: [a for j, l, a in alg.arrows if (j, l) == b] for b in rad}
    for (j, l), lat in rad.items():
        lifts, inside = _block_cover(lat, _products(alg, arrows, alg.hom, j, l))
        if lifts or not inside:
            raise ClaimViolation("arrows do not generate rad Gamma", source=alg.labels[j], target=alg.labels[l])


def _column_lattice(alg, m, i):
    """P_i = Hom(M, X_i) = (+)_j Hom(X_j, X_i) in the hom ambient of (M, X_i),
    M = ``m`` the direct sum of the summands: coordinate (br, k, l) of the
    Hom(X_j, X_i) block goes to (br, k, o + l), o the offset of X_j's slots
    in M on branch br."""
    M, Xi = m.ambient, alg.summands[i].ambient
    hamb = hom_ambient(M, Xi)
    lats = [alg.hom[(j, i)] for j in range(alg.k)]
    placements = []
    off = [0] * alg.ring.branches
    for blk, x in zip(lats, alg.summands):
        bamb, rj = blk.ambient, x.ambient.ranks
        cmap = []
        for cb in range(bamb.ncoords):
            br = bamb.branch_of(cb)
            k, l = divmod(cb - bamb.offsets[br], rj[br])
            cmap.append(hom_coord(hamb, M, Xi, br, k, off[br] + l))
        placements.append(cmap)
        off = [o + r for o, r in zip(off, rj)]
    return placed_sum(alg.ring, hamb, lats, placements)


# -- Gamma-lattices ------------------------------------------------------------------


class GammaLattice:
    """A right Gamma-lattice Q in Hom(M, T), T = (+)_a X_{c_a}, stored by
    source type.

    The idempotent e_j of Gamma is the projection of M onto X_j, and Q e_j
    lies in Q because Q is a right Gamma-module; since the e_j sum to 1,
    Q = (+)_j Q e_j as an R-module, with Q e_j inside Hom(X_j, T).
    ``parts[j]`` is Q e_j, a Module in ``hom_ambient(X_j, T)`` (a block
    Lattice for P_i and rad P_i, a syzygy's ``kernel_window_module``), and
    ``blocks[j]`` is Hom(X_j, T) = (+)_a Hom(X_j, X_{c_a}), the type-j part
    of (+)_a P_{c_a}; T and the blocks depend only on the column types, so
    they are built once per algebra and tuple (``EndoAlgebra.col_blocks``).
    Hom(M, lam) acts on each source type separately, so covers, their
    certificates and syzygies split by type.
    """

    __slots__ = ("alg", "col_types", "T", "parts", "blocks")

    def __init__(self, alg, col_types, parts):
        self.alg = alg
        self.col_types = cols = tuple(col_types)
        if cols not in alg.col_blocks:
            alg.col_blocks[cols] = (
                direct_sum([alg.summands[c] for c in cols])[0],
                [direct_sum([alg.hom[(j, c)] for c in cols])[0] for j in range(alg.k)],
            )
        self.T, self.blocks = alg.col_blocks[cols]
        self.parts = parts

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)


def projective_gamma(alg, i):
    """P_i as a Gamma-lattice: P_i e_j = Hom(X_j, X_i)."""
    return GammaLattice(alg, (i,), [alg.hom[(j, i)] for j in range(alg.k)])


def rad_projective_gamma(alg, i):
    """rad P_i: (rad P_i) e_j = Hom(X_j, X_i) for j != i, rad End(X_i) for j = i."""
    rad = radical(alg)
    return GammaLattice(alg, (i,), [rad[(j, i)] for j in range(alg.k)])


def _top_spans(q):
    """Per type j, the spans that one cover step compares: (window, Q e_j,
    Q rad e_j), cut where Q e_j is compared with Q rad e_j.  Q rad = Q A,
    and (Q A) e_j is the sum of the images (Q e_l) o a of Q e_l under
    Hom(a, T) (``hom_precompose``) over the arrows a: X_j -> X_l, each
    spanned from the rows and cones of Q e_l without closure.  They lie in
    Q e_j, as Q is a Gamma-module, so they lie in its window.  A block
    Lattice part (P_i, rad P_i) spans its placed window, with no closure."""
    x = q.alg.summands
    out = []
    for j, part in enumerate(q.parts):
        ws, ech_q = part.span(part.lo, part.deep_cut(q.blocks[j].nakayama_cut()))
        ech_r = ws.echelon()
        for jj, l, a in q.alg.arrows:
            if jj == j and not _span_image(ws, ech_r, hom_precompose(a, x[j], x[l], q.parts[l], part)):
                raise ClaimViolation("Q o a reaches below Q e_j", source=q.alg.labels[j], target=q.alg.labels[l])
        out.append((ws, ech_q, ech_r))
    return out


def _top_lifts(spans):
    """Type decomposition of Q/(Q rad) from the per-type spans of
    ``_top_spans``: list of (type j, lift), each lift a map X_j -> T.  The
    Q rad echelons are left unchanged."""
    out = []
    for j, (ws, ech_q, ech_r) in enumerate(spans):
        denom = ws.echelon()
        denom.add_many(ech_r.rows)
        out += [(j, ws.vec_of(r)) for r in ech_q.rows if denom.add(r)]
    return out


def gamma_top(q):
    """Type decomposition of Q/(Q rad): returns list of (type j, lift)."""
    return _top_lifts(_top_spans(q))


def minimal_cover_syzygy(q):
    """One step of the minimal projective resolution of Q.

    Returns (cover column types, syzygy Gamma-lattice).  Per source type,
    Q e_j and Q rad e_j are spanned once; the surjectivity certificate adds
    the cover images to the Q rad e_j span and compares its RREF rows with
    those of Q e_j.
    """
    alg = q.alg
    spans = _top_spans(q)
    tops = _top_lifts(spans)
    if not tops:
        raise ClaimViolation("nonzero Gamma-lattice with zero top")
    syz = GammaLattice(alg, [j for j, _ in tops], [])
    # the cover is Hom(M, lam) for lam: T_p -> T_q, whose summand a is the
    # a-th top lift, a map X_{c_a} -> T_q: per branch, lam's matrix is the
    # lifts' matrices side by side
    lifts = [hom_element_as_map(alg.summands[j], q.T, lift).mats for j, lift in tops]
    mats = [
        [sum((f[br][k] for f in lifts), ()) for k in range(q.T.ambient.ranks[br])]
        for br in range(alg.ring.branches)
    ]
    lam = LatticeMap(syz.T, q.T, mats)
    for j, (ws, ech_q, ech_r) in enumerate(spans):
        # Hom(M, lam) maps Hom(X_j, T_p) to Hom(X_j, T_q).  Nakayama over
        # Gamma: im(cover) e_j + Q rad e_j = Q e_j.  An image below the
        # window lies below Q's valuations, so it is not in Q.  Both spans
        # are in RREF on one window, so they are equal exactly when their
        # rows are.
        cover = hom_induced_map(alg.summands[j], lam, syz.blocks[j], q.blocks[j])
        inside = _span_image(ws, ech_r, cover)
        if not (inside and ech_r == ech_q):
            raise ClaimViolation("minimal cover is not surjective")
        syz.parts.append(kernel_window_module(cover)[0])
    return syz.col_types, syz


@dataclass
class PdCertificate:
    pd: int
    capped: bool
    cover_types: list


def minimal_projective_resolution(q, cap=16):
    """pd of the nonzero Gamma-lattice ``q`` by minimal covers, one
    ``minimal_cover_syzygy`` step per degree, until a syzygy is 0; the
    cover types are recorded per step.  Past ``cap`` steps the certificate
    is capped at pd = cap."""
    steps = 0
    covers = []
    while True:
        col_types, q = minimal_cover_syzygy(q)
        covers.append(list(col_types))
        if q.is_zero():
            return PdCertificate(pd=steps, capped=False, cover_types=covers)
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


def global_dimension(alg, cap=16, n=None, assumptions=None, bound=None):
    """Exact global dimension: max pd over the simple modules S_i.

    P_i -> S_i is the first minimal cover, with kernel rad P_i, which holds
    m * P_i and so is never 0: pd S_i = 1 + pd rad P_i, and rad P_i is
    resolved as a Gamma-lattice with cap - 1, so S_i is capped past ``cap``
    steps.  ``bound`` is a proven bound on every pd (n + 1 for the chain
    family); while cap >= bound, a syzygy still nonzero after ``bound``
    steps contradicts it and raises ClaimViolation instead of a capped
    report."""
    pds = []
    capped = False
    proven = bound is not None and cap >= bound
    for i in range(alg.k):
        cert = minimal_projective_resolution(rad_projective_gamma(alg, i), cap=(bound if proven else cap) - 1)
        if proven and cert.capped:
            raise ClaimViolation("pd exceeds the proven bound", simple=alg.labels[i], bound=bound)
        pds.append(1 + cert.pd)
        capped = capped or cert.capped
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
    """Hom(M, -) is an equivalence from add(M) to the projectives.

    Hom(M, -) is additive: Hom(M, X_i + X_j) = Hom(M, X_i) + Hom(M, X_j) in
    the direct-sum layout, so a pair X_i + X_j needs no solve of its own
    once each column holds.  Per summand, ``hom_lattice(M, X_i)``, a fresh
    window solve over M's own minimal generators, must equal P_i as
    assembled from the blocks Hom(X_j, X_i); and the free-source block of
    each P_i recovers X_i (counit)."""
    # counit against the free summand X_0 = R: Hom(R, X_i) = X_i
    if alg.summands[0].ambient.ranks != tuple([1] * alg.ring.branches):
        return False
    M, _ = direct_sum(alg.summands)
    return all(
        alg.hom[(0, i)].key() == x.key() and hom_lattice(M, x).key() == _column_lattice(alg, M, i).key()
        for i, x in enumerate(alg.summands)
    )


def fcmt_check(ring, mcm_list, labels=None, cap=16, n=None):
    """Finite-CM-type check: Gamma on a user-asserted complete MCM list.

    Completeness of the list is not verifiable here and is recorded as an
    assumption.  R itself must be in the list (free summand).
    """
    idx = next((a for a, l in enumerate(mcm_list) if l.key() == ring.self_lattice.key()), None)
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
