"""The lattice algebra Gamma = End_R(M)^op and its global dimension.

Gamma is kept as its block data Hom(X_i, X_j); right End(M)-modules stand in
for Gamma-modules throughout (the opposite-ring convention).  Gamma has one
idempotent e_j per summand, the projection of M onto X_j.  Hom(M, -) is an
equivalence from add(M) to the projective Gamma-modules, P_i = Hom(M, X_i),
and every module resolved here is Hom(M, K) for an R-lattice K, held as K
itself: its part of type j, Hom(M, K) e_j = Hom(X_j, K), is one
``hom_lattice``.  The arrows A of Gamma lift an F-basis of J/J^2,
J = rad Gamma, and each algebra certifies when it is built that the arrows
a: X_s -> X_i into each X_i span J under composition and are independent
modulo J^2 (``_certify_sinks``).  So the sink map lam_i = (a): (+)_a X_s ->
X_i of X_i in add(M) gives S_i its first two minimal covers, P_i -> S_i and
Hom(M, lam_i), and Omega^2 S_i = Hom(M, K_i), K_i = ker lam_i, by left
exactness; the algebra keeps K_i (``sink_syzygy``).  Every later step is
one more R-side kernel (``minimal_cover_syzygy``): the minimal cover of
Hom(M, K) is Hom(M, lam_K) for the minimal right add(M)-approximation
lam_K: M_K -> K, so Omega Hom(M, K) = Hom(M, ker lam_K).  lam_K is read
off the tops of Hom(M, K) by Nakayama over Gamma/rad: Hom(M, K) rad =
Hom(M, K) A, as the same certificate gives J = Gamma A, so the tops of
type j are Hom(X_j, K) modulo its images Hom(X_l, K) o a over the arrows
a: X_j -> X_l.  lam_i and lam_K alike are assembled by ``_side_by_side``,
certified type by type and replaced by their kernel.  Images are spanned
with no R-closure by ``_left_cover`` (Hom(X_j, f)) for the certificates
and ``_right_cover`` (Hom(a, T)) for the arrows and the tops.  Only
``projectivization_check`` builds M and P_i in the Hom(M, X_i) layout, as
locals, to compare P_i with ``hom_lattice(M, X_i)``.

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
    Ambient,
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
    kernel_lattice,
    minimal_generators,
    nakayama_covers,
    placed_sum,
    _leading_shape,
)
from .series import LaurentPoly


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
        self.rad_diag = [diagonal_radical(self, i) for i in range(self.k)]
        self.arrows = self.rad_gens()
        self.sinks = _certify_sinks(self)

    def rad_gens(self):
        """The arrows A: per block (j, l) of J = rad Gamma, (j, l, a) for
        the Nakayama lifts a of J_(j,l) over the images J_(m,l) o a' under
        Hom(a', X_l) (``_right_cover``), a' over the minimal generators of
        J_(j,m), plus m * J_(j,l) (which lies in J^2), i.e. lifts of an
        F-basis of J/J^2; ``_certify_sinks`` checks that they generate J.
        Each image lies in J_(j,l), or the blocks are not the radical."""
        rad, k = radical(self), self.k
        pairs = [[(m, a) for m in range(k) for a in minimal_generators(rad[(j, m)])] for j in range(k)]
        arrows = []
        for (j, l), lat in rad.items():
            lifts, inside = _right_cover(self, j, lat, pairs[j], [rad[(m, l)] for m in range(k)])
            if not inside:
                raise ClaimViolation("J o J leaves J", source=self.labels[j], target=self.labels[l])
            arrows += [(j, l, a) for a in lifts]
        return arrows


def _top_action(x):
    """The action of End(X) on the top X/mX, read off X's Nakayama window
    (``Lattice.nakayama_window``), at whose cut X lies in m * X.  The
    residues modulo m * X of the window's generator rows give, in RREF,
    vectors of X whose classes are an F-basis of X/mX (each other window
    row lies in m * X plus the rows before it); the coordinates of y + mX
    in it are the entries of y's residue modulo m * X at their pivots.
    Returns (dim X/mX, f -> the matrix of f on X/mX as a row, entry (c, a)
    at a * dim + c)."""
    ws, _, m_pivots, rows, _ = x.nakayama_window()
    e_m, e_top = ws.echelon(), ws.echelon()
    e_m.by_pivot = m_pivots
    e_top.add_many(e_m.residue(r) for r in rows)
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

    Over GF(p) the guard asks p > mu, all that Dickson's criterion on
    A <= M_mu(F) and the division by mu need (else CharacteristicTooSmall)."""
    ring, field = alg.ring, alg.ring.field
    x, ea = alg.summands[i], alg.hom[(i, i)]
    amb = ea.ambient
    if amb.ncoords == 0:
        raise NotIndecomposable("zero summand", label=alg.labels[i])
    n, bar = _top_action(x)
    if field.kind == "prime" and field.characteristic <= n:
        raise CharacteristicTooSmall("prime field must exceed the top dimension mu", p=field.characteristic, mu=n)
    cut = ea.nakayama_cut()
    ws, e_end = ea.nakayama_window()[:2]
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
    blocks = dict(alg.hom)
    for j in range(alg.k):
        blocks[(j, j)] = alg.rad_diag[j]
    return blocks


def _left_cover(alg, j, goal, maps, sources):
    """``nakayama_covers`` of ``goal`` in Hom(X_j, T) over m * goal and the
    images f o sources[(j, c)] under Hom(X_j, f) (``hom_induced_map``),
    (c, f) over ``maps``, f: X_c -> T a LatticeMap, at goal's Nakayama cut.
    The images are spanned from the minimal generators of their sources,
    Hom blocks of the algebra that serve one part per map; (None, False)
    when an image leaves the goal."""
    parts = [hom_induced_map(alg.summands[j], f, sources[(j, c)], goal) for c, f in maps]
    return nakayama_covers(goal, parts, goal.nakayama_cut())


def _right_cover(alg, j, goal, pairs, sources):
    """``nakayama_covers`` of ``goal`` in Hom(X_j, T) over the images
    sources[l] o a under Hom(a, T) (``hom_precompose``), (l, a) over
    ``pairs``, a a vector of Hom(X_j, X_l) and sources[l] in Hom(X_l, T),
    the twin of ``_left_cover``: R-modules spanned from the minimal
    generators of sources[l]; (None, False) when an image leaves the goal."""
    x = alg.summands
    parts = [hom_precompose(a, x[j], x[l], sources[l], goal) for l, a in pairs]
    return nakayama_covers(goal, parts, goal.nakayama_cut())


def _certify_sinks(alg):
    """Per block (j, i), the images a o Hom(X_j, X_s) of the Hom blocks over
    the arrows a: X_s -> X_i (``_left_cover``, one part per arrow) span
    J_(j,i) and lie in it: Hom(M, lam_i) maps (+)_a P_s onto rad P_i,
    lam_i = (a): (+)_a X_s -> X_i the sink map of X_i.  And J_(j,i) has as
    many Nakayama lifts over the images a o J_(j,s) as there are arrows
    X_j -> X_i: the arrows are independent modulo J^2.  Returns the kernels
    K_i = ker lam_i, which the algebra keeps (``sink_syzygy``).

    End(X_j) = F * 1 + rad End(X_j) (``diagonal_radical`` certifies the
    quotient F) and Hom(X_j, X_s) = J_(j,s) for j != s, so each image lies
    in F * a + J^2: the span gives J = span_F A + J^2 with A inside J.  As
    J is the Jacobson radical of the module-finite Gamma, Nakayama on
    J/(A o Gamma) and on J/(Gamma o A) gives every radical map X_j -> X_i
    as a sum of composites a o phi with arrows a into X_i (the sink cover)
    and as a sum of composites psi o a with arrows a out of X_j
    (Hom(M, K) rad = Hom(M, K) A in ``_tops``).  So J^2 = A o J, the sum of
    the images a o J_(j,s), which holds m * J; the lifts over them are a
    basis of (J/J^2)_(j,i), and the arrows X_j -> X_i, which span it with
    the images, are one exactly when there are as many.  Only a block with
    arrows X_j -> X_i needs the End(X_j) sources for the span; elsewhere
    the two sets of images are the same.  A missing or a repeated arrow
    would make a cover non-minimal and a pd wrong; an arrow outside J would
    make Hom(M, K) rad too large."""
    rad, x = radical(alg), alg.summands
    sinks = []
    for i in range(alg.k):
        into = [(s, hom_element_as_map(x[s], x[i], a)) for s, l, a in alg.arrows if l == i]
        for j in range(alg.k):
            own = [s for s, _ in into].count(j)
            lifts, ok = _left_cover(alg, j, rad[(j, i)], into, rad)
            ok = ok and len(lifts) == own
            if ok and own:
                lifts, ok = _left_cover(alg, j, rad[(j, i)], into, alg.hom)
                ok = ok and not lifts
            if not ok:
                raise ClaimViolation("arrows do not generate rad Gamma", source=alg.labels[j], target=alg.labels[i])
        sinks.append(kernel_lattice(_side_by_side(alg, x[i], into))[0])
    return sinks


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


def _side_by_side(alg, target, maps):
    """The map (f_a): (+)_a X_{s_a} -> target whose summand a is f_a, for
    ``maps`` the pairs (s_a, LatticeMap f_a: X_{s_a} -> target): per
    branch, the f_a's matrices side by side."""
    mats = [
        [sum((f.mats[br][k] for _, f in maps), ()) for k in range(target.ambient.ranks[br])]
        for br in range(alg.ring.branches)
    ]
    return LatticeMap(direct_sum([alg.summands[s] for s, _ in maps])[0], target, mats)


def _tops(alg, homs):
    """The tops of Hom(M, K), homs[j] = Hom(X_j, K): list of (type j, lift),
    each lift a map X_j -> K.  Hom(M, K) rad = Hom(M, K) A, so the tops of
    type j are the Nakayama lifts of Hom(X_j, K) over the images
    Hom(X_l, K) o a under Hom(a, K), a over the arrows X_j -> X_l
    (``_right_cover``); each image lies in Hom(X_j, K), or the arrows are
    not maps."""
    out = []
    for j, hom in enumerate(homs):
        lifts, inside = _right_cover(alg, j, hom, [(l, a) for jj, l, a in alg.arrows if jj == j], homs)
        if not inside:
            raise ClaimViolation("Hom(X_l, K) o a leaves Hom(X_j, K)", source=alg.labels[j])
        out += [(j, v) for v in lifts]
    return out


def _isomorphic_member(alg, kern, homs):
    """The index m of a member X_m isomorphic to K, or None.
    ``isomorphism`` takes the member first, as a miss is exact only when
    End of its first argument is local, which ``diagonal_radical``
    certifies for the members.

    A member of other ranks is no match.  On rank one, a member of another
    leading shape is none either (``lattice._leading_shape``), and one of
    the same shape is first tried against t^(hi_K - hi_m), coordinate by
    coordinate, with no Hom solve: a surjection between lattices of equal
    rank is an isomorphism.  Above rank one, each Hom(X_m, K) solved for the
    test is kept in ``homs`` for the cover step."""
    rank_one = max(kern.ambient.ranks) <= 1
    for m, y in enumerate(alg.summands):
        if y.ambient.ranks != kern.ambient.ranks:
            continue
        if rank_one:
            if _leading_shape(y) != _leading_shape(kern):
                continue
            shift = tuple(LaurentPoly.monomial(alg.ring.field, h - g) for h, g in zip(kern.hi, y.hi))
            iso = hom_element_as_map(y, kern, shift)
            if is_surjective_onto(iso):
                return m
        else:
            homs[m] = hom_lattice(y, kern)
        if isomorphism(y, kern, homs.get(m)) is not None:
            return m
    return None


def minimal_cover_syzygy(alg, kern):
    """One step of the minimal projective resolution of Hom(M, K), K a
    nonzero R-lattice: returns (cover types, ker lam_K), Hom(M, lam_K) the
    minimal cover and Omega Hom(M, K) = Hom(M, ker lam_K) (left exactness).

    K isomorphic to a member X_m has the cover P_m and syzygy 0
    (``_isomorphic_member``), the zero lattice.  Otherwise each Hom(X_j, K)
    is solved once, the tops are read off them (``_tops``), each top's map
    lam_c: X_{t_c} -> K is built once, and lam_K is the lam_c side by side.
    The cover is certified per type: the images lam_c o Hom(X_j, X_{t_c})
    (``_left_cover``, one part per top, the algebra's Hom blocks as
    sources) must span Hom(X_j, K) and lie in it."""
    x = alg.summands
    solved = {}
    m = _isomorphic_member(alg, kern, solved)
    if m is not None:
        return (m,), Lattice(alg.ring, Ambient([0] * alg.ring.branches), (), (), ())
    homs = [solved[j] if j in solved else hom_lattice(y, kern) for j, y in enumerate(x)]
    maps = [(c, hom_element_as_map(x[c], kern, v)) for c, v in _tops(alg, homs)]
    for j, hom in enumerate(homs):
        lifts, inside = _left_cover(alg, j, hom, maps, alg.hom)
        if lifts or not inside:
            raise ClaimViolation("minimal cover is not surjective")
    return tuple(c for c, _ in maps), kernel_lattice(_side_by_side(alg, kern, maps))[0]


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


def sink_syzygy(alg, i):
    """K_i = ker lam_i, kept on the algebra, for the sink map lam_i = (a):
    (+)_a X_s -> X_i over the arrows a: X_s -> X_i, in their order, which
    ``_certify_sinks`` certifies as S_i's second minimal cover once
    Hom(M, -) is applied: Omega^2 S_i = Hom(M, K_i) by left exactness."""
    return alg.sinks[i]


def global_dimension(alg, cap=16, n=None, assumptions=None, bound=None):
    """Exact global dimension: max pd over the simple modules S_i.

    Omega^d S_i = Hom(M, K) for an R-lattice K at every d >= 2: K_i of the
    sink map (``sink_syzygy``) at d = 2, then the kernel of each minimal
    cover step (``minimal_cover_syzygy``).  pd S_i = 1 when K_i = 0, and
    otherwise the d at which K is a member or the next K is 0.  S_i is
    capped past ``cap`` steps, at pd = cap: pd 1 never is, and a pd of at
    least 2 is for a cap below 2.  ``bound`` is a proven bound on every pd
    (n + 1 for the chain family); while cap >= bound, a syzygy still
    nonzero after ``bound`` steps contradicts it and raises ClaimViolation
    instead of a capped report."""
    pds = []
    capped = False
    proven = bound is not None and cap >= bound
    cap = bound if proven else cap
    for i in range(alg.k):
        # Omega^(pd + 1) S_i = Hom(M, kern), so pd S_i = pd once kern = 0
        pd, kern = 1, sink_syzygy(alg, i)
        while kern.ambient.ncoords and pd < cap:
            pd, kern = pd + 1, minimal_cover_syzygy(alg, kern)[1]
        over = kern.ambient.ncoords > 0
        if proven and over:
            raise ClaimViolation("pd exceeds the proven bound", simple=alg.labels[i], bound=bound)
        pds.append(cap if over else pd)
        capped = capped or over
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
