"""Independent oracles for the tests: plain numerical-semigroup arithmetic,
and a dense reference for the sparse echelon kernel.

The semigroup functions work on sets of integers (value sets of monomial
rings and ideals), with no reference to the lattice engine, so expected
values for the single-branch monomial fixtures are computed by a genuinely
different route.  ``DenseEchelon`` keeps RREF rows as dense lists of field
coefficients, combines them with Python's operators, reducing mod p itself,
and divides by ``FieldSpec.div``, so it shares no row code with
``linalg.Echelon``; ``kernel_row`` and ``dense_row`` convert between dense
lists and sparse rows.

``reference_solve`` is the former unit-vector route of the window
constraint solver: it applies a map to one unit vector per window column as
``LaurentPoly`` arithmetic (``hom_apply`` for Hom constraints) and reads the
images back through ``ConstraintStream``, where ``lattice`` now reads them
off a shift operator.  ``composite`` is the former composition route of
``endo``: Hom elements as ``LatticeMap``s, composed entry by entry as
``LaurentPoly`` products and flattened back into hom vectors, where
``lattice.hom_precompose`` and ``hom_induced_map`` now give operators.

``RatFun``, ``ratfun_rref`` and ``reference_poly_nullspace`` are the former
Gauss-Jordan over the field F(t), each entry a reduced fraction with a
``poly_gcd`` per operation, and its kernel vectors with the denominators
cleared by their lcm; ``linalg`` now eliminates fraction-free over
F[t, 1/t].

``quotient_dimension`` is dim_F(N/N0) from the window ranks of N0 <= N;
the engine compares spans instead.  ``image_lattice`` materializes an image by R-closure of f of the source's
generators; the engine spans images without building them as lattices.
``closure_maximal_ideal`` is the former route of ``curve_ring.maximal_ideal``,
m = sum (g - g(0)) * R R-closed over R's gens; the engine places m from R's
basis, and those g - g(0) still give every m * L of a Nakayama span.

``projective_gamma``, ``rad_projective_gamma`` and ``gamma_top`` are the
former first cover step of ``endo``'s simples: P_i and rad P_i as
Gamma-lattices, and the top of a Gamma-lattice.  ``endo`` now starts each
simple from its sink map; 1 + pd rad P_i by the Gamma loop is the reference
for its pd.

``reference_dvr_triangularize`` is the former valuation-pivot loop of
``lattice.dvr_triangularize``, which ran one more elimination round after
the last slot got its pivot; the engine now stops there.
"""

import bisect
import functools

from endochain.endo import GammaLattice, _top_lifts, _top_spans, radical
from endochain.errors import AmbientMismatch, CharacteristicTooSmall, NotASubmodule, NotIndecomposable
from endochain.lattice import Lattice, hom_ambient, hom_coord, hom_element_as_map, raw_span
from endochain.linalg import Echelon, nullspace_F
from endochain.series import LaurentPoly, laurent_exact_div, poly_gcd, series_div_mod


def kernel_row(dense):
    """The sparse row {col: coefficient} of a dense list of coefficients."""
    return {j: c for j, c in enumerate(dense) if c}


def dense_row(row, ncols):
    """The dense coefficient list of a sparse row."""
    return [row.get(j, 0) for j in range(ncols)]


class DenseEchelon:
    """A subspace of F^ncols in RREF, rows as dense coefficient lists."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def _sub(self, row, c, r):
        """row - c * r, reduced mod p over GF(p)."""
        p = self.field.characteristic
        out = [a - c * b for a, b in zip(row, r)]
        return [x % p for x in out] if p else out

    def residue(self, row):
        row = list(row)
        for r, p in zip(self.rows, self.pivots):
            c = row[p]
            if c:
                row = self._sub(row, c, r)
        return row

    def add(self, row):
        row = self.residue(row)
        p = next((j for j, c in enumerate(row) if c), None)
        if p is None:
            return False
        lead = row[p]
        row = [self.field.div(c, lead) if c else c for c in row]
        for i, r in enumerate(self.rows):
            c = r[p]
            if c:
                self.rows[i] = self._sub(r, c, row)
        where = bisect.bisect_left(self.pivots, p)
        self.rows.insert(where, row)
        self.pivots.insert(where, p)
        return True

    def contains(self, row):
        return not any(self.residue(row))


def sg_values(gens, bound):
    """Values of the numerical semigroup <gens> below bound."""
    vals = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for a in gens:
            w = v + a
            if w < bound and w not in vals:
                vals.add(w)
                frontier.append(w)
    return vals


def sg_conductor(gens, bound=None):
    """Smallest c with [c, infinity) inside the semigroup."""
    if bound is None:
        bound = 2 * max(gens) ** 2 + 2
    vals = sg_values(gens, bound)
    c = bound
    while c - 1 >= 0 and (c - 1) in vals:
        c -= 1
    return c


def sg_minimal_generators(gens):
    """Minimal generators of <gens>: the generators that are not a sum of
    two nonzero semigroup elements."""
    vals = sg_values(gens, max(gens) + 1)
    return sorted({a for a in gens if not any(0 < v < a and (a - v) in vals for v in vals)})


def sg_gaps(gens):
    bound = sg_conductor(gens) + 1
    vals = sg_values(gens, bound)
    return sorted(set(range(bound)) - vals)


def ideal_values(sgv, ideal_gens, bound):
    """Values of the module sum t^a * ring over the value set sgv."""
    out = set()
    for a in ideal_gens:
        for v in sgv:
            if a + v < bound:
                out.add(a + v)
    return out


def colon_values(avals, bvals, cap, big, lo=-64):
    """{v in [lo, cap) : v + bvals inside avals}.

    ``avals`` must contain every value in [c, big) for its conductor c and
    ``big`` must exceed that conductor; then restricting the test to sums
    below ``big`` is exact (deeper sums are automatically inside)."""
    out = set()
    bb = [b for b in bvals if b < big]
    for v in range(lo, cap):
        if all((v + b) in avals for b in bb if v + b < big):
            out.add(v)
    return out


def end_chain_value_sets(gens, max_steps=16):
    """Iterate S -> End(m_S) on value sets; returns the chain of value sets
    from <gens> to the full set {0,1,2,...} and its length n."""
    bound = 4 * sg_conductor(gens) + 4 * max(gens) + 8
    cur = sg_values(gens, bound)
    chain = [cur]
    full = set(range(bound))
    steps = 0
    while cur != full and steps < max_steps:
        m = {v for v in cur if v > 0}
        mmin = min(m)
        # End(m) value set: {x >= 0 : x + m <= m} within the safe window
        safe = bound - sg_conductor(gens) - max(gens) - 2
        nxt = set()
        for x in range(0, safe):
            if all((x + v) in cur for v in m if x + v < safe):
                nxt.add(x)
        # extend to the bound: everything at and above the visible conductor
        c = safe
        while c - 1 >= 0 and (c - 1) in nxt:
            c -= 1
        nxt |= set(range(c, bound))
        cur = nxt
        chain.append(cur)
        steps += 1
    return chain, steps


def hom_apply(src, tgt, hamb, h, vec):
    """Apply a vector h of ``hom_ambient(src, tgt)`` to a ``src`` vector."""
    field = h[0].field if h else None
    out = []
    for br in range(src.nbranches()):
        for k in range(tgt.ranks[br]):
            acc = LaurentPoly.zero(field)
            for l in range(src.ranks[br]):
                e = h[hamb.coord(br, k * src.ranks[br] + l)]
                x = vec[src.coord(br, l)]
                if e and x:
                    acc = acc + e * x
            out.append(acc)
    return tuple(out)


class ConstraintStream:
    """Linear functionals enforcing transform(x) in target."""

    def __init__(self, target, low_positions):
        self.target = target
        self.tws, self.tech = target.window()
        self.low_index = {p: i for i, p in enumerate(sorted(low_positions))}
        total = len(self.low_index) + self.tws.ncols()
        self.rows = [{} for _ in range(total)]

    def put(self, u, img):
        tgt = self.target
        row = {}  # the window part of img, a row of the target window
        for coord, a in enumerate(img):
            for ee, c in a.coeffs.items():
                if ee < tgt.lo[coord]:
                    self.rows[self.low_index[(coord, ee)]][u] = c
                elif ee < tgt.hi[coord]:
                    row[self.tws.index[(coord, ee)]] = c
        res = self.tech.residue(row)
        base = len(self.low_index)
        for j, x in res.items():
            self.rows[base + j][u] = x


def reference_solve(ws, streams):
    """Window vectors x with transform(x) in target for every stream
    (transform, target lattice), transform a function on ambient vectors;
    the nullspace basis of ``nullspace_F``."""
    field = ws.field
    ncols = ws.ncols()
    units = [ws.ambient.unit_vec(field, coord, e) for coord, e in ws.cols]
    all_rows = []
    for transform, target in streams:
        images = [transform(x) for x in units]
        low_positions = set()
        for img in images:
            for coord, a in enumerate(img):
                for ee in a.coeffs:
                    if ee < target.lo[coord]:
                        low_positions.add((coord, ee))
        cs = ConstraintStream(target, low_positions)
        for u, img in enumerate(images):
            cs.put(u, img)
        all_rows += [r for r in cs.rows if r]
    return nullspace_F(all_rows, ncols, field)


def flatten(f):
    """The hom-ambient vector of a LatticeMap."""
    src, tgt = f.source.ambient, f.target.ambient
    hamb = hom_ambient(src, tgt)
    out = [LaurentPoly.zero(f.source.ring.field)] * hamb.ncoords
    for br in range(src.nbranches()):
        for k in range(tgt.ranks[br]):
            for l in range(src.ranks[br]):
                out[hom_coord(hamb, src, tgt, br, k, l)] = f.mats[br][k][l]
    return tuple(out)


def composite(x, y, z, b, a):
    """The hom vector of b o a, for hom vectors a of Hom(X, Y) and b of
    Hom(Y, Z)."""
    return flatten(hom_element_as_map(y, z, b).compose(hom_element_as_map(x, y, a)))


class RatFun:
    """An element of F(t): num is a LaurentPoly, den a poly with den(0) != 0.

    Keeping the denominator away from t = 0 means every RatFun has a genuine
    t-adic valuation equal to num.valuation().
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        field = num.field
        if den is None:
            den = LaurentPoly.one(field)
        if den.is_zero():
            raise ZeroDivisionError("RatFun with zero denominator")
        # push any t-power of the denominator into the numerator
        v = den.valuation()
        if v != 0:
            den = den.shift(-v)
            num = num.shift(-v)
        if num.is_zero():
            den = LaurentPoly.one(field)
        else:
            g = poly_gcd(num.shift(-num.valuation()), den)
            if g.degree() > 0:
                num = laurent_exact_div(num, g)
                den = laurent_exact_div(den, g)
            lead = den.coeffs.get(den.degree())
            if lead is not None and lead != 1:
                num = num.over(lead)
                den = den.over(lead)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, field):
        return cls(LaurentPoly.zero(field))

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __mul__(self, other):
        return RatFun(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("RatFun division by zero")
        return RatFun(self.den, self.num)

    def __bool__(self):
        return not self.num.is_zero()


def ratfun_rref(rows, ncols, field):
    """RREF over F(t) of a matrix given by LaurentPoly rows.

    Returns (pivot_cols, reduced_rows) with reduced_rows over RatFun,
    pivot entries normalized to 1.
    """
    work = [[RatFun(e) for e in row] for row in rows]
    pivot_cols = []
    reduced = []
    col = 0
    rows_left = [r for r in work if any(r)]
    while col < ncols and rows_left:
        pr = None
        for r in rows_left:
            if r[col]:
                pr = r
                break
        if pr is None:
            col += 1
            continue
        rows_left.remove(pr)
        inv = pr[col].inverse()
        pr = [e * inv for e in pr]
        for rs in (rows_left, reduced):
            for i, r in enumerate(rs):
                c = r[col]
                if c:
                    rs[i] = [a - c * b for a, b in zip(r, pr)]
        rows_left = [r for r in rows_left if any(r)]
        reduced.append(pr)
        pivot_cols.append(col)
        col += 1
    return pivot_cols, reduced


def reference_poly_nullspace(rows, ncols, field):
    """(vector, free_col) per free column of the RREF over F(t): the RREF
    kernel vector with its denominators cleared by their lcm, a monic
    polynomial of t-valuation 0."""
    pivot_cols, reduced = ratfun_rref(rows, ncols, field)
    pivot_set = set(pivot_cols)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    one = LaurentPoly.one(field)
    for f in free:
        entries = [RatFun.zero(field) for _ in range(ncols)]
        entries[f] = RatFun(one)
        for prow, p in zip(reduced, pivot_cols):
            if prow[f]:
                entries[p] = -prow[f]
        # common denominator: product of distinct denominators (val 0 each)
        rho = one
        for e in entries:
            if e and e.den.degree() > 0:
                g = poly_gcd(rho, e.den)
                extra = laurent_exact_div(e.den, g)
                rho = rho * extra
        vec = []
        for e in entries:
            if not e:
                vec.append(LaurentPoly.zero(field))
            else:
                q = laurent_exact_div(rho, e.den)
                vec.append(e.num * q)
        basis.append((vec, f))
    return basis


def closure_lattice(ring, amb, rgens, cones, lo, hi):
    """The lattice R * rgens + cones, R-closed by ``raw_span`` on [lo, hi)
    at the valid tail hi."""
    ws, ech = raw_span(ring, amb, rgens, cones, lo, hi)
    return Lattice._canonicalize(ring, amb, lo, hi, ech, ws)


def closure_maximal_ideal(ring):
    """m as the R-closure of ``ring.maximal_ideal_gens()`` with the cones
    t^mx e_br at the valid tail mx."""
    amb = ring.self_lattice.ambient
    hi = [ring.mx(br) for br in range(ring.branches)]
    cones = [(br, amb.unit_vec(ring.field, br, h)) for br, h in enumerate(hi)]
    return closure_lattice(ring, amb, ring.maximal_ideal_gens(), cones, [0] * ring.branches, hi)


def reference_diagonal_radical(alg, i):
    """rad End(X_i) by the former route of ``endo.diagonal_radical``: the
    trace-form kernel of the regular representation of the finite quotient
    A = End(X_i)/J, J = z * End(X_i) for the deep conductor monomial
    z = (t^zexp_br), with J and rad R-closed by ``closure_lattice``.  Raises
    as the engine does: CharacteristicTooSmall for p <= dim A and
    NotIndecomposable when dim End/rad != 1 (no image-test cross-check)."""
    ring = alg.ring
    field = ring.field
    ea = alg.hom[(i, i)]
    amb = ea.ambient
    if amb.ncoords == 0:
        raise NotIndecomposable("zero summand", label=alg.labels[i])
    lo_min = min(ea.lo)
    m = max(1, 1 - lo_min)
    zexp = [ring.mx(br) * m for br in range(ring.branches)]
    z = tuple(LaurentPoly.monomial(field, e) for e in zexp)
    jgens = [amb.branch_scale(z, g) for g in ea.genset()]
    jtail = [ea.hi[c] + zexp[amb.branch_of(c)] for c in range(amb.ncoords)]
    jlat = closure_lattice(ring, amb, jgens, [], list(ea.lo), jtail)
    lo = [min(2 * lo_min, lo_min)] * amb.ncoords
    cut = list(jlat.hi)
    ws, ech_j = jlat.span(lo, cut)
    _, ech_full = ea.span(lo, cut)
    # A = EA/J: an RREF basis of the J-residues, whose coordinates are the
    # raw entries at its pivots
    ey = Echelon(field, ws.ncols())
    for r in ech_full.rows:
        ey.add(ech_j.residue(r))
    dim_a = ey.rank()
    if field.kind == "prime" and field.characteristic <= dim_a:
        raise CharacteristicTooSmall("prime field must exceed the finite-quotient dimension", p=field.characteristic, dim=dim_a)
    rep_vecs = [ws.vec_of(r) for r in ey.rows]
    qpivots = sorted(ey.by_pivot)
    # lmats[a][b]: the coordinates of rep_a o rep_b, each a window row
    # composed through ``composite`` and reduced by J
    x = alg.summands[i]
    lmats = []
    for u in rep_vecs:
        prods = (ws.row_of(amb.truncate_vec(composite(x, x, x, u, v), cut)) for v in rep_vecs)
        lmats.append([[y.get(p, 0) for p in qpivots] for y in map(ech_j.residue, prods)])
    traces = [sum(lmats[a][b][b] for b in range(dim_a)) for a in range(dim_a)]
    gram = [
        field.clean({b: sum(c * traces[s] for s, c in enumerate(lmats[a][b])) for b in range(dim_a)})
        for a in range(dim_a)
    ]
    rad_reps = [
        functools.reduce(amb.add_vec, [amb.scale_vec(c, rep_vecs[s]) for s, c in sorted(lam.items())])
        for lam in nullspace_F(gram, dim_a, field)
    ]
    rad = closure_lattice(ring, amb, rad_reps + jlat.genset(), [], lo, list(jlat.hi))
    dim = quotient_dimension(ea, rad)
    if dim != 1:
        raise NotIndecomposable("End(X)/rad has F-dimension != 1", label=alg.labels[i], dim=dim)
    return rad


def quotient_dimension(n, n0):
    """dim_F(N/N0) for lattices n0 <= n with equal ambient."""
    if n.ambient != n0.ambient:
        raise AmbientMismatch("quotient needs equal ambients")
    if not n.contains_lattice(n0):
        raise NotASubmodule("N0 is not contained in N")
    lo = tuple(min(a, b) for a, b in zip(n.lo, n0.lo))
    cut = tuple(max(a, b) for a, b in zip(n.hi, n0.hi))
    _, e1 = n.span(lo, cut)
    _, e0 = n0.span(lo, cut)
    return e1.rank() - e0.rank()


def image_lattice(f):
    """im(f) as a canonical lattice (full rank in the target ambient)."""
    return Lattice.from_generators(f.source.ring, f.target.ambient, [f.apply(g) for g in f.source.genset()])


def projective_gamma(alg, i):
    """P_i as a Gamma-lattice: P_i e_j = Hom(X_j, X_i)."""
    return GammaLattice(alg, (i,), [alg.hom[(j, i)] for j in range(alg.k)])


def rad_projective_gamma(alg, i):
    """rad P_i: (rad P_i) e_j = Hom(X_j, X_i) for j != i, rad End(X_i) for j = i."""
    rad = radical(alg)
    return GammaLattice(alg, (i,), [rad[(j, i)] for j in range(alg.k)])


def gamma_top(q):
    """Type decomposition of Q/(Q rad): returns list of (type j, lift)."""
    return _top_lifts(_top_spans(q))


def reference_dvr_triangularize(field, vecs, nslots, cut):
    """(pivots, full) of valuation-pivot elimination over F[[t]] modulo
    t^cut, eliminating below every pivot, the last one included."""
    work = []
    for v in vecs:
        w = [a.truncate(cut) for a in v]
        if any(w):
            work.append(w)
    pivots = []
    used = set()
    while work:
        best = None
        for v in work:
            for slot in range(nslots):
                if slot in used or not v[slot]:
                    continue
                val = v[slot].valuation()
                key = (val, slot)
                if best is None or key < best[0]:
                    best = (key, v, slot)
        if best is None:
            break
        _key, pv, slot = best
        val = pv[slot].valuation()
        work.remove(pv)
        used.add(slot)
        pivots.append((slot, val, pv))
        nxt = []
        for w in work:
            if w[slot] and w[slot].valuation() >= val:
                q = series_div_mod(w[slot], pv[slot], cut)
                w = [(a - q * b).truncate(cut) for a, b in zip(w, pv)]
            if any(w):
                nxt.append(w)
        work = nxt
    return pivots, len(used) == nslots
