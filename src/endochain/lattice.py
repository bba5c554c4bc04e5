"""Modules and lattices: finitely generated torsion-free modules inside K^r.

Every module is stored in one form, ``Module``: an ``Ambient`` giving
per-branch coordinate counts, exact window-supported ``rows`` and F[[t]]-
``cones`` (branch, v), with

    module = span_F(rows) + sum over cones of F[[t_br]] * v,

a per-coordinate lower bound ``lo`` on valuations and, when needed, a
``skel`` of per-branch (vector, depth) data that says how deep a window must
reach for every element beyond it to lie in m * module.  The rows are closed
under R up to the cones, so a module's truncation to any window is the span
of its truncated rows and cone monomials.

A ``Lattice`` is a full module in canonical form: rows are the RREF basis of
its truncation to the window [lo, hi), with ``lo`` the minimal valuations and
``hi`` the minimal tail exponents (t^hi * F[[t]] * e_coord lies in the
lattice), and one cone at the tail of each coordinate.  Because every
lattice contains its full monomial tail, truncation at the tail loses
nothing: membership, Hom, kernels, quotients and exactness all reduce to
finite linear algebra over the coefficient field, and canonical forms make
equality syntactic.

Every window span is built by one closure routine, ``_close``: it adds the
rows of the cones' monomial shifts and of given vectors, and closes them
under a set of multipliers with a worklist of kernel rows.  Every K-linear
map acts on kernel rows as one shift operator (``_operator``, ``_row_map``):
a term c * t^d sends column (coord, e) to (coord', e + d).  ``Module.span``
passes no multipliers (its rows are R-closed already), and a Lattice's
windows are placed, its RREF basis rows plus its unit tail rows
(``Lattice.span``); a root ``curve_ring.build_ring`` closes 1 under the
algebra generators ``gens``, and R is by definition the closure of
F[gens], so ``raw_span`` closes generator sets that are not R-closed under
``R.gens``; truncating between products is exact (see ``_close``).  Each
Lattice builds its Nakayama window once (``Lattice.nakayama_window``): its
span at its Nakayama cut, m times it, and its minimal generators as rows.
The Nakayama span identity ``nakayama_covers``, which certifies covers,
surjectivity and exactness, spans an image f(C) without closure, from C's
generator rows carried by ``_row_map``; so are ``endo``'s composites with
arrows (``hom_precompose``).
Hom, overring and kernel constraints are read off operators too
(``solve_constrained_window``).  A canonical lattice moves between rings
and coordinate layouts by ``placed_sum``, which places its basis rows and
tails with no closure: direct sums, a factor ring's lattice on its
branches, and the projection e_T * N of an R1-stable N.
``Lattice.from_generators`` R-closes generators from outside the engine.

Kernels are computed once, by ``kernel_lattice``: a canonical lattice in
fresh coordinates plus its embedding; ``kernel_window_module`` is its image.
Hom lattices have one coordinate layout, ``hom_ambient``/``hom_coord``;
``endo`` holds every Gamma-module it resolves as Hom(M, K) by its solved
parts Hom(X_j, K) in that layout.
"""

from .series import LaurentPoly, series_div_mod, INF
from .linalg import Echelon, nullspace_F, poly_nullspace, poly_matrix_rank
from .errors import (
    AmbientMismatch,
    ClaimViolation,
    NotAnOverring,
    NotDvrProduct,
    NotFullRank,
)


class Ambient:
    """Per-branch coordinate counts of a K-module prod_i F((t_i))^{r_i}.
    An element of K itself is a vector of the rank-one ``Ambient([1] * b)``."""

    __slots__ = ("ranks", "offsets", "ncoords")

    def __init__(self, ranks):
        self.ranks = tuple(int(r) for r in ranks)
        offs = []
        n = 0
        for r in self.ranks:
            offs.append(n)
            n += r
        self.offsets = tuple(offs)
        self.ncoords = n

    def branch_of(self, coord):
        for br in range(len(self.ranks) - 1, -1, -1):
            if coord >= self.offsets[br]:
                return br
        raise IndexError(coord)

    def coord(self, br, slot):
        return self.offsets[br] + slot

    def coords_of(self, br):
        o = self.offsets[br]
        return range(o, o + self.ranks[br])

    def nbranches(self):
        return len(self.ranks)

    def __eq__(self, other):
        return isinstance(other, Ambient) and self.ranks == other.ranks

    def __hash__(self):
        return hash(self.ranks)

    def __repr__(self):
        return f"Ambient{self.ranks}"

    # -- vectors: plain tuples of LaurentPoly, length ncoords ---------------

    def zero_vec(self, field):
        z = LaurentPoly.zero(field)
        return tuple([z] * self.ncoords)

    def unit_vec(self, field, coord, exp=0, coeff=1):
        parts = [LaurentPoly.zero(field)] * self.ncoords
        parts[coord] = LaurentPoly.monomial(field, exp, coeff)
        return tuple(parts)

    def idem_vec(self, field, branches):
        """The idempotent e_T, T = ``branches``: 1 on the coordinates of
        the branches in T, 0 elsewhere; 1 = e_T for T all branches."""
        one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
        return tuple(one if br in branches else zero for br, r in enumerate(self.ranks) for _ in range(r))

    def add_vec(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def scale_vec(self, c, v):
        return tuple(a.scale(c) for a in v)

    def branch_scale(self, x, v):
        """Multiply by an element x of K (one scalar per branch)."""
        out = list(v)
        for br, s in enumerate(x):
            for coord in self.coords_of(br):
                out[coord] = out[coord] * s
        return tuple(out)

    def mono_scale(self, br, exp, v):
        """Multiply by t_br^exp * e_br (kills all other branches)."""
        own = self.coords_of(br)
        return tuple(a.shift(exp) if c in own else LaurentPoly.zero(a.field) for c, a in enumerate(v))

    def truncate_vec(self, v, hi):
        return tuple(a.truncate(h) for a, h in zip(v, hi))

    def vec_is_zero(self, v):
        return all(a.is_zero() for a in v)

    def branch_min_val(self, v, br):
        vals = [v[c].valuation() for c in self.coords_of(br) if v[c]]
        return min(vals) if vals else INF

    def branch_parts(self, v, br):
        return [v[c] for c in self.coords_of(br)]


class WindowSpace:
    """The F-vector space of window-supported vectors for a (lo, hi) window."""

    __slots__ = ("ambient", "lo", "hi", "cols", "index", "field", "starts", "_ends")

    def __init__(self, field, ambient, lo, hi):
        self.field = field
        self.ambient = ambient
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        cols = []
        starts = []  # per coordinate, its first column; then the column count
        for coord in range(ambient.ncoords):
            starts.append(len(cols))
            for e in range(self.lo[coord], self.hi[coord]):
                cols.append((coord, e))
        self.starts = starts + [len(cols)]
        self.cols = cols
        self.index = {ce: i for i, ce in enumerate(cols)}
        self._ends = None

    def ncols(self):
        return len(self.cols)

    def column_ends(self):
        """Per column, its branch and the end of its coordinate's block;
        built once."""
        if self._ends is None:
            branch = [br for br, r in enumerate(self.ambient.ranks) for _ in range(r)]
            self._ends = [(branch[c], self.starts[c + 1]) for c, _ in self.cols]
        return self._ends

    def row_of(self, vec):
        """The row {column: coefficient} of ``vec``'s window coefficients;
        exponents >= hi are dropped (tail absorption).  Returns None if any
        support lies below lo."""
        index = self.index
        row = {}
        for coord, a in enumerate(vec):
            if not a:
                continue
            lo = self.lo[coord]
            hi = self.hi[coord]
            for e, c in a.coeffs.items():
                if e < lo:
                    return None
                if e < hi:
                    row[index[(coord, e)]] = c
        return row

    def vec_of(self, row):
        """The vector of a row."""
        polys = [{} for _ in range(self.ambient.ncoords)]
        for j in sorted(row):
            coord, e = self.cols[j]
            polys[coord][e] = row[j]
        return tuple(LaurentPoly(self.field, p) for p in polys)

    def echelon(self):
        return Echelon(self.field, len(self.cols))


def raw_span(ring, ambient, rgens, cones, lo, hi):
    """Window span of the module  R*rgens + sum F[[t_br]]*v  over (lo, hi).

    ``cones`` is a list of (branch, vector) with each vector supported on that
    branch only; the module contains the whole F[[t_br]]-cone on it.  Returns
    (WindowSpace, Echelon) where the echelon spans the truncation of the
    module to the window.  ``lo`` must lower-bound all valuations.
    """
    ws = WindowSpace(ring.field, ambient, lo, hi)
    ech = ws.echelon()
    _close(ws, ech, rgens, cones, ring.gens)
    return ws, ech


def _branch_tops(ambient, hi):
    return [max((hi[c] for c in ambient.coords_of(br)), default=0) for br in range(ambient.nbranches())]


def _close(ws, ech, vecs, cones=(), mults=()):
    """Add to ``ech`` the window span pi(A * vecs + sum F[[t_br]] * v) over
    the cones (br, v), A the F-algebra generated by the elements ``mults``
    of K and pi the truncation at ``ws.hi``.  Returns False when some
    vector has support below ``ws.lo`` (it is skipped).

    A coordinate's columns are consecutive, so multiplying a kernel row by
    c * t^d is a column shift j -> j + d with entry x * c, cut at the end of
    the coordinate's block; d < 0 would shift into the previous coordinate,
    so it is a ClaimViolation.  Each cone adds its shifts t^m * v inside the
    window.  Each vector adds its row, and every row that raised the rank
    goes on a worklist and is multiplied by each of ``mults``, until no
    product raises the rank.  With ``mults = R.gens`` the span is
    pi(R * vecs + cones): (1) pi(a * pi(v)) = pi(a * v) whenever val(a) >= 0,
    so truncating between products loses nothing; (2) R is the closure of
    F[R.gens] (``build_ring``), so F[mults] is dense in R modulo t^N E for
    every N; (3) the RREF of a span is canonical, so the result does not
    depend on the order in which rows were added.
    """
    amb = ws.ambient
    neg = [(br, s.valuation()) for a in mults for br, s in enumerate(a) if s.valuation() < 0]
    if neg:
        raise ClaimViolation("multiplier with a negative exponent", branch=neg[0][0], exponent=neg[0][1])
    maps = [_scalar_map(ws, [s.kernel_terms() for s in a]) for a in mults]
    tops = _branch_tops(amb, ws.hi)
    ends = ws.column_ends()
    inside = True
    for br, v in cones:
        mv = amb.branch_min_val(v, br)
        if mv is INF:
            continue
        # t^m * v has support below lo exactly for m < s
        s = max([0] + [ws.lo[c] - v[c].valuation() for c in amb.coords_of(br) if v[c]])
        inside = inside and not (s and tops[br] > mv)
        row = ws.row_of(amb.mono_scale(br, s, v))
        for k in range(tops[br] - mv - s):
            ech.add({j + k: x for j, x in row.items() if j + k < ends[j][1]})
    work = []
    for v in vecs:
        row = ws.row_of(v)
        if row is None:
            inside = False
        elif ech.add(row) and maps:
            work.append(row)
    while work:
        row = work.pop()
        for f in maps:
            p = f(row)
            if p and ech.add(p):
                work.append(p)
    return inside


def _scalar_map(ws, per):
    """The same-window case of ``_row_map`` for the scalar of K with
    (d, entry) terms per[br], d >= 0: the term (d, y) shifts column j by d,
    cut at the end of j's coordinate block (``WindowSpace.column_ends``)."""
    ends = ws.column_ends()
    clean = ws.field.clean

    def apply(row):
        out = {}
        for j, x in row.items():
            br, end = ends[j]
            for d, y in per[br]:
                if j + d >= end:
                    break
                out[j + d] = out.get(j + d, 0) + x * y
        return clean(out)

    return apply


def _row_map(op, ws, tws):
    """The shift operator ``op`` (``_operator``) on kernel rows, from window
    ``ws`` into ``tws``: the row of v goes to the row of pi(op(v)), pi the
    truncation at tws.hi, or to None when op(v) has support below tws.lo.
    A coordinate's columns are consecutive, so the term (d, y) of op[c] at
    c' sends column j = (c, e) to j + off + d = (c', e + d); the terms go by
    increasing d, so the first past the block's end ends the list.  Terms
    below the block are summed apart, so cancellation there is exact."""
    plan = [
        [(tws.starts[c2] - tws.lo[c2] - ws.starts[c] + ws.lo[c], tws.starts[c2], tws.starts[c2 + 1], c2, terms) for c2, terms in per]
        for c, per in enumerate(op)
    ]
    cols = ws.cols
    clean = ws.field.clean

    def apply(row):
        out, low = {}, {}
        for j, x in row.items():
            for off, start, end, c2, terms in plan[cols[j][0]]:
                for d, y in terms:
                    k = j + off + d
                    if k >= end:
                        break
                    if k >= start:
                        out[k] = out.get(k, 0) + x * y
                    else:
                        low[c2, k] = low.get((c2, k), 0) + x * y
        return None if low and clean(low) else clean(out)

    return apply


class Module:
    """A submodule of ``ambient``: module = span_F(rows) + sum F[[t_br]]*v.

    ``rows`` are exact window-supported elements, closed under R up to the
    ``cones`` (branch, v), each v supported on its branch.  ``lo``
    lower-bounds all valuations.  ``skel``, when present, is per-branch
    (vector, depth H) data with the free-coordinate property: every element
    supported at depth >= H + deg(vector) on that branch lies in m * module.
    """

    __slots__ = ("ring", "ambient", "rows", "cones", "lo", "skel")

    def __init__(self, ring, ambient, rows, cones, lo, skel=()):
        self.ring = ring
        self.ambient = ambient
        self.rows = tuple(r for r in rows if not ambient.vec_is_zero(r))
        self.cones = [(br, v) for br, v in cones if not ambient.vec_is_zero(v)]
        self.lo = tuple(lo)
        self.skel = skel

    def is_zero(self):
        return not self.rows and not self.cones

    def genset(self):
        """A finite R-module generating set: rows plus each cone's first
        mx monomial multiples (deeper ones are R-multiples of these)."""
        out = list(self.rows)
        for br, v in self.cones:
            for m in range(self.ring.mx(br)):
                out.append(self.ambient.mono_scale(br, m, v))
        return out

    def span(self, lo, cut):
        """(WindowSpace, Echelon) of the truncation to the window [lo, cut)."""
        ws = WindowSpace(self.ring.field, self.ambient, lo, cut)
        ech = ws.echelon()
        _close(ws, ech, self.rows, self.cones)
        return ws, ech

    def deep_cut(self, base):
        """Per-coordinate cut at least ``base``, past every row and past every
        skeleton depth plus degree, so that deeper elements lie in m * module."""
        cut = list(base)
        for br, v, H in self.skel:
            deg = max((a.degree() for a in v if a), default=0)
            for c in self.ambient.coords_of(br):
                cut[c] = max(cut[c], H + deg + 1)
        for r in self.rows:
            for c, a in enumerate(r):
                if a:
                    cut[c] = max(cut[c], a.degree() + 1)
        return cut


def dvr_triangularize(field, vecs, nslots, cut):
    """Valuation-pivot elimination over F[[t]] modulo t^cut.

    Returns (pivots, full) where pivots is a list of (slot, val, vector)
    with distinct slots, each vector an exact element of the F[[t]]-span of
    the inputs truncated at cut.  ``full`` is True when every slot got a
    pivot.
    """
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
        if len(used) == nslots:
            break  # no slot is left for a later round to pivot on
        nxt = []
        for w in work:
            if w[slot] and w[slot].valuation() >= val:
                q = series_div_mod(w[slot], pv[slot], cut)
                w = [(a - q * b).truncate(cut) for a, b in zip(w, pv)]
            if any(w):
                nxt.append(w)
        work = nxt
    return pivots, len(used) == nslots


def dvr_pivots(field, vecs, nslots):
    """dvr_triangularize at a cut deep enough for exact pivot vectors.

    Returns the pivots, or None when ``vecs`` do not span F((t))^nslots.
    """
    maxdeg = max((a.degree() for v in vecs for a in v if a), default=0)
    minval = min((a.valuation() for v in vecs for a in v if a), default=0)
    cut = max(8, nslots * (maxdeg - minval + 1) + maxdeg + 2)
    while True:
        pivots, full = dvr_triangularize(field, vecs, nslots, cut)
        if not full:
            return None
        sigma = sum(p[1] for p in pivots)
        if sigma + maxdeg + 2 <= cut:
            return pivots
        cut = 2 * (sigma + maxdeg + 2)


class Lattice(Module):
    """A full lattice in its ambient, in canonical (minimal-tail, RREF) form:
    rows are the RREF ``basis`` on [lo, hi), cones the tails t^hi * e_coord."""

    __slots__ = ("hi", "_ech", "_nak")

    def __init__(self, ring, ambient, lo, hi, basis):
        cones = [
            (ambient.branch_of(c), ambient.unit_vec(ring.field, c, h))
            for c, h in enumerate(hi)
        ]
        super().__init__(ring, ambient, basis, cones, lo)
        self.hi = tuple(hi)
        self._ech = None
        self._nak = None

    @property
    def basis(self):
        return self.rows

    # -- construction -------------------------------------------------------

    @classmethod
    def _canonicalize(cls, ring, ambient, lo_bound, valid_hi, ech, ws):
        """Shrink a valid tail to the minimal one and build the RREF basis.

        ``ech`` must span the truncation of the module on the window ``ws``
        = [lo_bound, valid_hi), and lo_bound must lower-bound all valuations
        of the module.
        """
        field = ring.field
        # minimal tail exponents: walk each coordinate down from valid_hi
        hi = list(valid_hi)
        for coord in range(ambient.ncoords):
            e = valid_hi[coord]
            while e - 1 >= lo_bound[coord]:
                if not ech.contains({ws.index[(coord, e - 1)]: 1}):
                    break
                e -= 1
            hi[coord] = e
        # the truncated rows span the module's window on [lo, hi); the
        # minimal valuations over a spanning set are those over its span
        cols = ws.cols
        rows = [[(cols[j], x) for j, x in r.items() if cols[j][1] < hi[cols[j][0]]] for r in ech.rows]
        lo = list(hi)
        for r in rows:
            for (c, e), _ in r:
                lo[c] = min(lo[c], e)
        ws2 = WindowSpace(field, ambient, lo, hi)
        ech2 = ws2.echelon()
        ech2.add_many({ws2.index[ce]: x for ce, x in r} for r in rows)
        basis = tuple(ws2.vec_of(r) for r in ech2.rows)
        lat = cls(ring, ambient, lo, hi, basis)
        lat._ech = (ws2, ech2)
        return lat

    @classmethod
    def from_generators(cls, ring, ambient, gens):
        """Build the lattice generated by ``gens`` over ``ring`` by R-closure;
        for generators from outside the engine (module files, generated test
        lattices).  Lattices the engine holds move between rings and layouts
        by ``placed_sum``, which needs no closure.

        Requires full per-branch rank (the torsion-free contract); raises
        NotFullRank otherwise.  A valid tail is derived from per-branch
        F[[t]]-triangularization of the generators plus the conductor.
        """
        gens = [g for g in gens if not ambient.vec_is_zero(g)]
        lo = [min((g[c].valuation() for g in gens if g[c]), default=0) for c in range(ambient.ncoords)]
        hi = [0] * ambient.ncoords
        for br in range(ambient.nbranches()):
            if ambient.ranks[br] == 0:
                continue
            vecs = [ambient.branch_parts(g, br) for g in gens]
            pivots = dvr_pivots(ring.field, [v for v in vecs if any(v)], ambient.ranks[br])
            if pivots is None:
                raise NotFullRank(
                    "generators do not span the ambient on a branch",
                    branch=br,
                )
            h = ring.conductor[br] + sum(p[1] for p in pivots)
            for coord in ambient.coords_of(br):
                hi[coord] = h
        hi = [max(h, l) for h, l in zip(hi, lo)]
        ws, ech = raw_span(ring, ambient, gens, [], lo, hi)
        return cls._canonicalize(ring, ambient, lo, hi, ech, ws)

    # -- canonical data ------------------------------------------------------

    def window(self):
        if self._ech is None:
            self._ech = self.span(self.lo, self.hi)
        return self._ech

    def span(self, lo, cut):
        """(WindowSpace, Echelon) of the truncation to [lo, cut), lo <= self.lo
        and cut >= hi (else ClaimViolation; ``Module.span`` closes any window):
        the basis rows, RREF and ending below hi, plus the unit tail rows
        t^e e_c, hi_c <= e < cut_c, are RREF already."""
        if any(a > b for a, b in zip(lo, self.lo)) or any(a < b for a, b in zip(cut, self.hi)):
            raise ClaimViolation("a placed lattice window must hold the basis and reach the tail", lo=list(lo), cut=list(cut))
        ws = WindowSpace(self.ring.field, self.ambient, lo, cut)
        ech = ws.echelon()
        rows = [ws.row_of(v) for v in self.basis]
        rows += [{ws.index[(c, e)]: 1} for c, h in enumerate(self.hi) for e in range(h, cut[c])]
        ech.by_pivot = {min(r): r for r in rows}
        return ws, ech

    def key(self):
        return (self.ambient.ranks, self.lo, self.hi, self.basis)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.key() == other.key()

    def __hash__(self):
        return hash((self.ambient.ranks, self.lo, self.hi, len(self.basis)))

    def rank(self):
        return self.ambient.ranks

    def nakayama_cut(self):
        """Per coordinate, hi + mx: every element supported at or beyond it
        lies in m * self, as t^mx * e_br lies in m (``CurveRing.mx``) and
        t^(hi + mx) * e_c = t^mx * e_br * t^hi * e_c."""
        return [h + self.ring.mx(self.ambient.branch_of(c)) for c, h in enumerate(self.hi)]

    def deep_cut(self, base):
        """``base`` raised to the Nakayama cut, past which elements lie in
        m * self (``Module.deep_cut``)."""
        return [max(b, c) for b, c in zip(base, self.nakayama_cut())]

    def nakayama_window(self):
        """(ws, span, m_pivots, gen_rows, gens) at [lo, ``nakayama_cut()``),
        built once per object, so a key-equal lattice over an overring has
        its own: the RREF span, the ``by_pivot`` of m * self (``_span_m``;
        NotLocal over a non-local ring), and the span's rows outside m * self
        plus the rows before them, as rows and as the minimal generators.
        Readers copy ``m_pivots`` before adding; rows are never mutated."""
        if self._nak is None:
            ws, span = self.span(self.lo, self.nakayama_cut())
            e_m, e = ws.echelon(), ws.echelon()
            _span_m(ws, e_m, self)
            e.by_pivot = dict(e_m.by_pivot)
            rows = [r for r in span.rows if e.add(r)]
            self._nak = (ws, span, e_m.by_pivot, rows, tuple(map(ws.vec_of, rows)))
        return self._nak

    # -- membership and spans -------------------------------------------------

    def member(self, vec):
        """Exact membership via window reduction plus tail absorption."""
        for coord, a in enumerate(vec):
            if a and a.valuation() < self.lo[coord]:
                return False
        ws, ech = self.window()
        row = ws.row_of(self.ambient.truncate_vec(vec, self.hi))
        return row is not None and ech.contains(row)


# -- maps ---------------------------------------------------------------------


class LatticeMap:
    """A K-linear map between ambients carrying source into target.

    ``mats[br]`` is an r_target[br] x r_source[br] matrix of LaurentPoly;
    ``onto`` is the verdict of ``is_surjective_onto``, once it has run.
    """

    __slots__ = ("source", "target", "mats", "onto")

    def __init__(self, source, target, mats):
        self.source = source
        self.target = target
        self.mats = tuple(tuple(tuple(row) for row in m) for m in mats)
        self.onto = None

    @classmethod
    def from_entries(cls, source, target, entries):
        """The map whose matrices are zero except ``entries``, a dict
        (br, k, l) -> LaurentPoly: row k (target slot), column l (source
        slot) of the branch-br matrix."""
        src, tgt = source.ambient, target.ambient
        z = LaurentPoly.zero(source.ring.field)
        mats = [
            [[z] * src.ranks[br] for _ in range(tgt.ranks[br])]
            for br in range(src.nbranches())
        ]
        for (br, k, l), e in entries.items():
            mats[br][k][l] = e
        return cls(source, target, mats)

    @classmethod
    def identity(cls, lat):
        one = LaurentPoly.one(lat.ring.field)
        amb = lat.ambient
        diagonal = {(br, s, s): one for br in range(amb.nbranches()) for s in range(amb.ranks[br])}
        return cls.from_entries(lat, lat, diagonal)

    def apply(self, vec):
        src, tgt = self.source.ambient, self.target.ambient
        field = self.source.ring.field
        out = [LaurentPoly.zero(field)] * tgt.ncoords
        for br in range(src.nbranches()):
            m = self.mats[br]
            so = src.offsets[br]
            to = tgt.offsets[br]
            for k in range(tgt.ranks[br]):
                acc = LaurentPoly.zero(field)
                row = m[k]
                for l in range(src.ranks[br]):
                    e = row[l]
                    if e and vec[so + l]:
                        acc = acc + e * vec[so + l]
                out[to + k] = acc
        return tuple(out)

    def compose(self, other):
        """self o other (other is applied first)."""
        field = self.source.ring.field
        mats = []
        for br in range(other.source.ambient.nbranches()):
            a = self.mats[br]
            b = other.mats[br]
            rows = len(a)
            mid = len(b)
            cols = other.source.ambient.ranks[br]
            m = [[LaurentPoly.zero(field) for _ in range(cols)] for _ in range(rows)]
            for i in range(rows):
                for j in range(cols):
                    acc = LaurentPoly.zero(field)
                    for l in range(mid):
                        if a[i][l] and b[l][j]:
                            acc = acc + a[i][l] * b[l][j]
                    m[i][j] = acc
            mats.append(m)
        return LatticeMap(other.source, self.target, mats)

    def operator(self):
        """The shift operator of the map (``_operator``)."""
        entries = {(br, k, l): e for br, m in enumerate(self.mats) for k, row in enumerate(m) for l, e in enumerate(row)}
        return _operator(self.source.ambient, self.target.ambient, entries)

    def is_zero(self):
        return all(not e for m in self.mats for row in m for e in row)

    def is_injective(self):
        ranks = self.source.ambient.ranks
        return all(poly_matrix_rank(m, ranks[br]) == ranks[br] for br, m in enumerate(self.mats))

    def render(self):
        return [
            [[e.render() for e in row] for row in m] for m in self.mats
        ]


# -- module operations ----------------------------------------------------------


def direct_sum(lats):
    """Block direct sum; returns (lattice, injections)."""
    nb = lats[0].ambient.nbranches()
    amb = Ambient([sum(l.ambient.ranks[br] for l in lats) for br in range(nb)])
    # coordinate placement: per branch, summand blocks in order
    placements = []  # per summand: list mapping its coord -> big coord
    used = [0] * nb
    for l in lats:
        cmap = [0] * l.ambient.ncoords
        for br in range(nb):
            for s in range(l.ambient.ranks[br]):
                cmap[l.ambient.coord(br, s)] = amb.coord(br, used[br] + s)
            used[br] += l.ambient.ranks[br]
        placements.append(cmap)
    out = placed_sum(lats[0].ring, amb, lats, placements)
    one = LaurentPoly.one(out.ring.field)
    injections = []
    for l, cmap in zip(lats, placements):
        entries = {}
        for c_small, c_big in enumerate(cmap):
            br = l.ambient.branch_of(c_small)
            entries[(br, c_big - amb.offsets[br], c_small - l.ambient.offsets[br])] = one
        injections.append(LatticeMap.from_entries(l, out, entries))
    return out, injections


def placed_sum(ring, amb, lats, placements):
    """The lattice (+) lats over ``ring`` in ``amb``: coordinate c of lats[a]
    goes to coordinate placements[a][c], or is projected away when that is
    None; every coordinate of ``amb`` is placed once.

    Placement is the closure-free constructor: each source is canonical and
    stable under ``ring`` (a subring of its own ring, on the placed
    branches), so its placed basis rows and tails are those of the sum, with
    the sources' minimal lo and hi.  A projection is e_T * N, which is a
    summand exactly when every basis row is kept whole or dropped whole (the
    RREF basis of a direct sum on disjoint columns is the union of the
    summands' bases); a row kept in part raises ClaimViolation."""
    if sorted(c for cmap in placements for c in cmap if c is not None) != list(range(amb.ncoords)):
        raise ClaimViolation("placements do not cover each coordinate once", ranks=amb.ranks)
    zero = LaurentPoly.zero(ring.field)
    lo = [0] * amb.ncoords
    hi = [0] * amb.ncoords
    rows = []
    for l, cmap in zip(lats, placements):
        for c_small, c_big in enumerate(cmap):
            if c_big is not None:
                lo[c_big] = l.lo[c_small]
                hi[c_big] = l.hi[c_small]
        for v in l.basis:
            kept = [c_big is not None for a, c_big in zip(v, cmap) if a]
            if not any(kept):
                continue
            if not all(kept):
                raise ClaimViolation("a placement splits a basis row", ranks=l.ambient.ranks)
            big = [zero] * amb.ncoords
            for a, c_big in zip(v, cmap):
                if c_big is not None:
                    big[c_big] = a
            rows.append(tuple(big))
    ws = WindowSpace(ring.field, amb, lo, hi)
    ech = ws.echelon()
    _close(ws, ech, rows)
    out = Lattice(ring, amb, lo, hi, tuple(ws.vec_of(r) for r in ech.rows))
    out._ech = (ws, ech)
    return out


def minimal_generators(lat):
    """Nakayama-minimal generators over a local ring, read off ``lat``'s own
    ``nakayama_window``: equal ``Lattice.key()``s over R and over an
    overring have different generators."""
    return lat.nakayama_window()[4]


def overring_scalars(overring, lat):
    """Scalars of S sufficient to test S-stability of ``lat``: the window
    basis plus tail monomials up to the absorption depth (deeper scalars
    push everything into the tail of ``lat`` automatically)."""
    out = overring.scalar_basis()
    samb, amb = overring.self_lattice.ambient, lat.ambient
    for br in range(overring.branches):
        if amb.ranks[br] == 0:
            continue
        top = max(lat.hi[c] for c in amb.coords_of(br))
        mv = min(lat.lo[c] for c in amb.coords_of(br))
        for m in range(overring.conductor[br], max(overring.conductor[br], top - mv)):
            out.append(samb.unit_vec(overring.field, br, m))
    return out


def check_overring(overring, ring):
    """R <= S: S is a closed subalgebra containing 1, so it contains the
    closure R of F[R.gens] once it contains each of R.gens."""
    if overring.branches != ring.branches:
        raise NotAnOverring("different branch sets")
    for g in ring.gens:
        if not overring.self_lattice.member(g):
            raise NotAnOverring("base ring does not embed in the overring")


def scalar_extension_test(overring, lat):
    """True iff lat is a module over the overring (R <= S <= E)."""
    check_overring(overring, lat.ring)
    gens = lat.genset()
    for s in overring_scalars(overring, lat):
        for g in gens:
            if not lat.member(lat.ambient.branch_scale(s, g)):
                return False
    return True


def _operator(src, tgt, entries):
    """The shift operator of the K-linear map from ambient ``src`` to ``tgt``
    whose matrices are zero except ``entries``, a dict (br, k, l) ->
    LaurentPoly as in ``LatticeMap.from_entries``: per coordinate of
    ``src``, a list of (coordinate of ``tgt``, (d, entry) terms).  It sends
    window column (c, e) to the columns (c', e + d), each with one entry."""
    op = [[] for _ in range(src.ncoords)]
    for (br, k, l), a in entries.items():
        if a:
            op[src.coord(br, l)].append((tgt.coord(br, k), a.kernel_terms()))
    return op


def solve_constrained_window(ws, streams):
    """Window vectors x with op(x) in target for every stream.

    ``streams`` is a list of (op, target_lattice), op a shift operator
    (``_operator``) from the ambient of ``ws`` into the target's.  The image
    of window column (c, e) is read off op[c]: a term below the target's lo
    is a constraint of its own, the terms inside its window a row whose
    residue must vanish, and terms past hi lie in its tail.  Returns the
    RREF-canonical basis of the solutions (exact elements, supported inside
    the window), so the order of the constraints does not matter.
    """
    rows = []
    for op, target in streams:
        tws, tech = target.window()
        index = tws.index
        lo, hi = target.lo, target.hi
        low, res = {}, {}
        for u, (c, e) in enumerate(ws.cols):
            row = {}
            for c2, terms in op[c]:
                for d, x in terms:
                    ee = e + d
                    if ee < lo[c2]:
                        low.setdefault((c2, ee), {})[u] = x
                    elif ee < hi[c2]:
                        row[index[(c2, ee)]] = x
                    else:
                        break
            if row:
                for j, x in tech.residue(row).items():
                    res.setdefault(j, {})[u] = x
        rows += list(low.values()) + list(res.values())
    return nullspace_F(rows, ws.ncols(), ws.field)


def largest_submodule_over(overring, lat):
    """{x in N : S x <= N}, the largest S-stable sublattice of N.

    The tail of N is already S-stable, so the result shares N's window.
    """
    check_overring(overring, lat.ring)
    ring = lat.ring
    amb = lat.ambient
    ws = WindowSpace(ring.field, amb, lat.lo, lat.hi)
    scalars = [ring.self_lattice.ambient.idem_vec(ring.field, range(ring.branches))] + overring_scalars(overring, lat)
    diagonal = [(br, k) for br in range(amb.nbranches()) for k in range(amb.ranks[br])]
    streams = [(_operator(amb, amb, {(br, k, k): x[br] for br, k in diagonal}), lat) for x in scalars]
    sols = solve_constrained_window(ws, streams)
    ech = ws.echelon()
    ech.add_many(sols)
    return Lattice._canonicalize(ring, amb, list(lat.lo), list(lat.hi), ech, ws)


# -- Hom lattices -----------------------------------------------------------------


def hom_ambient(src, tgt):
    """Ambient of per-branch matrices Hom_K(src, tgt); coordinate layout is
    (target slot k, source slot l) in lexicographic order per branch."""
    return Ambient(
        [tgt.ranks[br] * src.ranks[br] for br in range(src.nbranches())]
    )


def hom_coord(hamb, src, tgt, br, k, l):
    return hamb.coord(br, k * src.ranks[br] + l)


def hom_lattice(c, d):
    """Hom_R(C, D) as a lattice in the matrix ambient.

    An f with f(generators of C) in D automatically carries all of C into D
    (f is K-linear, hence R-linear), so one constraint stream per R-generator
    of C suffices: the Nakayama-minimal ones over a local ring, the genset
    otherwise.  The stream of a generator g is the shift operator of the
    evaluation h -> h(g): coordinate (br, k, l) goes to target coordinate
    (br, k) with the terms of g's coordinate (br, l).
    """
    if c.ring is not d.ring and c.ring.key() != d.ring.key():
        raise AmbientMismatch("hom needs lattices over the same ring")
    ring = c.ring
    field = ring.field
    src, tgt = c.ambient, d.ambient
    hamb = hom_ambient(src, tgt)
    # per hom coordinate (br, k, l), in order: target coordinate (br, k)
    # and source coordinate (br, l)
    pairs = [
        (tgt.coord(br, k), src.coord(br, l))
        for br in range(src.nbranches())
        for k in range(tgt.ranks[br])
        for l in range(src.ranks[br])
    ]
    lo = [d.lo[kc] - c.hi[lc] for kc, lc in pairs]
    hi = [max(d.hi[kc] - c.lo[lc], v) for (kc, lc), v in zip(pairs, lo)]
    ws = WindowSpace(field, hamb, lo, hi)
    gens = minimal_generators(c) if ring.is_local else c.genset()
    streams = []
    for g in gens:
        terms = [a.kernel_terms() for a in g]
        streams.append(([[(kc, terms[lc])] for kc, lc in pairs], d))
    sols = solve_constrained_window(ws, streams)
    ech = ws.echelon()
    ech.add_many(sols)
    return Lattice._canonicalize(ring, hamb, lo, hi, ech, ws)


def hom_element_as_map(c, d, h):
    """Turn a hom-ambient vector into a LatticeMap C -> D."""
    src, tgt = c.ambient, d.ambient
    hamb = hom_ambient(src, tgt)
    mats = []
    for br in range(src.nbranches()):
        m = []
        for k in range(tgt.ranks[br]):
            m.append([h[hom_coord(hamb, src, tgt, br, k, l)] for l in range(src.ranks[br])])
        mats.append(m)
    return LatticeMap(c, d, mats)


def hom_induced_map(x, f, hom_src, hom_tgt):
    """Hom(X, f): Hom(X, C) -> Hom(X, D) for f: C -> D (left composition);
    ``hom_src``, ``hom_tgt`` are the lattices Hom(X, C), Hom(X, D)."""
    xa, ca, da = x.ambient, f.source.ambient, f.target.ambient
    entries = {}
    for br in range(xa.nbranches()):
        # (f o phi)_{kd,l} = sum_kc f_{kd,kc} phi_{kc,l}
        for kd in range(da.ranks[br]):
            for l in range(xa.ranks[br]):
                for kc in range(ca.ranks[br]):
                    entries[(br, kd * xa.ranks[br] + l, kc * xa.ranks[br] + l)] = f.mats[br][kd][kc]
    return LatticeMap.from_entries(hom_src, hom_tgt, entries)


def hom_precompose(a, x, y, hom_src, hom_tgt):
    """Hom(a, T): Hom(Y, T) -> Hom(X, T), phi -> phi o a, for a vector ``a``
    of ``hom_ambient(X, Y)`` (right composition, the twin of
    ``hom_induced_map``); ``hom_src``, ``hom_tgt`` are modules in
    Hom(Y, T), Hom(X, T)."""
    xa, ya = x.ambient, y.ambient
    hamb = hom_ambient(xa, ya)
    # (phi o a)_{k,l} = sum_m phi_{k,m} a_{m,l}, k a slot of T
    entries = {
        (br, k * rx + l, k * ry + m): a[hom_coord(hamb, xa, ya, br, m, l)]
        for br, (rx, ry) in enumerate(zip(xa.ranks, ya.ranks))
        for k in range(hom_tgt.ambient.ranks[br] // rx if rx else 0)
        for l in range(rx)
        for m in range(ry)
    }
    return LatticeMap.from_entries(hom_src, hom_tgt, entries)


# -- kernels, images and exactness ---------------------------------------------------


def kernel_lattice(f):
    """Kernel of f as a full lattice in fresh coordinates plus its embedding.

    Returns (L, embed) where embed: L -> source realizes L = ker f.  The
    columns of embed are a per-branch K-basis b_j of ker f with the
    free-coordinate property: any kernel element x equals sum_j phi_j b_j
    with val(phi_j) >= val(x at the free slot of b_j).
    """
    ring = f.source.ring
    field = ring.field
    src = f.source.ambient
    nulls = [poly_nullspace(m, src.ranks[br], field) for br, m in enumerate(f.mats)]
    new_amb = Ambient([len(null) for null in nulls])
    entries = {}
    lo = [0] * new_amb.ncoords
    hi = [0] * new_amb.ncoords
    for br, null in enumerate(nulls):
        for j, (vec, free) in enumerate(null):
            nc = new_amb.coord(br, j)
            lo[nc] = f.source.lo[src.coord(br, free)]
            hi[nc] = lo[nc]
            for l, a in enumerate(vec):
                entries[(br, l, j)] = a
                if a:
                    hi[nc] = max(hi[nc], f.source.hi[src.coord(br, l)] - a.valuation())
    ws = WindowSpace(field, new_amb, lo, hi)
    ech = ws.echelon()
    ech.add_many(solve_constrained_window(ws, [(_operator(new_amb, src, entries), f.source)]))
    lat = Lattice._canonicalize(ring, new_amb, lo, hi, ech, ws)
    return lat, LatticeMap.from_entries(lat, f.source, entries)


def kernel_window_module(f):
    """ker(f) as a Module in the source ambient (with skeleton data) and the
    window cut below which its rows are complete.

    This is the image of ``kernel_lattice(f)`` under its embedding, which is
    F[[t]]-linear per branch: rows, tail cones and, per kernel coordinate, a
    skeleton vector b_j at depth tail + mx, so that elements deeper than the
    cut provably lie in m * ker for Nakayama span tests.
    """
    lat, embed = kernel_lattice(f)
    src = f.source.ambient
    kamb = lat.ambient
    skel = []
    for j, h in enumerate(lat.hi):
        br = kamb.branch_of(j)
        skel.append((br, embed.apply(kamb.unit_vec(lat.ring.field, j)), h + f.source.ring.mx(br)))
    rows = [embed.apply(r) for r in lat.rows]
    cones = [(br, embed.apply(v)) for br, v in lat.cones]
    ker = Module(f.source.ring, src, rows, cones, f.source.lo, skel)
    tops = _branch_tops(src, f.source.hi)
    return ker, ker.deep_cut([tops[src.branch_of(c)] for c in range(src.ncoords)])


def _span_m(ws, ech, goal):
    """Add to ``ech`` the window span of m * goal, ``goal`` a Module over a
    local ring, with no R-closure.

    m = sum d * R over d = g - g(0), g in R's gens, so m * goal is spanned by
    goal's rows times each d plus, per cone, m * F[[t_br]] v = t^v_br
    F[[t_br]] v, v_br the least valuation of the d on branch br; and
    pi(d * pi(v)) = pi(d * v) for val(d) >= 0 (``_close``, point (1)).  On a
    Lattice that is the basis rows shifted and the runs t^(hi + v_br) e_c."""
    ring = goal.ring
    terms = ring.maximal_ideal_terms()
    rows = [ws.row_of(v) for v in goal.rows]
    for per in terms:
        shift = _scalar_map(ws, per)
        for p in filter(None, map(shift, rows)):
            ech.add(p)
    vmin = [min(per[br][0][0] for per in terms if per[br]) for br in range(ring.branches)]
    _close(ws, ech, (), [(br, goal.ambient.mono_scale(br, vmin[br], v)) for br, v in goal.cones])


def nakayama_covers(goal, parts, cut):
    """Nakayama comparison of the Module ``goal`` with m * goal (``_span_m``)
    plus the sum of ``parts``, none of which needs R-closure, on the goal's
    window [goal.lo, ``cut``).

    A part is a Module (rows R-closed up to its cones) or a LatticeMap f
    whose source C is a Lattice over the goal's ring R (else TypeError, or
    ClaimViolation for another ring).  f(C) is spanned by C's generator
    rows (``Lattice.nakayama_window``) mapped as rows (``_row_map``): they
    span C modulo m * C, and once f(C) lies in the goal, f(m C) = m f(C)
    lies in m * goal.  A Lattice goal at its Nakayama cut lends its own
    window; any other cut, or a Module goal, builds one here.  ``cut``
    must reach deep enough that goal elements beyond it lie in m * goal.
    The parts lie inside when none has support below goal.lo and goal,
    parts and m * goal have the goal's rank.  Returns (lifts, True) when
    they do, the lifts being the goal's RREF window rows outside the span
    of the parts and m * goal, as vectors in echelon order (the parts span
    the goal exactly when there are none), and (None, False) otherwise."""
    maps = [p for p in parts if isinstance(p, LatticeMap)]
    mods = [p for p in parts if not isinstance(p, LatticeMap)]
    if not all(isinstance(f.source, Lattice) for f in maps) or not all(isinstance(p, Module) for p in mods):
        raise TypeError("a part is a Module or a LatticeMap whose source is a Lattice")
    if any(f.source.ring is not goal.ring for f in maps):
        raise ClaimViolation("a map part's source lies over another ring than the goal")
    if isinstance(goal, Lattice) and list(cut) == goal.nakayama_cut():
        ws, e_goal, m_pivots = goal.nakayama_window()[:3]
    else:
        ws, e_goal = goal.span(goal.lo, cut)
        e_m = ws.echelon()
        _span_m(ws, e_m, goal)
        m_pivots = e_m.by_pivot
    e_parts = ws.echelon()
    e_parts.by_pivot = dict(m_pivots)
    inside = all(_close(ws, e_parts, p.rows, p.cones) for p in mods)
    for f in maps:
        sws, _, _, rows, _ = f.source.nakayama_window()
        images = list(map(_row_map(f.operator(), sws, ws), rows))
        inside = inside and None not in images
        e_parts.add_many(filter(None, images))
    if inside:
        lifts = [r for r in e_goal.rows if e_parts.add(r)]
        if e_parts.rank() == e_goal.rank():
            return [ws.vec_of(r) for r in lifts], True
    return None, False


def is_surjective_onto(f):
    """Nakayama test: im(f) + m*target = target (``nakayama_covers``), run
    once per map (``onto``)."""
    if f.onto is None:
        lifts, inside = nakayama_covers(f.target, [f], f.target.nakayama_cut())
        f.onto = inside and not lifts
    return f.onto


def _leading_shape(lat):
    """Per basis row, its first nonzero coordinate c and its valuation there
    less ``hi[c]``: the leading column of the row, relative to the tail."""
    out = []
    for v in lat.basis:
        c = next(c for c, a in enumerate(v) if a)
        out.append((c, v[c].valuation() - lat.hi[c]))
    return sorted(out)


def isomorphism(a, b, hom=None):
    """An isomorphism a -> b as a LatticeMap, or None (R local, any rank,
    a and b over R itself, as ``is_surjective_onto`` maps a's generators
    over R); ``hom`` is Hom(a, b) when the caller has solved it already.

    A hit is exact: a surjection between full lattices of equal per-branch
    rank is injective.  A miss is exact when End(a) is local with residue
    field F (``endo.diagonal_radical`` certifies it per summand; a family
    member S has End(S) = S): for an isomorphism phi, the non-isomorphisms
    phi o rad End(a) are a proper R-submodule of Hom(a, b) holding
    m * Hom(a, b), so some minimal generator of Hom(a, b) lies outside it.

    When every ambient rank is at most 1, a miss is first looked for in the
    leading shape (``_leading_shape``), with no Hom solve.  An isomorphism
    is then multiplication by x = (t^k_br u_br), u_br units of F[[t_br]].
    Window columns run coordinate by coordinate, so the leading column
    (c, e) of an element v (its first nonzero coordinate c, at valuation e)
    becomes (c, e + k) in x * v, and the minimal tail hi[c] becomes
    hi[c] + k.  The leading columns of a lattice are its basis pivots plus
    its tail columns: v less its part at and beyond the tail lies in the
    window span, with the same leading column unless that lies in the tail.
    So the leading exponents of the basis rows less hi, per coordinate, are
    the same for isomorphic a and b.
    """
    if a.ambient.ranks != b.ambient.ranks or a.ambient.ncoords == 0:
        return None
    if max(a.ambient.ranks) <= 1 and _leading_shape(a) != _leading_shape(b):
        return None
    for g in minimal_generators(hom if hom is not None else hom_lattice(a, b)):
        f = hom_element_as_map(a, b, g)
        if is_surjective_onto(f):
            return f
    return None


def is_exact_at(incoming, outgoing):
    """Exactness of  A --incoming--> B --outgoing--> C  at B.

    Certified by: (i) outgoing o incoming = 0, and (ii) the Nakayama span
    identity im(incoming) + m*ker(outgoing) = ker(outgoing) at a window deep
    enough that all deeper kernel elements provably lie in m*ker.
    """
    if not outgoing.compose(incoming).is_zero():
        return False
    ker, cut = kernel_window_module(outgoing)
    lifts, inside = nakayama_covers(ker, [incoming], cut)
    return not lifts and inside


# -- free decomposition over DVR products ------------------------------------------


def free_decomposition_over_dvr_product(lat):
    """Per-branch free ranks and an explicit F[[t]]-basis of a lattice over a
    product of DVRs (valuation-pivoted reduction)."""
    ring = lat.ring
    if not ring.is_dvr_product():
        raise NotDvrProduct("ring is not a product of DVRs")
    amb = lat.ambient
    ranks = []
    bases = []
    for br in range(amb.nbranches()):
        if amb.ranks[br] == 0:
            ranks.append(0)
            bases.append([])
            continue
        vecs = [amb.branch_parts(g, br) for g in lat.genset()]
        pivots = dvr_pivots(ring.field, [v for v in vecs if any(v)], amb.ranks[br])
        if pivots is None:
            raise NotFullRank("lattice not full on a branch", branch=br)
        ranks.append(len(pivots))
        bases.append([p[2] for p in pivots])
    return ranks, bases

