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

Sets of R-module generators that are not closed under R (images, m * N)
are spanned by ``raw_span``.  Surjectivity and exactness are certified by
one Nakayama span identity, ``nakayama_covers``.
"""

import itertools

from .series import LaurentPoly, BranchVector, series_div_mod, INF
from .linalg import Echelon, nullspace_F, poly_nullspace, poly_matrix_rank
from .errors import (
    AmbientMismatch,
    NotASubmodule,
    NotAnOverring,
    NotDvrProduct,
    NotFullRank,
    NotLocal,
)


class Ambient:
    """Per-branch coordinate counts of a K-module prod_i F((t_i))^{r_i}."""

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

    def add_vec(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def sub_vec(self, u, v):
        return tuple(a - b for a, b in zip(u, v))

    def scale_vec(self, c, v):
        return tuple(a.scale(c) for a in v)

    def branch_scale(self, bv, v):
        """Multiply by an element of K (one scalar per branch)."""
        out = list(v)
        for br, s in enumerate(bv.parts):
            for coord in self.coords_of(br):
                out[coord] = out[coord] * s
        return tuple(out)

    def mono_scale(self, br, exp, v):
        """Multiply by t_br^exp * e_br (kills all other branches)."""
        field = None
        out = []
        for coord, a in enumerate(v):
            if self.branch_of(coord) == br:
                out.append(a.shift(exp))
            else:
                if field is None:
                    field = a.field
                out.append(LaurentPoly.zero(a.field))
        return tuple(out)

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

    __slots__ = ("ambient", "lo", "hi", "cols", "index", "field")

    def __init__(self, field, ambient, lo, hi):
        self.field = field
        self.ambient = ambient
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        cols = []
        for coord in range(ambient.ncoords):
            for e in range(self.lo[coord], self.hi[coord]):
                cols.append((coord, e))
        self.cols = cols
        self.index = {ce: i for i, ce in enumerate(cols)}

    def ncols(self):
        return len(self.cols)

    def row_of(self, vec):
        """Window coefficients of ``vec``; exponents >= hi are dropped
        (tail absorption).  Returns None if any support lies below lo."""
        zero = self.field.zero()
        row = [zero] * len(self.cols)
        for coord, a in enumerate(vec):
            if not a:
                continue
            lo = self.lo[coord]
            hi = self.hi[coord]
            for e, c in a.coeffs.items():
                if e < lo:
                    return None
                if e < hi:
                    row[self.index[(coord, e)]] = c
        return row

    def vec_of(self, row):
        polys = {}
        for (coord, e), c in zip(self.cols, row):
            if c:
                polys.setdefault(coord, {})[e] = c
        out = []
        for coord in range(self.ambient.ncoords):
            out.append(LaurentPoly(self.field, polys.get(coord, {})))
        return tuple(out)

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
    _fill(ws, ech, _r_multiples(ring, ambient, rgens, _branch_tops(ambient, hi)), cones)
    return ws, ech


def _branch_tops(ambient, hi):
    return [max((hi[c] for c in ambient.coords_of(br)), default=0) for br in range(ambient.nbranches())]


def _r_multiples(ring, ambient, rgens, tops):
    """Each generator times R's scalar basis and tail monomials t^m e_br,
    m >= c_br, up to the per-branch window tops."""
    scalars = ring.scalar_basis()
    for g in rgens:
        if ambient.vec_is_zero(g):
            continue
        for x in scalars:
            yield ambient.branch_scale(x, g)
        for br in range(ambient.nbranches()):
            mv = ambient.branch_min_val(g, br)
            if mv is INF:
                continue
            for m in range(ring.conductor[br], tops[br] - mv):
                yield ambient.mono_scale(br, m, g)


def _fill(ws, ech, vecs, cones):
    """Add to ``ech`` the window rows of ``vecs`` and of every cone's monomial
    multiples t^m * v that reach into the window (rows below lo are skipped)."""
    amb = ws.ambient
    tops = _branch_tops(amb, ws.hi)
    cone_vecs = []
    for br, v in cones:
        mv = amb.branch_min_val(v, br)
        if mv is not INF:
            cone_vecs += [amb.mono_scale(br, m, v) for m in range(tops[br] - mv)]
    for v in itertools.chain(vecs, cone_vecs):
        row = ws.row_of(v)
        if row is not None:
            ech.add(row)


def valuation_floor(vecs, lo):
    """Per coordinate, the minimum of ``lo`` and the valuations of ``vecs``."""
    lo = list(lo)
    for v in vecs:
        for c, a in enumerate(v):
            if a and a.valuation() < lo[c]:
                lo[c] = a.valuation()
    return lo


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

    def mx(self, br):
        return max(self.ring.conductor[br], 1)

    def is_zero(self):
        return not self.rows and not self.cones

    def genset(self):
        """A finite R-module generating set: rows plus each cone's first
        mx monomial multiples (deeper ones are R-multiples of these)."""
        out = list(self.rows)
        for br, v in self.cones:
            for m in range(self.mx(br)):
                out.append(self.ambient.mono_scale(br, m, v))
        return out

    def span(self, lo, cut):
        """(WindowSpace, Echelon) of the truncation to the window [lo, cut)."""
        ws = WindowSpace(self.ring.field, self.ambient, lo, cut)
        ech = ws.echelon()
        _fill(ws, ech, self.rows, self.cones)
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

    __slots__ = ("hi", "_ech")

    def __init__(self, ring, ambient, lo, hi, basis):
        cones = [
            (ambient.branch_of(c), ambient.unit_vec(ring.field, c, h))
            for c, h in enumerate(hi)
        ]
        super().__init__(ring, ambient, basis, cones, lo)
        self.hi = tuple(hi)
        self._ech = None

    @property
    def basis(self):
        return self.rows

    # -- construction -------------------------------------------------------

    @classmethod
    def _canonicalize(cls, ring, ambient, lo_bound, valid_hi, ech, ws):
        """Shrink a valid tail to the minimal one and build the RREF basis.

        ``ech``/``ws`` must span the truncation of the module at valid_hi and
        lo_bound must lower-bound all valuations of the module.
        """
        field = ring.field
        # minimal tail exponents: walk each coordinate down from valid_hi
        hi = list(valid_hi)
        for coord in range(ambient.ncoords):
            e = valid_hi[coord]
            while e - 1 >= lo_bound[coord]:
                row = ws.row_of(ambient.unit_vec(field, coord, e - 1))
                if row is None or not ech.contains(row):
                    break
                e -= 1
            hi[coord] = e
        # re-cut the window and recompute lo
        ws2 = WindowSpace(field, ambient, lo_bound, hi)
        ech2 = ws2.echelon()
        for r in ech.rows:
            v = ambient.truncate_vec(ws.vec_of(r), hi)
            row = ws2.row_of(v)
            if row is not None:
                ech2.add(row)
        vecs = [ws2.vec_of(r) for r in ech2.rows]
        lo = valuation_floor(vecs, hi)
        # final tight window
        ws3 = WindowSpace(field, ambient, lo, hi)
        ech3 = ws3.echelon()
        for v in vecs:
            row = ws3.row_of(v)
            if row is not None:
                ech3.add(row)
        basis = tuple(ws3.vec_of(r) for r in ech3.rows)
        lat = cls(ring, ambient, lo, hi, basis)
        lat._ech = (ws3, ech3)
        return lat

    @classmethod
    def from_module_data(cls, ring, ambient, rgens, cones, lo_bound, valid_hi):
        """Build the lattice R*rgens + cones given a known-valid tail."""
        ws, ech = raw_span(ring, ambient, rgens, cones, lo_bound, valid_hi)
        return cls._canonicalize(ring, ambient, lo_bound, valid_hi, ech, ws)

    @classmethod
    def from_generators(cls, ring, ambient, gens, known_tail=None):
        """Build the lattice generated by ``gens`` over ``ring``.

        Requires full per-branch rank (the torsion-free contract); raises
        NotFullRank otherwise.  A valid tail is derived from per-branch
        F[[t]]-triangularization of the generators plus the conductor.
        """
        gens = [g for g in gens if not ambient.vec_is_zero(g)]
        lo = valuation_floor(gens, [INF] * ambient.ncoords)
        lo = [0 if v is INF else v for v in lo]
        if known_tail is not None:
            hi = list(known_tail)
        else:
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
        return cls.from_module_data(ring, ambient, gens, [], lo, hi)

    # -- canonical data ------------------------------------------------------

    def window(self):
        if self._ech is None:
            ws = WindowSpace(self.ring.field, self.ambient, self.lo, self.hi)
            ech = ws.echelon()
            for v in self.basis:
                ech.add(ws.row_of(v))
            self._ech = (ws, ech)
        return self._ech

    def key(self):
        return (self.ambient.ranks, self.lo, self.hi, self.basis)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.key() == other.key()

    def __hash__(self):
        return hash((self.ambient.ranks, self.lo, self.hi, len(self.basis)))

    def rank(self):
        return self.ambient.ranks

    # -- membership and spans -------------------------------------------------

    def member(self, vec):
        """Exact membership via window reduction plus tail absorption."""
        for coord, a in enumerate(vec):
            if a and a.valuation() < self.lo[coord]:
                return False
        ws, ech = self.window()
        row = ws.row_of(self.ambient.truncate_vec(vec, self.hi))
        return row is not None and ech.contains(row)

    def contains_lattice(self, other):
        if self.ambient != other.ambient:
            raise AmbientMismatch("different ambients")
        return all(self.member(g) for g in other.genset())


# -- maps ---------------------------------------------------------------------


class LatticeMap:
    """A K-linear map between ambients carrying source into target.

    ``mats[br]`` is an r_target[br] x r_source[br] matrix of LaurentPoly.
    """

    __slots__ = ("source", "target", "mats")

    def __init__(self, source, target, mats, check=False):
        self.source = source
        self.target = target
        self.mats = tuple(tuple(tuple(row) for row in m) for m in mats)
        if check:
            for g in source.genset():
                if not target.member(self.apply(g)):
                    raise NotASubmodule("map does not carry source into target")

    @classmethod
    def zero_mats(cls, field, src_amb, tgt_amb):
        z = LaurentPoly.zero(field)
        return [
            [[z for _ in range(src_amb.ranks[br])] for _ in range(tgt_amb.ranks[br])]
            for br in range(src_amb.nbranches())
        ]

    @classmethod
    def identity(cls, lat):
        field = lat.ring.field
        mats = cls.zero_mats(field, lat.ambient, lat.ambient)
        mats = [list(map(list, m)) for m in mats]
        for br in range(lat.ambient.nbranches()):
            for s in range(lat.ambient.ranks[br]):
                mats[br][s][s] = LaurentPoly.one(field)
        return cls(lat, lat, mats)

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
            cols = len(b[0]) if mid else 0
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

    def is_zero(self):
        return all(not e for m in self.mats for row in m for e in row)

    def is_injective(self):
        field = self.source.ring.field
        for br in range(self.source.ambient.nbranches()):
            ncols = self.source.ambient.ranks[br]
            if ncols == 0:
                continue
            rows = [list(r) for r in self.mats[br]]
            if poly_matrix_rank(rows, ncols, field) < ncols:
                return False
        return True

    def render(self):
        return [
            [[e.render() for e in row] for row in m] for m in self.mats
        ]


# -- module operations ----------------------------------------------------------


def membership(vec, lat):
    return lat.member(vec)


def lattice_sum(l1, l2):
    if l1.ambient != l2.ambient:
        raise AmbientMismatch("sum needs equal ambients")
    tail = tuple(min(a, b) for a, b in zip(l1.hi, l2.hi))
    lo = tuple(min(a, b) for a, b in zip(l1.lo, l2.lo))
    return Lattice.from_module_data(
        l1.ring, l1.ambient, l1.genset() + l2.genset(), [], lo, tail
    )


def direct_sum(lats):
    """Block direct sum; returns (lattice, injections, projections as index maps)."""
    ring = lats[0].ring
    nb = lats[0].ambient.nbranches()
    ranks = [sum(l.ambient.ranks[br] for l in lats) for br in range(nb)]
    amb = Ambient(ranks)
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
    lo = [0] * amb.ncoords
    hi = [0] * amb.ncoords
    field = ring.field
    zero = LaurentPoly.zero(field)
    rows = []
    for l, cmap in zip(lats, placements):
        for c_small, c_big in enumerate(cmap):
            lo[c_big] = l.lo[c_small]
            hi[c_big] = l.hi[c_small]
        for v in l.basis:
            big = [zero] * amb.ncoords
            for c_small, c_big in enumerate(cmap):
                big[c_big] = v[c_small]
            rows.append(tuple(big))
    ws = WindowSpace(field, amb, lo, hi)
    ech = ws.echelon()
    for v in rows:
        ech.add(ws.row_of(v))
    out = Lattice(ring, amb, lo, hi, tuple(ws.vec_of(r) for r in ech.rows))
    out._ech = (ws, ech)
    injections = []
    for l, cmap in zip(lats, placements):
        mats = LatticeMap.zero_mats(field, l.ambient, amb)
        mats = [list(map(list, m)) for m in mats]
        for c_small, c_big in enumerate(cmap):
            br = l.ambient.branch_of(c_small)
            mats[br][c_big - amb.offsets[br]][c_small - l.ambient.offsets[br]] = LaurentPoly.one(field)
        injections.append(LatticeMap(l, out, mats))
    return out, injections


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


def minimal_generators(lat):
    """Nakayama-minimal generators over a local ring."""
    if not lat.ring.is_local:
        raise NotLocal("minimal generators need a local ring")
    cut = [h + lat.mx(lat.ambient.branch_of(c)) for c, h in enumerate(lat.hi)]
    lifts, _ = nakayama_covers(lat, [maximal_ideal_module(lat.ring, lat)], cut)
    return lifts


def ring_scalar_vectors(ring):
    """Generators of the ring as a module over itself (BranchVectors)."""
    out = list(ring.scalar_basis())
    field = ring.field
    for br in range(ring.branches):
        for m in range(max(ring.conductor[br], 1)):
            out.append(BranchVector.monomial(field, ring.branches, br, ring.conductor[br] + m))
    return out


def overring_scalars(overring, lat):
    """Scalars of S sufficient to test S-stability of ``lat``: the window
    basis plus tail monomials up to the absorption depth (deeper scalars
    push everything into the tail of ``lat`` automatically)."""
    out = list(overring.scalar_basis())
    field = overring.field
    amb = lat.ambient
    for br in range(overring.branches):
        if amb.ranks[br] == 0:
            continue
        top = max(lat.hi[c] for c in amb.coords_of(br))
        mv = min(lat.lo[c] for c in amb.coords_of(br))
        for m in range(overring.conductor[br], max(overring.conductor[br], top - mv)):
            out.append(BranchVector.monomial(field, overring.branches, br, m))
    return out


def check_overring(overring, ring):
    if overring.branches != ring.branches:
        raise NotAnOverring("different branch sets")
    for g in ring_scalar_vectors(ring):
        if not overring.self_lattice.member(tuple(g.parts)):
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


class _ConstraintStream:
    """Linear functionals enforcing transform(x) in target."""

    __slots__ = ("rows", "low_index", "tws", "tech", "target", "ncols")

    def __init__(self, target, ncols, low_positions):
        self.target = target
        self.ncols = ncols
        self.tws, self.tech = target.window()
        self.low_index = {p: i for i, p in enumerate(sorted(low_positions))}
        field = target.ring.field
        total = len(self.low_index) + self.tws.ncols()
        self.rows = [[field.zero()] * ncols for _ in range(total)]

    def put(self, u, img):
        tgt = self.target
        field = tgt.ring.field
        masked = []
        for coord, a in enumerate(img):
            keep = {}
            for ee, c in a.coeffs.items():
                if ee < tgt.lo[coord]:
                    self.rows[self.low_index[(coord, ee)]][u] = c
                elif ee < tgt.hi[coord]:
                    keep[ee] = c
            masked.append(LaurentPoly(field, keep))
        res = self.tech.residue(self.tws.row_of(tuple(masked)))
        base = len(self.low_index)
        for j, c in enumerate(res):
            if c:
                self.rows[base + j][u] = c


def solve_constrained_window(ws, streams):
    """Window vectors x with transform_i(x) in target_i for every stream.

    ``streams`` is a list of (transform, target_lattice) where transform maps
    an ambient vector of ``ws`` into the target's ambient.  Returns solution
    rows (they are exact elements: supported inside the window).
    """
    field = ws.field
    ncols = ws.ncols()
    units = []
    for u in range(ncols):
        coord, e = ws.cols[u]
        units.append(ws.ambient.unit_vec(field, coord, e))
    all_rows = []
    for transform, target in streams:
        images = [transform(x) for x in units]
        low_positions = set()
        for img in images:
            for coord, a in enumerate(img):
                for ee in a.coeffs:
                    if ee < target.lo[coord]:
                        low_positions.add((coord, ee))
        cs = _ConstraintStream(target, ncols, low_positions)
        for u, img in enumerate(images):
            cs.put(u, img)
        for r in cs.rows:
            if any(r):
                all_rows.append(r)
    return nullspace_F(all_rows, ncols, field)


def largest_submodule_over(overring, lat):
    """{x in N : S x <= N}, the largest S-stable sublattice of N.

    The tail of N is already S-stable, so the result shares N's window.
    """
    check_overring(overring, lat.ring)
    ring = lat.ring
    amb = lat.ambient
    ws = WindowSpace(ring.field, amb, lat.lo, lat.hi)
    streams = [(lambda v: v, lat)]
    for s in overring_scalars(overring, lat):
        streams.append((lambda v, s=s: amb.branch_scale(s, v), lat))
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


def hom_apply(src, tgt, hamb, h, vec):
    """Apply a hom-ambient vector h to a src-ambient vector."""
    field = h[0].field if h else None
    out = []
    for br in range(src.nbranches()):
        for k in range(tgt.ranks[br]):
            acc = LaurentPoly.zero(field)
            for l in range(src.ranks[br]):
                e = h[hom_coord(hamb, src, tgt, br, k, l)]
                x = vec[src.coord(br, l)]
                if e and x:
                    acc = acc + e * x
            out.append(acc)
    return tuple(out)


def hom_lattice(c, d):
    """Hom_R(C, D) as a lattice in the matrix ambient.

    An f with f(generators of C) in D automatically carries all of C into D
    (C is generated by its genset over R and f is K-linear, hence R-linear).
    """
    if c.ring is not d.ring and c.ring.key() != d.ring.key():
        raise AmbientMismatch("hom needs lattices over the same ring")
    ring = c.ring
    field = ring.field
    src, tgt = c.ambient, d.ambient
    hamb = hom_ambient(src, tgt)
    lo = [0] * hamb.ncoords
    hi = [0] * hamb.ncoords
    for br in range(src.nbranches()):
        for k in range(tgt.ranks[br]):
            for l in range(src.ranks[br]):
                hc = hom_coord(hamb, src, tgt, br, k, l)
                lo[hc] = d.lo[tgt.coord(br, k)] - c.hi[src.coord(br, l)]
                hi[hc] = d.hi[tgt.coord(br, k)] - c.lo[src.coord(br, l)]
    for i in range(hamb.ncoords):
        hi[i] = max(hi[i], lo[i])
    ws = WindowSpace(field, hamb, lo, hi)
    gens = c.genset()
    streams = [
        (lambda h, g=g: hom_apply(src, tgt, hamb, h, g), d) for g in gens
    ]
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


def map_as_hom_element(f):
    """Flatten a LatticeMap into its hom-ambient vector."""
    src, tgt = f.source.ambient, f.target.ambient
    hamb = hom_ambient(src, tgt)
    field = f.source.ring.field
    out = [LaurentPoly.zero(field)] * hamb.ncoords
    for br in range(src.nbranches()):
        for k in range(tgt.ranks[br]):
            for l in range(src.ranks[br]):
                out[hom_coord(hamb, src, tgt, br, k, l)] = f.mats[br][k][l]
    return tuple(out)


def hom_induced_map(x, f, hom_src=None, hom_tgt=None):
    """Hom(X, f): Hom(X, C) -> Hom(X, D) for f: C -> D (left composition)."""
    c, d = f.source, f.target
    hc = hom_src if hom_src is not None else hom_lattice(x, c)
    hd = hom_tgt if hom_tgt is not None else hom_lattice(x, d)
    field = x.ring.field
    xa, ca, da = x.ambient, c.ambient, d.ambient
    hca, hda = hc.ambient, hd.ambient
    mats = []
    for br in range(xa.nbranches()):
        rows = hda.ranks[br]
        cols = hca.ranks[br]
        m = [[LaurentPoly.zero(field) for _ in range(cols)] for _ in range(rows)]
        # (f o phi)_{kd,l} = sum_kc f_{kd,kc} phi_{kc,l}
        for kd in range(da.ranks[br]):
            for l in range(xa.ranks[br]):
                r = kd * xa.ranks[br] + l
                for kc in range(ca.ranks[br]):
                    cidx = kc * xa.ranks[br] + l
                    m[r][cidx] = f.mats[br][kd][kc]
        mats.append(m)
    return LatticeMap(hc, hd, mats)


# -- kernels, images and exactness ---------------------------------------------------


class KernelData:
    """Per-branch kernel subspace data of a map together with window bounds.

    ``basis[br]`` is a list of (vector over source-branch slots, free_slot,
    tail_exp) with the free-coordinate property: any kernel element x equals
    sum_j phi_j b_j with val(phi_j) >= val(x at the free slot).
    """

    __slots__ = ("f", "basis", "ranks")

    def __init__(self, f):
        self.f = f
        src = f.source.ambient
        field = f.source.ring.field
        self.basis = []
        self.ranks = []
        for br in range(src.nbranches()):
            ncols = src.ranks[br]
            if ncols == 0:
                self.basis.append([])
                self.ranks.append(0)
                continue
            rows = [list(r) for r in f.mats[br]]
            null = poly_nullspace(rows, ncols, field)
            entries = []
            for vec, free in null:
                h = 0
                for l, a in enumerate(vec):
                    if a:
                        h = max(h, f.source.hi[src.coord(br, l)] - a.valuation())
                entries.append((vec, free, h))
            self.basis.append(entries)
            self.ranks.append(len(entries))

    def source_vec(self, br, vec):
        src = self.f.source.ambient
        field = self.f.source.ring.field
        out = [LaurentPoly.zero(field)] * src.ncoords
        for l, a in enumerate(vec):
            out[src.coord(br, l)] = a
        return tuple(out)


def kernel_lattice(f):
    """Kernel of f as a full lattice in fresh coordinates plus its embedding.

    Returns (L, embed) where embed: L -> source realizes L = ker f.
    """
    kd = KernelData(f)
    ring = f.source.ring
    field = ring.field
    src = f.source.ambient
    new_amb = Ambient(kd.ranks)
    mats = []
    lo = [0] * new_amb.ncoords
    hi = [0] * new_amb.ncoords
    for br in range(src.nbranches()):
        cols = kd.ranks[br]
        m = [[LaurentPoly.zero(field) for _ in range(cols)] for _ in range(src.ranks[br])]
        for j, (vec, free, h) in enumerate(kd.basis[br]):
            for l, a in enumerate(vec):
                m[l][j] = a
            nc = new_amb.coord(br, j)
            lo[nc] = f.source.lo[src.coord(br, free)]
            hi[nc] = max(h, lo[nc])
        mats.append(m)

    def embed_vec(y):
        out = [LaurentPoly.zero(field)] * src.ncoords
        for br in range(src.nbranches()):
            for j in range(kd.ranks[br]):
                a = y[new_amb.coord(br, j)]
                if a:
                    for l, b in enumerate(kd.basis[br][j][0]):
                        if b:
                            out[src.coord(br, l)] = out[src.coord(br, l)] + a * b
        return tuple(out)

    ws = WindowSpace(field, new_amb, lo, hi)
    sols = solve_constrained_window(ws, [(embed_vec, f.source)])
    ech = ws.echelon()
    ech.add_many(sols)
    lat = Lattice._canonicalize(ring, new_amb, lo, hi, ech, ws)
    embed = LatticeMap(lat, f.source, mats)
    return lat, embed


def kernel_window_module(f):
    """ker(f) as a Module in the source ambient (with skeleton data) and the
    window cut below which its rows are complete.

    The cones are shifted by mx so that they land inside m*ker, which makes
    elements deeper than the cut provably absorbed for Nakayama span tests.
    """
    kd = KernelData(f)
    src = f.source.ambient
    cones = []
    skel = []
    for br in range(src.nbranches()):
        for vec, free, h in kd.basis[br]:
            v = kd.source_vec(br, vec)
            H = h + f.source.mx(br)
            cones.append((br, src.mono_scale(br, H, v)))
            skel.append((br, v, H))
    ker = Module(f.source.ring, src, (), cones, f.source.lo, skel)
    tops = _branch_tops(src, f.source.hi)
    cut = ker.deep_cut([tops[src.branch_of(c)] for c in range(src.ncoords)])
    ws = WindowSpace(ker.ring.field, src, ker.lo, cut)
    # f(x) must vanish identically: a zero target whose window sits at +infinity
    sols = solve_constrained_window(ws, [(lambda v: v, f.source), (f.apply, _ZeroTarget(f.target))])
    ker.rows = tuple(ws.vec_of(r) for r in sols)
    return ker, cut


class _ZeroTarget:
    """Presents the zero module with the window-residue interface."""

    def __init__(self, like):
        self.ring = like.ring
        self.ambient = like.ambient
        big = 10 ** 9
        self.lo = tuple([big] * like.ambient.ncoords)
        self.hi = tuple([big] * like.ambient.ncoords)
        self._ws = WindowSpace(like.ring.field, like.ambient, self.lo, self.hi)
        self._ech = self._ws.echelon()

    def window(self):
        return (self._ws, self._ech)


def image_lattice(f):
    """im(f) materialized as a canonical lattice (requires full rank in the
    target ambient; image_module gives generator data in general)."""
    return Lattice.from_generators(
        f.source.ring, f.target.ambient, [f.apply(g) for g in f.source.genset()]
    )


def image_module(f):
    """R-generator data (rgens, cones) of im(f) in the target ambient."""
    rgens = [f.apply(g) for g in f.source.genset()]
    cones = [(br, f.apply(v)) for br, v in f.source.cones]
    return rgens, cones


def maximal_ideal_module(ring, mod):
    """R-generator data (rgens, cones) of m * mod for a Module ``mod``."""
    m = ring.maximal_ideal_lattice()
    amb = mod.ambient
    gens = mod.genset()
    # m lives in the rank-one ambient of R: coordinate br is branch br
    rgens = [amb.branch_scale(BranchVector(s), g) for s in m.genset() for g in gens]
    cones = [(br, amb.mono_scale(br, m.hi[br], v)) for br, v in mod.cones]
    return rgens, cones


def nakayama_covers(goal, parts, cut):
    """Nakayama comparison of the Module ``goal`` with the sum of ``parts``.

    Each part is a Module or (rgens, cones) generator data, closed under R by
    raw_span.  ``cut`` must reach deep enough that goal elements beyond it
    lie in the span of the parts.  Returns (lifts, inside): the goal's RREF
    window rows outside the span of the parts, as vectors in echelon order,
    and whether the parts lie inside the goal.  The parts span the goal
    exactly when ``not lifts and inside``.
    """
    rgens, cones, mods = [], [], []
    for p in parts:
        if isinstance(p, Module):
            mods.append(p)
        else:
            rgens += p[0]
            cones += p[1]
    vecs = rgens + [v for _, v in cones]
    for p in mods:
        vecs += list(p.rows) + [v for _, v in p.cones]
    lo = valuation_floor(vecs, goal.lo)
    ws, e_goal = goal.span(lo, cut)
    _, e_parts = raw_span(goal.ring, goal.ambient, rgens, cones, lo, cut)
    for p in mods:
        e_parts.add_many(p.span(lo, cut)[1].rows)
    inside = e_goal.contains_space(e_parts)
    lifts = [ws.vec_of(r) for r in e_goal.rows if e_parts.add(r)]
    return lifts, inside


def is_surjective_onto(f):
    """Nakayama test: im(f) + m*target = target."""
    tgt = f.target
    cut = [h + tgt.mx(tgt.ambient.branch_of(c)) + 1 for c, h in enumerate(tgt.hi)]
    parts = [image_module(f), maximal_ideal_module(tgt.ring, tgt)]
    lifts, inside = nakayama_covers(tgt, parts, cut)
    return not lifts and inside


def is_exact_at(incoming, outgoing):
    """Exactness of  A --incoming--> B --outgoing--> C  at B.

    Certified by: (i) outgoing o incoming = 0, and (ii) the Nakayama span
    identity im(incoming) + m*ker(outgoing) = ker(outgoing) at a window deep
    enough that all deeper kernel elements provably lie in m*ker.
    """
    if not outgoing.compose(incoming).is_zero():
        return False
    ker, cut = kernel_window_module(outgoing)
    parts = [image_module(incoming), maximal_ideal_module(incoming.target.ring, ker)]
    lifts, inside = nakayama_covers(ker, parts, cut)
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

