"""Reduced complete one-dimensional rings R inside E = prod_i F[[t_i]].

A ring is built from algebra generators, elements of K given as tuples with
one LaurentPoly per branch (vectors of the rank-one ``Ambient``), by
multiplicative closure on a finite exponent window [0, w).  Once the closure
exhibits a conductor c (every monomial t^m e_i with m >= c_i visible in the
window span) with w >= 2c + maxdeg + 2, the complete subalgebra genuinely
contains t^c E: deeper monomials are obtained by successive approximation
inside the closed algebra, so the window data determines the ring exactly.
Where a bound B >= c(R) is proven (Schur's or Sylvester's in
``semigroup_ring``), one closure at w = 2 max(B) + maxdeg + 2 passes.  That
closure is the only one with multipliers below a root ring: a chain ring is
placed, not closed.  End(m) is the lattice Hom(m, m) the chain step has
solved (``chain.end_of_maximal_ideal``), a factor e_T * R is R's basis rows
on T (``factor``), and the maximal ideal is R's basis less its constant row
(``maximal_ideal``); ``placed_ring`` makes every ring from its window basis.
The canonical representation is the window basis on [0, c) plus the
conductor tail.  The ring keeps algebra generators as ``CurveRing.gens``: R
is the closure of F[gens], so they are the multipliers of every later
R-closure (``_close``).  On a local ring they give m = sum (g - g(0)) * R
(``maximal_ideal_gens``), the shifts of every m * L in a Nakayama span.
The atoms of R, the minimal branch sets T with e_T in R, are the supports
of the RREF rows of R's constant terms (``_branch_atoms``); a local R has
one, so R/m = F.
"""

import itertools
import math
from dataclasses import dataclass

from .series import LaurentPoly
from .linalg import Echelon
from .errors import (
    ClaimViolation,
    NoFiniteConductor,
    NotCoprime,
    NotIdempotentFactor,
    NotLocal,
    SchemaError,
)
from .lattice import Ambient, WindowSpace, Lattice, _close, minimal_generators, placed_sum


class CurveRing:
    __slots__ = (
        "field",
        "branches",
        "conductor",
        "gens",
        "is_local",
        "atoms",
        "self_lattice",
        "window_bound",
        "_mlat",
        "_mterms",
    )

    def __init__(self, field, branches, conductor, basis_vectors, window_bound, gens):
        self.field = field
        self.branches = branches
        self.conductor = tuple(conductor)
        # algebra generators (elements of K); not part of key()
        self.gens = tuple(gens)
        self.window_bound = window_bound
        self._mlat = None
        self._mterms = None
        self.self_lattice = Lattice(self, Ambient([1] * branches), [0] * branches, self.conductor, tuple(basis_vectors))
        self.atoms = _branch_atoms(self.self_lattice)
        self.is_local = len(self.atoms) == 1

    # -- protocol used by the lattice layer -----------------------------------

    def scalar_basis(self):
        return list(self.self_lattice.basis)

    def is_dvr_product(self):
        return self.delta() == 0

    def key(self):
        basis_data = tuple(tuple(tuple(sorted(p.coeffs.items())) for p in v) for v in self.self_lattice.basis)
        return (
            self.field.kind,
            self.field.characteristic,
            self.branches,
            self.conductor,
            basis_data,
        )

    def __eq__(self, other):
        return isinstance(other, CurveRing) and self.key() == other.key()

    def __hash__(self):
        return hash((self.branches, self.conductor, len(self.self_lattice.basis)))

    # -- invariants -------------------------------------------------------------

    def delta(self):
        """dim_F(E/R)."""
        return sum(self.conductor) - len(self.self_lattice.basis)

    def mx(self, br):
        """The Nakayama depth max(c_br, 1) of branch br: t^mx * e_br lies
        in m, since it lies in t^c E and has no constant term."""
        return max(self.conductor[br], 1)

    def maximal_ideal_gens(self):
        """The g - g(0) * 1 over ``gens``, nonzero as ``placed_ring`` drops
        constant generators: R is the closure of F[gens] and R/m = F (g(0)
        is the same on every branch), so m = sum (g - g(0)) R."""
        if not self.is_local:
            raise NotLocal("maximal ideal needs a local ring")
        return [tuple(p - LaurentPoly.monomial(p.field, 0, g[0][0]) for p in g) for g in self.gens]

    def maximal_ideal_terms(self):
        """Per g - g(0) of ``maximal_ideal_gens``, its (d, coefficient) terms
        per branch: the column shifts that multiply a window row by it."""
        if self._mterms is None:
            self._mterms = [[p.kernel_terms() for p in d] for d in self.maximal_ideal_gens()]
        return self._mterms

    def maximal_ideal_lattice(self):
        if self._mlat is None:
            self._mlat = maximal_ideal(self)
        return self._mlat

    def __repr__(self):
        return f"CurveRing(b={self.branches}, conductor={self.conductor})"


# the window cap of a build without a conductor bound (generator input)
MAX_WINDOW = 192


def _is_constant(g):
    """Whether g in K is a constant multiple of 1: the same constant on
    every branch."""
    return all(p == g[0] and p.coeffs.keys() <= {0} for p in g)


def build_ring(field, branches, generators, window_hint=None, conductor_bound=None):
    """Construct the complete subalgebra S of E generated by the given
    elements of K, tuples with one LaurentPoly per branch (1 is always
    adjoined, so constant multiples of 1 are dropped from ``gens``).  This
    is a root build; chain rings are placed from their parents
    (``placed_ring``).

    It closes F[gens] on [0, w) and accepts once w >= 2 c(w) + maxdeg + 2,
    c(w) the conductor it shows.  For w > c(S), pi_w(S) contains
    pi_w(t^c E), so c(w) <= c(S); and c(w) <= c(w') for w < w', as pi_w(S)
    is the projection of pi_w'(S).  Given a per-branch ``conductor_bound``
    B >= c(S), the only window (and cap) is w0 = 2 max(B) + maxdeg + 2,
    accepted at once; a c(w0) above B on some branch (a wrong bound) raises
    NoFiniteConductor.  Without one, a closure showing c(w) moves to
    2 c(w) + maxdeg + 2, so never past a window the rule accepts, and one
    showing none doubles w, up to MAX_WINDOW (or twice a larger
    ``window_hint``).
    """
    gens = []
    for g in generators:
        if not isinstance(g, tuple) or not all(isinstance(p, LaurentPoly) for p in g):
            raise SchemaError("generators must be tuples of LaurentPoly")
        if len(g) != branches:
            raise SchemaError("generator branch count mismatch")
        if any(p and p.valuation() < 0 for p in g):
            raise SchemaError("ring generators must have valuation >= 0")
        if not _is_constant(g):
            gens.append(g)
    maxdeg = max([0] + [p.degree() for g in gens for p in g if p])
    if conductor_bound is None:
        w = max(window_hint or 2 * maxdeg + 6, 4)
        cap = max(MAX_WINDOW, 2 * w)
    else:
        w = cap = max(window_hint or 0, 2 * max(conductor_bound) + maxdeg + 2)
    amb = Ambient([1] * branches)
    one = amb.idem_vec(field, range(branches))
    while True:
        # the span of the generated algebra in E / t^w E
        ws = WindowSpace(field, amb, [0] * branches, [w] * branches)
        ech = ws.echelon()
        _close(ws, ech, [one], mults=gens)
        # t^e e_br (column br * w + e) is in the span iff its column is a
        # pivot whose RREF row is that unit row
        conductor = []
        for br in range(branches):
            e = w
            while e and ech.by_pivot.get(br * w + e - 1) == {br * w + e - 1: 1}:
                e -= 1
            conductor.append(e)
        need = 2 * max(conductor) + maxdeg + 2 if max(conductor) < w else 2 * w
        if w >= need and all(c <= b for c, b in zip(conductor, conductor_bound or conductor)):
            break
        if need > cap or conductor_bound is not None:
            raise NoFiniteConductor("closure exhibits no conductor below the window cap", window=cap)
        w = need
    # canonical window basis on [0, conductor): every other RREF row is zero
    # at the unit tail pivots, so the rows pivoting below the tail, cut at
    # the conductor columns, are the RREF of the span's projection
    below = [e < conductor[c] for c, e in ws.cols]
    basis = [ws.vec_of({j: x for j, x in ech.by_pivot[p].items() if below[j]}) for p in sorted(ech.by_pivot) if below[p]]
    return placed_ring(field, conductor, basis, w, gens)


def placed_ring(field, conductor, basis, window_bound, gens, kept=()):
    """The ring with RREF window basis ``basis`` on [0, conductor) and tail
    t^conductor E; every ring is made here, with no closure.  The caller
    proves that ``gens`` generate it as a complete F-algebra (constants are
    dropped), from the parent's generating set ``kept``: one missing from
    ``gens`` raises ClaimViolation.  Its atoms, read off its constant terms
    (``_branch_atoms``), make a local R one with R/m = F."""
    gens = [g for g in gens if not _is_constant(g)]
    if any(g not in gens and not _is_constant(g) for g in kept):
        raise ClaimViolation("chain ring generators omit a generating set of its parent", conductor=list(conductor))
    return CurveRing(field, len(conductor), conductor, basis, window_bound, gens)


def _branch_atoms(lat):
    """The atoms of the ring R whose self-lattice is ``lat``: the minimal
    branch sets T with e_T in R, sorted by (size, branches).  They are the
    supports of the RREF rows of C, the constant terms of R, spanned by 1,
    those of R's basis rows and e_br for each branch br of conductor 0.

    R / (R cap tE) = C.  C is a split subalgebra of F^b: for x in C and
    each level set S of x, a polynomial in x (Lagrange's, at x's values)
    is e_S, so C is spanned by the e_P over the blocks P of a partition,
    and those e_P are its RREF rows.  The ideal R cap tE lies in rad R, as
    1 - x is a unit of the complete R for x in it, so each e_P lifts to an
    idempotent of R; that is an e_T of E with constant terms e_P, so
    e_T = e_P.  Each e_P is certified a member of R (else ClaimViolation).
    A local R has one atom, so R/m = C = F."""
    field, nb = lat.ring.field, lat.ambient.nbranches()
    ech = Echelon(field, nb)
    ech.add(dict.fromkeys(range(nb), 1))
    ech.add_many({br: p[0] for br, p in enumerate(v) if p[0]} for v in lat.basis)
    ech.add_many({br: 1} for br in range(nb) if lat.hi[br] == 0)
    atoms = sorted((tuple(sorted(r)) for r in ech.rows), key=lambda T: (len(T), T))
    for T in atoms:
        if not lat.member(lat.ambient.idem_vec(field, T)):
            raise ClaimViolation("an idempotent of the constant terms is not in the ring", subset=T)
    return tuple(atoms)


def semigroup_ring(field, semigroup_generators, **kw):
    """Single-branch monomial ring F[[t^a : a in generators]], built at the
    window proven by the smaller of two conductor bounds: Schur's
    (a_min - 1)(a_max - 1), from which on every integer is a sum of the
    generators, and Sylvester's (a - 1)(b - 1) for each coprime pair a, b
    of generators, as the semigroup <a, b> lies inside S."""
    gens = [int(a) for a in semigroup_generators]
    if not gens or any(a <= 0 for a in gens):
        raise SchemaError("semigroup generators must be positive integers")
    g = 0
    for a in gens:
        g = math.gcd(g, a)
    if g != 1:
        raise NotCoprime("semigroup generators must have gcd 1", gcd=g)
    bound = min(
        [(min(gens) - 1) * (max(gens) - 1)]
        + [(a - 1) * (b - 1) for a, b in itertools.combinations(gens, 2) if math.gcd(a, b) == 1]
    )
    kw.setdefault("conductor_bound", [bound])
    return build_ring(field, 1, [Ambient([1]).unit_vec(field, 0, a) for a in gens], **kw)


def maximal_ideal(ring):
    """The maximal ideal m = ker(R -> F) of a local ring as a rank-one
    lattice, placed from R's window basis.  R/m = F, as R has one atom
    (``_branch_atoms``): the constant terms of an element of R are one
    scalar on every branch.  The RREF row pivoting at branch 0's constant
    column is the only basis row nonzero there, so m's window is spanned by
    the other rows.  Its tail is mx: t^c_br e_br has no constant term for
    c_br >= 1, and t^(c_br - 1) e_br is not in R; c_br = 0 only on F[[t]],
    where m = t F[[t]]."""
    if not ring.is_local:
        raise NotLocal("maximal ideal needs a local ring")
    rows = [v for v in ring.self_lattice.basis if not v[0][0]]
    hi = [ring.mx(br) for br in range(ring.branches)]
    lo = [min([h] + [v[br].valuation() for v in rows if v[br]]) for br, h in enumerate(hi)]
    return Lattice(ring, ring.self_lattice.ambient, lo, hi, tuple(rows))


def factor(ring, T):
    """The direct factor e_T * R as a ring on the branches of T, placed from
    R's basis.  As e_T lies in R, R's window span is the direct sum of its
    parts on T and off T, so R's RREF basis rows on T and R's conductor on T
    are e_T * R's: the projection of ``placed_sum``, which raises
    ClaimViolation for a row on both sides.  r -> e_T * r is a continuous
    surjection onto e_T * R, so it carries a dense F[R.gens] onto a dense
    F[e_T * R.gens], the factor's generators.  An atom's e_T is a member
    already (``_branch_atoms`` certified it); any other T is tested."""
    T = tuple(sorted(set(T)))
    if T not in ring.atoms and not ring.self_lattice.member(ring.self_lattice.ambient.idem_vec(ring.field, T)):
        raise NotIdempotentFactor("e_T does not lie in the ring", subset=T)
    cmap = [T.index(b) if b in T else None for b in range(ring.branches)]
    e_t = placed_sum(ring, Ambient([1] * len(T)), [ring.self_lattice], [cmap])
    gens = [tuple(g[b] for b in T) for g in ring.gens]
    return placed_ring(ring.field, e_t.hi, e_t.basis, max(e_t.hi), gens)


@dataclass
class RingReport:
    multiplicity: int
    embedding_dim: int
    conductor: tuple
    is_dvr_product: bool
    delta: int
    is_local: bool
    branches: int

    def as_json(self):
        return {
            "multiplicity": self.multiplicity,
            "embedding_dim": self.embedding_dim,
            "conductor": list(self.conductor),
            "is_dvr_product": self.is_dvr_product,
            "delta": self.delta,
            "is_local": self.is_local,
            "branches": self.branches,
        }


def ring_report(ring):
    if not ring.is_local:
        raise NotLocal("ring_report needs a local ring")
    m = ring.maximal_ideal_lattice()
    # e(R) = dim E/mE; mE is the product of t^(min val) F[[t]] per branch.
    # The embedding dimension dim m/m^2 is mu(m), by Nakayama.
    return RingReport(
        multiplicity=sum(m.lo),
        embedding_dim=len(minimal_generators(m)),
        conductor=ring.conductor,
        is_dvr_product=ring.is_dvr_product(),
        delta=ring.delta(),
        is_local=ring.is_local,
        branches=ring.branches,
    )


def normalization_lattice(ring):
    """E = prod F[[t_i]] as an R-lattice: no basis row, every tail at 0."""
    zeros = (0,) * ring.branches
    return Lattice(ring, ring.self_lattice.ambient, zeros, zeros, ())
