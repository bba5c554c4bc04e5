"""Reduced complete one-dimensional rings R inside E = prod_i F[[t_i]].

A ring is built from algebra generators by multiplicative closure on a
finite exponent window.  Once the closure stabilizes and exhibits a
conductor c (every monomial t^m e_i with m >= c_i visible in the window
span), the complete subalgebra genuinely contains t^c E: deeper monomials
are obtained by successive approximation inside the closed algebra, so the
window data determines the ring exactly.  The canonical representation is
the window basis on [0, c) plus the conductor tail.  The ring keeps the
generators it was built from as ``CurveRing.gens``: R is the closure of
F[gens], so they are the multipliers of every later R-closure (``_close``).
On a local ring they give m = sum (g - g(0)) * R (``maximal_ideal_gens``),
which contains t^mx * e_br for the Nakayama depth mx = max(c_br, 1).
"""

import itertools
import math
from dataclasses import dataclass

from .series import BranchVector
from .linalg import Echelon
from .errors import (
    NoFiniteConductor,
    NotCoprime,
    NotIdempotentFactor,
    NotLocal,
    ResidueFieldTooLarge,
    SchemaError,
)
from .lattice import Ambient, WindowSpace, Lattice, _close, minimal_generators


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
        "_basis_bv",
    )

    def __init__(self, field, branches, conductor, basis_vectors, atoms, window_bound, gens):
        self.field = field
        self.branches = branches
        self.conductor = tuple(conductor)
        # algebra generators (BranchVectors); not part of key()
        self.gens = tuple(gens)
        self.atoms = tuple(atoms)
        self.is_local = len(atoms) == 1
        self.window_bound = window_bound
        self._mlat = None
        self._mterms = None
        amb = Ambient([1] * branches)
        lo = [0] * branches
        self._basis_bv = tuple(BranchVector(v) for v in basis_vectors)
        self.self_lattice = Lattice(
            self, amb, lo, self.conductor, tuple(tuple(v) for v in basis_vectors)
        )

    # -- protocol used by the lattice layer -----------------------------------

    def scalar_basis(self):
        return list(self._basis_bv)

    def is_dvr_product(self):
        return self.delta() == 0

    def key(self):
        basis_data = tuple(
            tuple(tuple(sorted(p.coeffs.items())) for p in bv.parts)
            for bv in self._basis_bv
        )
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
        return hash((self.branches, self.conductor, len(self._basis_bv)))

    # -- invariants -------------------------------------------------------------

    def delta(self):
        """dim_F(E/R)."""
        return sum(self.conductor) - len(self.self_lattice.basis)

    def mx(self, br):
        """The Nakayama depth max(c_br, 1) of branch br: t^mx * e_br lies
        in m, since it lies in t^c E and has no constant term."""
        return max(self.conductor[br], 1)

    def maximal_ideal_gens(self):
        """The g - g(0) * 1 over ``gens``, nonzero as ``build_ring`` drops
        constant generators: R is the closure of F[gens] and R/m = F (g(0)
        is the same on every branch), so m = sum (g - g(0)) R."""
        if not self.is_local:
            raise NotLocal("maximal ideal needs a local ring")
        one = BranchVector.one(self.field, self.branches)
        return [g - one.scale(g[0][0]) for g in self.gens]

    def maximal_ideal_terms(self):
        """Per g - g(0) of ``maximal_ideal_gens``, its (d, entry) terms per
        branch: the column shifts that multiply a window row by it."""
        if self._mterms is None:
            self._mterms = [[p.kernel_terms() for p in d.parts] for d in self.maximal_ideal_gens()]
        return self._mterms

    def maximal_ideal_lattice(self):
        if self._mlat is None:
            self._mlat = maximal_ideal(self)
        return self._mlat

    def residue_constants_dim(self):
        """Dimension of the space of branchwise constant terms of elements."""
        entry = self.field.entry
        ech = Echelon(self.field, self.branches)
        ech.add(dict.fromkeys(range(self.branches), 1))  # 1 is always there
        for v in self.self_lattice.basis:
            ech.add({br: entry(p[0]) for br, p in enumerate(v) if p[0]})
        return ech.rank()

    def __repr__(self):
        return f"CurveRing(b={self.branches}, conductor={self.conductor})"


def build_ring(field, branches, generators, window_hint=None, max_window=192):
    """Construct the complete subalgebra of E generated by the given
    branch vectors (1 is always adjoined, so constant multiples of 1 are
    dropped from ``gens``).

    Raises NoFiniteConductor when no window up to max_window exhibits a
    conductor, and ResidueFieldTooLarge for local rings with residue field
    bigger than F.  For general generators the cap is the fixed default 192;
    ``semigroup_ring`` passes a cap proven from the conductor bound.
    """
    unit = BranchVector.one(field, branches)
    gens = []
    for g in generators:
        if not isinstance(g, BranchVector):
            raise SchemaError("generators must be BranchVectors")
        if len(g) != branches:
            raise SchemaError("generator branch count mismatch")
        for p in g.parts:
            if p and p.valuation() < 0:
                raise SchemaError("ring generators must have valuation >= 0")
        if not (g - unit.scale(g[0][0])).is_zero():
            gens.append(g)
    maxdeg = 0
    for g in gens:
        for p in g.parts:
            if p:
                maxdeg = max(maxdeg, p.degree())
    w = window_hint or (2 * maxdeg + 6)
    w = max(w, 4)
    max_window = max(max_window, 2 * w)
    amb = Ambient([1] * branches)
    one = tuple(unit.parts)
    while True:
        # the span of the generated algebra in E / t^w E
        ws = WindowSpace(field, amb, [0] * branches, [w] * branches)
        ech = ws.echelon()
        _close(ws, ech, [one], mults=gens)
        conductor = []
        ok = True
        for br in range(branches):
            e = w
            while e - 1 >= 0:
                mono = amb.unit_vec(field, br, e - 1)
                if ech.contains(ws.row_of(mono)):
                    e -= 1
                else:
                    break
            if e == w:
                ok = False
                break
            conductor.append(e)
        if ok and w >= 2 * max(conductor, default=0) + maxdeg + 2:
            break
        w *= 2
        if w > max_window:
            raise NoFiniteConductor(
                "closure exhibits no conductor below the window cap",
                window=max_window,
            )
    # canonical window basis on [0, conductor)
    ws2 = WindowSpace(field, amb, [0] * branches, conductor)
    ech2 = ws2.echelon()
    _close(ws2, ech2, [ws.vec_of(r) for r in ech.rows])
    basis = [ws2.vec_of(r) for r in ech2.rows]
    atoms = _branch_atoms(field, branches, ws2, ech2, conductor)
    ring = CurveRing(field, branches, conductor, basis, atoms, w, gens)
    if ring.is_local and ring.residue_constants_dim() > 1:
        raise ResidueFieldTooLarge(
            "local ring has residue field larger than the coefficient field"
        )
    return ring


def _branch_atoms(field, branches, ws, ech, conductor):
    """Minimal branch subsets T with e_T in the ring; they partition."""

    def has_idem(T):
        vec = tuple(BranchVector.indicator(field, branches, T).parts)
        row = ws.row_of(ws.ambient.truncate_vec(vec, conductor))
        return ech.contains(row)

    remaining = set(range(branches))
    atoms = []
    # greedy: smallest subsets first
    while remaining:
        found = None
        for size in range(1, len(remaining) + 1):
            for T in itertools.combinations(sorted(remaining), size):
                if has_idem(frozenset(T)):
                    found = frozenset(T)
                    break
            if found:
                break
        if found is None:
            # no idempotent inside `remaining` except their union
            found = frozenset(remaining)
        atoms.append(tuple(sorted(found)))
        remaining -= set(found)
    return tuple(atoms)


def semigroup_ring(field, semigroup_generators, **kw):
    """Single-branch monomial ring F[[t^a : a in generators]].

    The window cap is proven: by Schur's bound the conductor c is at most
    (a_min - 1)(a_max - 1), and build_ring stops at the first doubled window
    w >= 2c + a_max + 2, so w never exceeds 2 (2 (a_min - 1)(a_max - 1) +
    a_max + 2).
    """
    gens = [int(a) for a in semigroup_generators]
    if not gens or any(a <= 0 for a in gens):
        raise SchemaError("semigroup generators must be positive integers")
    g = 0
    for a in gens:
        g = math.gcd(g, a)
    if g != 1:
        raise NotCoprime("semigroup generators must have gcd 1", gcd=g)
    bvs = [BranchVector.monomial(field, 1, 0, a) for a in gens]
    a_min, a_max = min(gens), max(gens)
    kw.setdefault("max_window", 2 * (2 * (a_min - 1) * (a_max - 1) + a_max + 2))
    return build_ring(field, 1, bvs, **kw)


def maximal_ideal(ring):
    """The Jacobson radical m = sum (g - g(0)) * R of a local ring as a
    rank-one lattice, with the cones t^mx * e_br at the valid tail mx."""
    amb = ring.self_lattice.ambient
    gens = [tuple(d.parts) for d in ring.maximal_ideal_gens()]
    hi = [ring.mx(br) for br in range(ring.branches)]
    cones = [(br, amb.unit_vec(ring.field, br, h)) for br, h in enumerate(hi)]
    return Lattice.from_module_data(ring, amb, gens, cones, [0] * ring.branches, hi)


def factor(ring, T):
    """The direct factor e_T * R as a ring on the branches of T, built from
    the parent's generators restricted to T: r -> e_T * r is a continuous
    surjection onto e_T * R, so it carries a dense F[gens] onto a dense
    F[e_T * gens]."""
    T = tuple(sorted(set(T)))
    eT = BranchVector.indicator(ring.field, ring.branches, set(T))
    if not ring.self_lattice.member(tuple(eT.parts)):
        raise NotIdempotentFactor("e_T does not lie in the ring", subset=T)
    gens = [BranchVector([bv.parts[b] for b in T]) for bv in ring.gens]
    return build_ring(ring.field, len(T), gens)


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
