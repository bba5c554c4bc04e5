"""Reduced complete one-dimensional rings R inside E = prod_i F[[t_i]].

A ring is built from algebra generators by multiplicative closure on a
finite exponent window.  Once the closure stabilizes and exhibits a
conductor c (every monomial t^m e_i with m >= c_i visible in the window
span), the complete subalgebra genuinely contains t^c E: deeper monomials
are obtained by successive approximation inside the closed algebra, so the
window data determines the ring exactly.  The canonical representation is
the window basis on [0, c) plus the conductor tail.
"""

from dataclasses import dataclass

from .series import BranchVector
from .linalg import Echelon, nullspace_F
from .errors import (
    NoFiniteConductor,
    NotCoprime,
    NotIdempotentFactor,
    NotLocal,
    ResidueFieldTooLarge,
    SchemaError,
)
from .lattice import Ambient, WindowSpace, Lattice, quotient_dimension


class CurveRing:
    __slots__ = (
        "field",
        "branches",
        "conductor",
        "is_local",
        "atoms",
        "self_lattice",
        "window_bound",
        "_mlat",
        "_basis_bv",
    )

    def __init__(self, field, branches, conductor, basis_vectors, atoms, window_bound):
        self.field = field
        self.branches = branches
        self.conductor = tuple(conductor)
        self.atoms = tuple(atoms)
        self.is_local = len(atoms) == 1
        self.window_bound = window_bound
        self._mlat = None
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

    def maximal_ideal_lattice(self):
        if self._mlat is None:
            self._mlat = maximal_ideal(self)
        return self._mlat

    def residue_constants_dim(self):
        """Dimension of the space of branchwise constant terms of elements."""
        consts = []
        for v in self.self_lattice.basis:
            consts.append([p[0] for p in v])
        ech = Echelon(self.field, self.branches)
        one = self.field.one()
        ech.add([one] * self.branches)  # 1 is always there
        for row in consts:
            ech.add(row)
        return ech.rank()

    def __repr__(self):
        return f"CurveRing(b={self.branches}, conductor={self.conductor})"


def _closure_span(field, branches, gens, w):
    """Span of the generated algebra in E/t^w E (window [0, w) per branch)."""
    amb = Ambient([1] * branches)
    his = [w] * branches
    ws = WindowSpace(field, amb, [0] * branches, his)
    ech = ws.echelon()
    one = tuple(BranchVector.one(field, branches).parts)
    queue = [one]
    gvecs = [tuple(g.parts) for g in gens]
    ech.add(ws.row_of(one))
    for g in gvecs:
        if ech.add(ws.row_of(amb.truncate_vec(g, his))):
            queue.append(amb.truncate_vec(g, his))
    while queue:
        v = queue.pop()
        for g in gvecs:
            p = amb.truncate_vec(
                tuple(a * b for a, b in zip(v, g)), his
            )
            row = ws.row_of(p)
            if ech.add(row):
                queue.append(p)
    return ws, ech


def build_ring(field, branches, generators, window_hint=None, max_window=192):
    """Construct the complete subalgebra of E generated by the given
    branch vectors (1 is always adjoined).

    Raises NoFiniteConductor when no window up to max_window exhibits a
    conductor, and ResidueFieldTooLarge for local rings with residue field
    bigger than F.
    """
    gens = []
    for g in generators:
        if not isinstance(g, BranchVector):
            raise SchemaError("generators must be BranchVectors")
        if len(g) != branches:
            raise SchemaError("generator branch count mismatch")
        for p in g.parts:
            if p and p.valuation() < 0:
                raise SchemaError("ring generators must have valuation >= 0")
        gens.append(g)
    maxdeg = 0
    for g in gens:
        for p in g.parts:
            if p:
                maxdeg = max(maxdeg, p.degree())
    w = window_hint or (2 * maxdeg + 6)
    w = max(w, 4)
    max_window = max(max_window, 2 * w)
    while True:
        ws, ech = _closure_span(field, branches, gens, w)
        amb = ws.ambient
        conductor = []
        ok = True
        for br in range(branches):
            c = None
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
    ws2 = WindowSpace(field, ws.ambient, [0] * branches, conductor)
    ech2 = ws2.echelon()
    for r in ech.rows:
        v = ws.vec_of(r)
        row = ws2.row_of(ws.ambient.truncate_vec(v, conductor))
        if row is not None:
            ech2.add(row)
    basis = [ws2.vec_of(r) for r in ech2.rows]
    atoms = _branch_atoms(field, branches, ws2, ech2, conductor)
    ring = CurveRing(field, branches, conductor, basis, atoms, w)
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
    import itertools

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
    """Single-branch monomial ring F[[t^a : a in generators]]."""
    import math

    gens = [int(a) for a in semigroup_generators]
    if not gens or any(a <= 0 for a in gens):
        raise SchemaError("semigroup generators must be positive integers")
    g = 0
    for a in gens:
        g = math.gcd(g, a)
    if g != 1:
        raise NotCoprime("semigroup generators must have gcd 1", gcd=g)
    bvs = [BranchVector.monomial(field, 1, 0, a) for a in gens]
    return build_ring(field, 1, bvs, **kw)


def maximal_ideal(ring):
    """The Jacobson radical of a local ring as a rank-one lattice."""
    if not ring.is_local:
        raise NotLocal("maximal ideal needs a local ring")
    field = ring.field
    amb = ring.self_lattice.ambient
    hi = [max(c, 1) for c in ring.conductor]
    ws, ech = ring.self_lattice.span([0] * ring.branches, hi)
    # combinations of the span with zero constant term on every branch
    const_cols = [ws.index[(coord, 0)] for coord in range(amb.ncoords) if (coord, 0) in ws.index]
    rows = ech.basis()
    constraints = []
    for j in const_cols:
        constraints.append([r[j] for r in rows])
    lams = nullspace_F(constraints, len(rows), field)
    ech2 = ws.echelon()
    for lam in lams:
        acc = [field.zero()] * ws.ncols()
        for c, r in zip(lam, rows):
            if c:
                acc = [a + c * b for a, b in zip(acc, r)]
        ech2.add(acc)
    return Lattice._canonicalize(ring, amb, [0] * amb.ncoords, hi, ech2, ws)


def branch_idempotents(ring):
    """The minimal branch subsets whose idempotent lies in the ring."""
    return list(ring.atoms)


def factor(ring, T):
    """The direct factor e_T * R as a ring on the branches of T."""
    T = tuple(sorted(set(T)))
    eT = BranchVector.indicator(ring.field, ring.branches, set(T))
    if not ring.self_lattice.member(tuple(eT.parts)):
        raise NotIdempotentFactor("e_T does not lie in the ring", subset=T)
    field = ring.field
    nb = len(T)
    gens = []
    for bv in ring.scalar_basis():
        gens.append(BranchVector([bv.parts[b] for b in T]))
    for i, b in enumerate(T):
        c = ring.conductor[b]
        for m in range(max(c, 1) + 1):
            gens.append(BranchVector.monomial(field, nb, i, c + m))
    return build_ring(field, nb, gens)


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
    # e(R) = dim E/mE; mE is the product of t^(min val) F[[t]] per branch
    mult = sum(m.lo)
    msq = _ideal_square(ring, m)
    emb = quotient_dimension(m, msq)
    return RingReport(
        multiplicity=mult,
        embedding_dim=emb,
        conductor=ring.conductor,
        is_dvr_product=ring.is_dvr_product(),
        delta=ring.delta(),
        is_local=ring.is_local,
        branches=ring.branches,
    )


def _ideal_square(ring, m):
    gens = m.genset()
    amb = m.ambient
    prods = []
    for i, a in enumerate(gens):
        bv = BranchVector([a[amb.coord(br, 0)] for br in range(ring.branches)])
        for b in gens:
            prods.append(amb.branch_scale(bv, b))
    return Lattice.from_generators(ring, amb, prods)


def normalization_lattice(ring):
    """E = prod F[[t_i]] as an R-lattice (generated by small monomials)."""
    field = ring.field
    amb = ring.self_lattice.ambient
    gens = []
    for br in range(ring.branches):
        for mno in range(max(ring.conductor[br], 1)):
            gens.append(amb.unit_vec(field, br, mno))
    return Lattice.from_generators(ring, amb, gens, known_tail=[0] * ring.branches)
