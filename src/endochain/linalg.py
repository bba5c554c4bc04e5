"""Exact linear algebra: echelon forms over the coefficient field and
Gaussian elimination over the rational function field F(t) per branch.

The field-level ``Echelon`` is the workhorse behind every window
computation; it maintains fully reduced rows (RREF) so that bases are
canonical and membership residues are linear.
"""

import bisect

from .series import LaurentPoly, poly_gcd, laurent_exact_div


class Echelon:
    """A subspace of F^ncols kept in reduced row echelon form."""

    __slots__ = ("field", "ncols", "rows", "pivots")

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def rank(self):
        return len(self.rows)

    def residue(self, row):
        """Reduce a row against the basis; the result is canonical."""
        row = list(row)
        for r, p in zip(self.rows, self.pivots):
            c = row[p]
            if c:
                # r[p] == 1, so this zeroes row[p] exactly
                for j in range(p, self.ncols):
                    rj = r[j]
                    if rj:
                        row[j] = row[j] - c * rj
        return row

    def _first_nonzero(self, row):
        for j, c in enumerate(row):
            if c:
                return j
        return None

    def add(self, row):
        """Insert the span of ``row``; returns True if the rank grew."""
        row = self.residue(row)
        p = self._first_nonzero(row)
        if p is None:
            return False
        div, lead = self.field.div, row[p]
        if lead != self.field.one():
            row = [div(c, lead) if c else c for c in row]
        # keep existing rows fully reduced against the new pivot
        for i, r in enumerate(self.rows):
            c = r[p]
            if c:
                self.rows[i] = [a - c * b for a, b in zip(r, row)]
        where = bisect.bisect_left(self.pivots, p)
        self.rows.insert(where, row)
        self.pivots.insert(where, p)
        return True

    def add_many(self, rows):
        for row in rows:
            self.add(row)

    def contains(self, row):
        return self._first_nonzero(self.residue(row)) is None

    def contains_space(self, other):
        return all(self.contains(r) for r in other.rows)

    def basis(self):
        """The canonical RREF basis rows."""
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, Echelon)
            and self.ncols == other.ncols
            and self.pivots == other.pivots
            and self.rows == other.rows
        )


def nullspace_F(constraint_rows, ncols, field):
    """Basis of {x in F^ncols : A x = 0} for constraint rows A."""
    ech = Echelon(field, ncols)
    ech.add_many(constraint_rows)
    pivot_set = set(ech.pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    one = field.one()
    zero = field.zero()
    for f in free:
        x = [zero] * ncols
        x[f] = one
        for r, p in zip(ech.rows, ech.pivots):
            if r[f]:
                x[p] = -r[f]
        basis.append(x)
    return basis


class RatFun:
    """An element of F(t): num is a LaurentPoly, den a poly with den(0) != 0.

    Keeping the denominator away from t = 0 means every RatFun has a genuine
    t-adic valuation equal to num.valuation(), which downstream valuation
    bounds rely on.
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
                nv = num.valuation()
                num = laurent_exact_div(num, g)
                den = laurent_exact_div(den, g)
            lead = den.coeffs.get(den.degree())
            if lead is not None and lead != field.one():
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

    def __repr__(self):
        if self.den == LaurentPoly.one(self.num.field):
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"


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


def poly_matrix_rank(rows, ncols, field):
    pivots, _ = ratfun_rref(rows, ncols, field)
    return len(pivots)


def poly_nullspace(rows, ncols, field):
    """Nullspace basis of a LaurentPoly matrix over F(t).

    Returns a list of (vector, free_col) where ``vector`` has LaurentPoly
    entries obtained from the RREF basis vector by clearing denominators
    with a polynomial of t-valuation 0.  Consequently, for any x in the
    kernel, x = sum_j (x[free_j] / rho_j) * vector_j with val(x[free_j] /
    rho_j) >= val(x[free_j]).
    """
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
