"""Exact linear algebra: echelon forms over the coefficient field and
Gaussian elimination over the rational function field F(t) per branch.

The field-level ``Echelon`` is the workhorse behind every window
computation; it maintains fully reduced rows (RREF) so that bases are
canonical and membership residues are linear.  A row is sparse, a dict
{column: nonzero kernel entry} (``FieldSpec.entry``: the coefficient over
QQ, an int in [1, p) over GF(p)), and the basis rows are indexed by pivot.
A basis row is zero at every other pivot, so the residue of a row is the
row minus, for each pivot in its support, its entry there times that basis
row: one pass over the row's own pivot columns.  The field supplies the
row operations (``clean``, ``monic``), so ``Echelon`` never branches on the
field kind.
"""

from .series import LaurentPoly, poly_gcd, laurent_exact_div


class Echelon:
    """A subspace of F^ncols kept in reduced row echelon form.

    ``by_pivot`` maps each pivot column to its basis row, whose entry there
    is 1.  A basis row is replaced, never mutated, and callers must not
    mutate the rows they read from ``rows``."""

    __slots__ = ("field", "ncols", "by_pivot")

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.by_pivot = {}

    @property
    def rows(self):
        """The canonical RREF basis rows, in pivot order."""
        by_pivot = self.by_pivot
        return [by_pivot[p] for p in sorted(by_pivot)]

    def rank(self):
        return len(self.by_pivot)

    def residue(self, row):
        """Reduce a row against the basis; the result is canonical."""
        by_pivot = self.by_pivot
        out = dict(row)
        hits = [(p, c) for p, c in row.items() if p in by_pivot]
        if not hits:
            return out
        for p, c in hits:
            for j, b in by_pivot[p].items():
                out[j] = out.get(j, 0) - c * b
        return self.field.clean(out)

    def add(self, row):
        """Insert the span of ``row``; returns True if the rank grew."""
        row = self.residue(row)
        if not row:
            return False
        p = min(row)
        lead = row[p]
        if lead != 1:
            row = self.field.monic(row, lead)
        # keep existing rows fully reduced against the new pivot
        by_pivot = self.by_pivot
        for q, r in by_pivot.items():
            c = r.get(p)
            if c:
                out = dict(r)
                for j, b in row.items():
                    out[j] = out.get(j, 0) - c * b
                by_pivot[q] = self.field.clean(out)
        by_pivot[p] = row
        return True

    def add_many(self, rows):
        for row in rows:
            self.add(row)

    def contains(self, row):
        return not self.residue(row)

    def contains_space(self, other):
        return all(self.contains(r) for r in other.by_pivot.values())

    def __eq__(self, other):
        return (
            isinstance(other, Echelon)
            and self.ncols == other.ncols
            and self.by_pivot == other.by_pivot
        )


def nullspace_F(constraint_rows, ncols, field):
    """Basis of {x in F^ncols : A x = 0} for kernel rows A (sparse dicts);
    one kernel row per free column, in column order."""
    ech = Echelon(field, ncols)
    ech.add_many(constraint_rows)
    basis = []
    for f in range(ncols):
        if f in ech.by_pivot:
            continue
        x = {f: 1}
        for p, r in ech.by_pivot.items():
            if f in r:
                x[p] = -r[f]
        basis.append(field.clean(x))
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
