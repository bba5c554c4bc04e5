"""Exact linear algebra: echelon forms over the coefficient field and
fraction-free elimination over F[t, 1/t] for ranks and kernels over F(t).

The field-level ``Echelon`` is the workhorse behind every window
computation; it maintains fully reduced rows (RREF) so that bases are
canonical and membership residues are linear.  A row is sparse, a dict
{column: nonzero coefficient} (over GF(p) an int in [1, p), as in a
``LaurentPoly``), and the basis rows are indexed by pivot.
A basis row is zero at every other pivot, so the residue of a row is the
row minus, for each pivot in its support, its entry there times that basis
row: one pass over the row's own pivot columns.  The field supplies the
row operations (``clean``, ``monic``), so ``Echelon`` never branches on the
field kind.

A map's matrix per branch has ``LaurentPoly`` entries: ``laurent_rref``
eliminates it over F[t, 1/t] fraction-free (Bareiss), with no gcd per
operation, for ``poly_matrix_rank`` and ``poly_nullspace``.
"""

from .errors import ClaimViolation
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

    def __eq__(self, other):
        return (
            isinstance(other, Echelon)
            and self.ncols == other.ncols
            and self.by_pivot == other.by_pivot
        )


def nullspace_F(constraint_rows, ncols, field):
    """Basis of {x in F^ncols : A x = 0} for rows A (sparse dicts); one
    row per free column f, in column order: e_f minus r_p[f] e_p
    over the basis rows r_p.  A basis row is zero at every other pivot, so
    one pass scatters each of its entries into the row of its free column."""
    ech = Echelon(field, ncols)
    ech.add_many(constraint_rows)
    by_pivot = ech.by_pivot
    free = {f: {f: 1} for f in range(ncols) if f not in by_pivot}
    for p, r in by_pivot.items():
        for j, c in r.items():
            if j != p:
                free[j][p] = -c
    return [field.clean(x) for x in free.values()]


def laurent_rref(rows, ncols):
    """Fraction-free Gauss-Jordan over F[t, 1/t] (Bareiss) of LaurentPoly rows.

    Returns (pivot_cols, reduced): the pivot rows, equal to d times the RREF
    rows over F(t), d the last pivot entry.  Each step takes as pivot the
    first remaining row nonzero in the column and updates every other row,
    earlier pivot rows too, by row <- (p*row - row[c]*pivot_row) / d_prev.
    Every entry is then an exact minor, so the division is exact and no entry
    is ever normalized; an inexact one is a ClaimViolation.
    """
    rows_left = [list(r) for r in rows if any(r)]
    pivot_cols = []
    reduced = []
    d_prev = None
    for col in range(ncols):
        if not rows_left:
            break
        k = next((i for i, r in enumerate(rows_left) if r[col]), None)
        if k is None:
            continue
        pr = rows_left.pop(k)
        p = pr[col]
        for rs in (rows_left, reduced):
            for i, r in enumerate(rs):
                c = r[col]
                out = []
                for a, b in zip(r, pr):
                    e = p * a - c * b if c and b else p * a
                    if d_prev is not None and e:
                        q = laurent_exact_div(e, d_prev)
                        if q is None:
                            raise ClaimViolation("fraction-free elimination: inexact division")
                        e = q
                    out.append(e)
                rs[i] = out
        rows_left = [r for r in rows_left if any(r)]
        reduced.append(pr)
        pivot_cols.append(col)
        d_prev = p
    return pivot_cols, reduced


def poly_matrix_rank(rows, ncols):
    """Rank over F(t) of a matrix given by LaurentPoly rows."""
    return len(laurent_rref(rows, ncols)[0])


def poly_nullspace(rows, ncols, field):
    """Nullspace basis of a LaurentPoly matrix over F(t).

    Returns a list of (vector, free_col), one per free column f of the RREF:
    the primitive vector over F[t, 1/t] of that kernel line whose entry at f
    has t-valuation 0 and leading coefficient 1.  Consequently, for any x in
    the kernel, x = sum_j (x[free_j] / rho_j) * vector_j with rho_j =
    vector_j[free_j] and val(x[free_j] / rho_j) >= val(x[free_j]).
    """
    pivot_cols, reduced = laurent_rref(rows, ncols)
    d = reduced[-1][pivot_cols[-1]] if reduced else LaurentPoly.one(field)
    zero = LaurentPoly.zero(field)
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[f] = d
        for prow, p in zip(reduced, pivot_cols):
            vec[p] = -prow[f]
        # divide out the content: the gcd of the entries, t-powers aside
        g = None
        for e in vec:
            if e:
                e = e.shift(-e.valuation())
                g = e if g is None else poly_gcd(g, e)
        if g.degree() > 0:
            vec = [laurent_exact_div(e, g) for e in vec]
        lead = vec[f]
        v, c = lead.valuation(), lead.coeffs[lead.degree()]
        basis.append(([e.shift(-v).over(c) for e in vec], f))
    return basis
