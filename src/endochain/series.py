"""Exact Laurent polynomials.

Every ring and module element in the engine is built from Laurent
polynomials with exact coefficients (finite support); genuine power series
never appear because all lattices carry explicit conductor tails.  An
element of K = prod_i F((t_i)) is a tuple with one Laurent polynomial per
branch: a vector of the rank-one ``lattice.Ambient``.
"""

import math

from .errors import NotAUnit

INF = math.inf


class LaurentPoly:
    """A Laurent polynomial sum c_e * t^e, stored as {e: c} with no zeros.

    Arithmetic combines raw coefficients and reduces the result once through
    ``FieldSpec.clean``, as an echelon row does: over GF(p) every stored
    coefficient is an int in [1, p)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=None):
        self.field = field
        self.coeffs = field.clean(coeffs) if coeffs else {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def monomial(cls, field, exp, coeff=1):
        return cls(field, {exp: field.coerce(coeff)})

    @classmethod
    def one(cls, field):
        return cls.monomial(field, 0, 1)

    @classmethod
    def from_pairs(cls, field, pairs):
        coeffs = {}
        for e, c in pairs:
            c = field.coerce(c)
            e = int(e)
            cur = coeffs.get(e)
            coeffs[e] = c if cur is None else cur + c
        return cls(field, coeffs)

    # -- queries --------------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def valuation(self):
        """Minimal exponent with nonzero coefficient; +inf for zero."""
        return min(self.coeffs) if self.coeffs else INF

    def degree(self):
        return max(self.coeffs) if self.coeffs else -INF

    def __getitem__(self, e):
        return self.coeffs.get(e, 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return LaurentPoly(self.field, coeffs)

    def __neg__(self):
        return LaurentPoly(self.field, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        coeffs = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                coeffs[e] = coeffs.get(e, 0) + c1 * c2
        return LaurentPoly(self.field, coeffs)

    def scale(self, c):
        c = self.field.coerce(c)
        return LaurentPoly(self.field, {e: c0 * c for e, c0 in self.coeffs.items()})

    def over(self, c):
        """Divide every coefficient by the scalar c."""
        div = self.field.div
        return LaurentPoly(self.field, {e: div(c0, c) for e, c0 in self.coeffs.items()})

    def kernel_terms(self):
        """The (exponent, coefficient) pairs by increasing exponent: the
        column shifts by which it multiplies a window row."""
        return sorted(self.coeffs.items())

    def shift(self, k):
        """Multiply by t^k."""
        res = LaurentPoly(self.field)
        res.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return res

    def truncate(self, hi):
        """Drop all terms with exponent >= hi."""
        res = LaurentPoly(self.field)
        res.coeffs = {e: c for e, c in self.coeffs.items() if e < hi}
        return res

    def invert_unit(self, order):
        """Inverse modulo t^order; requires valuation 0.

        The result is supported on [0, order).
        """
        if self.is_zero() or self.valuation() != 0:
            raise NotAUnit("invert_unit needs valuation 0", valuation=str(self.valuation()))
        field = self.field
        a0 = self.coeffs[0]
        inv = {0: field.div(1, a0)}
        # Solve sum_{j<=e} a_j * b_{e-j} = 0 coefficient by coefficient.
        for e in range(1, order):
            acc = 0
            for j, aj in self.coeffs.items():
                if 0 < j <= e:
                    b = inv.get(e - j)
                    if b is not None:
                        acc = acc + aj * b
            if acc:
                inv[e] = field.div(-acc, a0)
        return LaurentPoly(field, inv)

    # -- rendering ---------------------------------------------------------------

    def __repr__(self):
        return self.render()

    def render(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.field.format(self.coeffs[e])
            if e == 0:
                parts.append(c)
            elif e == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{e}")
        return " + ".join(parts)

    def as_pairs(self):
        return [[e, self.field.format(c)] for e, c in sorted(self.coeffs.items())]


# -- polynomial helpers (nonnegative support) ------------------------------------


def poly_divmod(a, b):
    """Division with remainder of Laurent polynomials with support >= 0."""
    if b.is_zero():
        raise ZeroDivisionError("poly_divmod by zero")
    field = a.field
    db = b.degree()
    lead = b.coeffs[db]
    q = LaurentPoly(field)
    r = a
    while r and r.degree() >= db:
        k = r.degree() - db
        c = field.div(r.coeffs[r.degree()], lead)
        term = LaurentPoly.monomial(field, k, c)
        q = q + term
        r = r - term * b
    return q, r


def poly_gcd(a, b):
    """Monic gcd of two polynomials with support >= 0."""
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        a = a.over(a.coeffs[a.degree()])
    return a


def laurent_exact_div(a, b):
    """Return a/b if b divides a exactly, else None."""
    if a.is_zero():
        return LaurentPoly.zero(a.field)
    va, vb = a.valuation(), b.valuation()
    q, r = poly_divmod(a.shift(-va), b.shift(-vb))
    if r:
        return None
    return q.shift(va - vb)


def series_div_mod(a, b, order):
    """a/b in F[[t]] modulo t^order; requires val(b) <= val(a)."""
    vb = b.valuation()
    if vb is INF:
        raise ZeroDivisionError("series division by zero")
    inv = b.shift(-vb).invert_unit(order + max(0, a.degree() - vb) + 1)
    return (a.shift(-vb) * inv).truncate(order)

