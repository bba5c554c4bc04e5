"""Exact coefficient fields: the rationals and prime fields GF(p).

Over QQ a coefficient is an ``int`` until a quotient is not integral, then a
``fractions.Fraction`` (the two compare, hash and print alike); over GF(p) it
is an ``int`` in [1, p).  ``FieldSpec`` carries ``coerce`` and ``div``, the
only coefficient division (``int / int`` is a float), so the rest of the code
never branches on the field kind.

Arithmetic combines raw values: a GF(p) sum or product is left unreduced
until ``clean`` reduces a whole {key: value} dict mod p and drops its zeros,
once per echelon row or Laurent polynomial.  ``monic`` scales a row by the
inverse of its lead, one modular inverse per row (``_inverse``, the only one
in the package).
"""

from fractions import Fraction

from .errors import SchemaError


# The first 13 primes decide Miller-Rabin deterministically below
# 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; SchemaError where it is not proven."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        raise SchemaError("characteristic too large to certify as prime", p=n, bound=_MR_BOUND)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def json_int(x, what):
    """An integer read from JSON (bool and float are rejected)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"{what} must be an integer", value=repr(x))
    return x


class FieldSpec:
    """The coefficient field, 'rational' (char 0) or 'prime' (GF(p)); QQ
    coefficients are ``int`` until ``div`` (the only division) leaves ZZ."""

    __slots__ = ("kind", "characteristic")

    def __init__(self, kind="rational", characteristic=0):
        if kind not in ("rational", "prime"):
            raise SchemaError(f"unknown field kind {kind!r}")
        if kind == "rational":
            characteristic = 0
        elif not _is_prime(characteristic):
            raise SchemaError(f"characteristic {characteristic} is not prime")
        self.kind = kind
        self.characteristic = characteristic

    # -- arithmetic ----------------------------------------------------------

    def div(self, a, b):
        """The quotient a / b; over QQ an int whenever it is integral."""
        if self.kind == "rational":
            q = Fraction(a, b)
            return q.numerator if q.denominator == 1 else q
        return a * self._inverse(b) % self.characteristic

    def _inverse(self, x):
        """The inverse of x in GF(p), x any int."""
        if x % self.characteristic == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return pow(x, -1, self.characteristic)

    def clean(self, row):
        """A dict {key: raw value} with its values reduced and zeros dropped."""
        p = self.characteristic
        if not p:
            return {j: x for j, x in row.items() if x}
        return {j: y for j, x in row.items() if (y := x % p)}

    def monic(self, row, lead):
        """The row row / lead, for a nonzero coefficient lead."""
        p = self.characteristic
        if not p:
            return {j: self.div(x, lead) for j, x in row.items()}
        inv = self._inverse(lead)
        return {j: x * inv % p for j, x in row.items()}

    def coerce(self, x):
        """Coerce an int (not a bool), a Fraction over QQ or a 'p/q' string."""
        p = self.characteristic
        if type(x) is int:
            return x % p if p else x
        if not p and isinstance(x, Fraction):
            return self.div(x, 1)
        if isinstance(x, str):
            try:
                if not p:
                    return self.div(Fraction(x), 1)
                num, _, den = x.partition("/")
                return self.div(int(num), int(den or "1"))
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"malformed coefficient {x!r} for {self}") from None
        raise SchemaError(f"cannot coerce {x!r} into {self}")

    def format(self, c):
        """Render a coefficient as a decimal string (rationals as 'p/q')."""
        return str(c)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        if self.kind == "rational":
            return "QQ"
        return f"GF({self.characteristic})"

    def as_json(self):
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.characteristic}


QQ = FieldSpec("rational")


def field_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("field must be {'kind': 'rational'} or {'kind': 'prime', 'p': ...}")
    if obj["kind"] == "rational":
        return FieldSpec("rational")
    if obj["kind"] == "prime":
        return FieldSpec("prime", json_int(obj.get("p", 0), "field p"))
    raise SchemaError(f"unknown field kind {obj['kind']!r}")
