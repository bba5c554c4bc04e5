from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from endochain.field import QQ, FieldSpec
from endochain.series import (
    LaurentPoly,
    poly_divmod,
    poly_gcd,
    laurent_exact_div,
    series_div_mod,
    INF,
)
from endochain.errors import NotAUnit


def P(*pairs):
    return LaurentPoly.from_pairs(QQ, pairs)


def test_add_cancellation():
    a = P((2, 1), (3, 1))
    b = P((3, -1))
    assert a + b == P((2, 1))


def test_add_identity():
    z = LaurentPoly.zero(QQ)
    a = P((-1, 1))
    assert z + a == a


def test_add_field_arithmetic():
    assert P((1, 2)) + P((1, 3)) == P((1, 5))


def test_mul_monomials():
    assert P((2, 1)) * P((3, 1)) == P((5, 1))


def test_mul_difference_of_squares():
    one_plus = P((0, 1), (1, 1))
    one_minus = P((0, 1), (1, -1))
    assert one_plus * one_minus == P((0, 1), (2, -1))


def test_mul_zero():
    assert (LaurentPoly.zero(QQ) * P((-5, 1))).is_zero()


def test_valuation():
    assert P((2, 1), (7, 1)).valuation() == 2
    assert LaurentPoly.zero(QQ).valuation() == INF
    assert P((-2, 3)).valuation() == -2


def test_invert_unit_geometric():
    a = P((0, 1), (1, -1))  # 1 - t
    inv = a.invert_unit(3)
    assert inv == P((0, 1), (1, 1), (2, 1))
    assert (a * inv).truncate(3) == P((0, 1))


def test_invert_unit_constant():
    assert P((0, 2)).invert_unit(5) == P((0, Fraction(1, 2)))


def test_invert_unit_rejects_positive_valuation():
    with pytest.raises(NotAUnit):
        P((1, 1)).invert_unit(3)


small_polys = st.builds(
    lambda pairs: LaurentPoly.from_pairs(QQ, pairs),
    st.lists(
        st.tuples(st.integers(min_value=-4, max_value=6), st.integers(min_value=-5, max_value=5)),
        max_size=5,
    ),
)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_polys)
@settings(max_examples=120, deadline=None)
def test_valuation_additive(a, b):
    if not a.is_zero() and not b.is_zero():
        assert (a * b).valuation() == a.valuation() + b.valuation()


@given(small_polys, st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_invert_unit_composes(a, order):
    one = LaurentPoly.one(QQ)
    unit = one + a.shift(max(1, 1 - a.valuation() if not a.is_zero() else 1))
    if unit.valuation() != 0:
        return
    inv = unit.invert_unit(order)
    assert (unit * inv).truncate(order) == one.truncate(order)


def test_poly_divmod_and_gcd():
    a = P((0, -1), (2, 1))  # t^2 - 1
    b = P((0, 1), (1, 1))  # t + 1
    q, r = poly_divmod(a, b)
    assert r.is_zero() and q == P((0, -1), (1, 1))
    g = poly_gcd(a, b)
    assert g == P((0, 1), (1, 1))


def test_laurent_exact_div():
    a = P((-1, 2), (1, 2))
    b = P((-1, 2))
    q = laurent_exact_div(a, b)
    assert q == P((0, 1), (2, 1))
    # division by t is exact in Laurent polynomials; a genuine non-divisor:
    assert laurent_exact_div(P((0, 1), (1, 1)), P((0, 1), (1, -1))) is None


def test_series_div_mod():
    num = P((1, 1))
    den = P((0, 1), (1, -1))  # 1 - t
    q = series_div_mod(num, den, 4)
    assert q == P((1, 1), (2, 1), (3, 1))


def test_prime_field_arithmetic():
    F5 = FieldSpec("prime", 5)
    a = LaurentPoly.from_pairs(F5, [(0, 3)])
    b = LaurentPoly.from_pairs(F5, [(0, 4)])
    assert (a * b) == LaurentPoly.from_pairs(F5, [(0, 2)])
    assert (a + b).is_zero() is False
    assert (a + LaurentPoly.from_pairs(F5, [(0, 2)])).is_zero()


@st.composite
def _zz_pairs(draw):
    """A prime p, integer (exponent, coefficient) pairs for two polynomials,
    with coefficients well outside [0, p) and repeated exponents, and an
    integer scalar."""
    p = draw(st.sampled_from((5, 7, 32003)))
    coeff = st.integers(-3 * p, 3 * p)
    pairs = st.lists(st.tuples(st.integers(-3, 4), coeff), max_size=5)
    return p, draw(pairs), draw(pairs), draw(coeff)


def _mod(p, poly):
    """The coefficients of a QQ polynomial reduced mod p, zeros dropped; its
    denominators must be prime to p."""
    out = {}
    for e, c in poly.coeffs.items():
        c = Fraction(c)
        if x := c.numerator * pow(c.denominator, -1, p) % p:
            out[e] = x
    return out


@given(_zz_pairs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_prime_field_coefficients_are_reduced_ints(case):
    # over GF(p) a coefficient is an int in [1, p): every result holds such
    # ints and equals the same operation over ZZ, reduced mod p (over QQ for
    # ``over`` and ``invert_unit``, whose denominators are powers of c)
    p, xs, ys, c = case
    field = FieldSpec("prime", p)
    a, b = LaurentPoly.from_pairs(field, xs), LaurentPoly.from_pairs(field, ys)
    za, zb = LaurentPoly.from_pairs(QQ, xs), LaurentPoly.from_pairs(QQ, ys)
    got = [(a, za), (b, zb), (a + b, za + zb), (a - b, za - zb), (-a, -za)]
    got += [(a * b, za * zb), (a.scale(c), za.scale(c))]
    if c % p:
        got.append((a.over(c), za.over(c)))
        unit = [(0, c)] + [(e, x) for e, x in xs if e > 0]
        u, zu = LaurentPoly.from_pairs(field, unit), LaurentPoly.from_pairs(QQ, unit)
        got.append((u.invert_unit(6), zu.invert_unit(6)))
    for r, z in got:
        assert all(type(x) is int and 0 < x < p for x in r.coeffs.values()), r.coeffs
        assert r.coeffs == _mod(p, z)


def test_rendering():
    assert P((2, 3), (0, 1)).render() == "1 + 3*t^2"
    assert LaurentPoly.zero(QQ).render() == "0"
