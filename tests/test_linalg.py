import random
from fractions import Fraction

from endochain.field import QQ, FieldSpec
from endochain.series import LaurentPoly
from endochain.linalg import Echelon, nullspace_F, RatFun, poly_nullspace, poly_matrix_rank


def F(x):
    return Fraction(x)


def test_echelon_rank_and_membership():
    e = Echelon(QQ, 3)
    assert e.add([F(1), F(2), F(3)])
    assert e.add([F(0), F(1), F(1)])
    assert not e.add([F(1), F(3), F(4)])  # dependent
    assert e.rank() == 2
    assert e.contains([F(2), F(5), F(7)])
    assert not e.contains([F(0), F(0), F(1)])


def test_echelon_rref_is_canonical():
    rows1 = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    rows2 = [[F(2), F(5), F(7)], [F(1), F(3), F(4)]]
    e1 = Echelon(QQ, 3)
    e1.add_many(rows1)
    e2 = Echelon(QQ, 3)
    e2.add_many(rows2)
    assert e1.basis() == e2.basis()


def test_echelon_residue_linear():
    rng = random.Random(3)
    e = Echelon(QQ, 5)
    for _ in range(3):
        e.add([F(rng.randint(-3, 3)) for _ in range(5)])
    x = [F(rng.randint(-3, 3)) for _ in range(5)]
    y = [F(rng.randint(-3, 3)) for _ in range(5)]
    rx = e.residue(x)
    ry = e.residue(y)
    rxy = e.residue([a + b for a, b in zip(x, y)])
    assert rxy == [a + b for a, b in zip(rx, ry)]


def test_nullspace_F():
    rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    basis = nullspace_F(rows, 3, QQ)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v[1] + v[2] == 0


def test_nullspace_full_rank():
    rows = [[F(1), F(0)], [F(0), F(1)]]
    assert nullspace_F(rows, 2, QQ) == []


def test_ratfun_normalization():
    t = LaurentPoly.monomial(QQ, 1)
    one = LaurentPoly.one(QQ)
    # (t^2 - t) / (t) normalizes to t - 1 over denominator 1
    r = RatFun(t * t - t, t)
    assert r.den == one
    assert r.num == t - one
    # denominators keep valuation zero
    r2 = RatFun(one, t * t + t)
    assert r2.den.valuation() == 0
    assert r2.num.valuation() == -1


def test_ratfun_field_ops():
    t = LaurentPoly.monomial(QQ, 1)
    one = LaurentPoly.one(QQ)
    a = RatFun(one, one + t)
    b = RatFun(t, one - t)
    s = a + b
    # a + b = (1 - t + t + t^2) / (1 - t^2) = (1 + t^2)/(1 - t^2)
    prod = s * (RatFun(one - t) * RatFun(one + t))
    assert prod.num == one + t * t
    q = a * a.inverse()
    assert q.num == one and q.den == one


def test_poly_nullspace_free_coordinate_property():
    t = LaurentPoly.monomial(QQ, 1)
    one = LaurentPoly.one(QQ)
    z = LaurentPoly.zero(QQ)
    # matrix [t^2, -t^2]: kernel = span (1,1)
    rows = [[t * t, -(t * t)]]
    basis = poly_nullspace(rows, 2, QQ)
    assert len(basis) == 1
    vec, free = basis[0]
    assert vec[0] == vec[1]
    # scaling polynomial has t-valuation 0 (den normalized): entry at the
    # free coordinate has valuation 0
    assert vec[free].valuation() == 0


def test_poly_nullspace_with_denominators():
    t = LaurentPoly.monomial(QQ, 1)
    one = LaurentPoly.one(QQ)
    # rows: [1+t, 1] -> kernel spanned by (1, -(1+t))
    rows = [[one + t, one]]
    basis = poly_nullspace(rows, 2, QQ)
    assert len(basis) == 1
    vec, free = basis[0]
    # check the vector really is in the kernel
    acc = rows[0][0] * vec[0] + rows[0][1] * vec[1]
    assert acc.is_zero()
    assert vec[free].valuation() == 0


def test_poly_matrix_rank():
    t = LaurentPoly.monomial(QQ, 1)
    one = LaurentPoly.one(QQ)
    z = LaurentPoly.zero(QQ)
    assert poly_matrix_rank([[one, t], [t, t * t]], 2, QQ) == 1
    assert poly_matrix_rank([[one, t], [t, one]], 2, QQ) == 2
    assert poly_matrix_rank([[z, z]], 2, QQ) == 0


def test_prime_field_echelon():
    F7 = FieldSpec("prime", 7)
    e = Echelon(F7, 2)
    e.add([F7.coerce(3), F7.coerce(5)])
    e.add([F7.coerce(6), F7.coerce(10)])
    assert e.rank() == 1
    assert e.contains([F7.coerce(6), F7.coerce(3)])
