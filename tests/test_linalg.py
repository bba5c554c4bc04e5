import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from endochain.field import QQ, FieldSpec
from endochain.series import LaurentPoly
from endochain.linalg import Echelon, nullspace_F, poly_nullspace, poly_matrix_rank
from oracle import DenseEchelon, RatFun, dense_row, kernel_row, ratfun_rref, reference_poly_nullspace


def F(x):
    return Fraction(x)


def K(*dense, field=QQ):
    """The sparse row of a dense list of coefficients."""
    return kernel_row([field.coerce(c) for c in dense])


def test_echelon_rank_and_membership():
    e = Echelon(QQ, 3)
    assert e.add(K(F(1), F(2), F(3)))
    assert e.add(K(F(0), F(1), F(1)))
    assert not e.add(K(F(1), F(3), F(4)))  # dependent
    assert e.rank() == 2
    assert e.contains(K(F(2), F(5), F(7)))
    assert not e.contains(K(F(0), F(0), F(1)))


def test_echelon_rref_is_canonical():
    rows1 = [K(F(1), F(2), F(3)), K(F(0), F(1), F(1))]
    rows2 = [K(F(2), F(5), F(7)), K(F(1), F(3), F(4))]
    e1 = Echelon(QQ, 3)
    e1.add_many(rows1)
    e2 = Echelon(QQ, 3)
    e2.add_many(rows2)
    assert e1.rows == e2.rows


def test_echelon_residue_linear():
    rng = random.Random(3)
    e = Echelon(QQ, 5)
    for _ in range(3):
        e.add(K(*[F(rng.randint(-3, 3)) for _ in range(5)]))
    x = [F(rng.randint(-3, 3)) for _ in range(5)]
    y = [F(rng.randint(-3, 3)) for _ in range(5)]
    rx = dense_row(e.residue(K(*x)), 5)
    ry = dense_row(e.residue(K(*y)), 5)
    rxy = dense_row(e.residue(K(*[a + b for a, b in zip(x, y)])), 5)
    assert rxy == [a + b for a, b in zip(rx, ry)]


def test_nullspace_F():
    rows = [K(F(1), F(1), F(0)), K(F(0), F(1), F(1))]
    basis = nullspace_F(rows, 3, QQ)
    assert len(basis) == 1
    v = dense_row(basis[0], 3)
    assert v[0] + v[1] == 0 and v[1] + v[2] == 0


def test_nullspace_full_rank():
    rows = [K(F(1), F(0)), K(F(0), F(1))]
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
    assert poly_matrix_rank([[one, t], [t, t * t]], 2) == 1
    assert poly_matrix_rank([[one, t], [t, one]], 2) == 2
    assert poly_matrix_rank([[z, z]], 2) == 0


def test_prime_field_echelon():
    F7 = FieldSpec("prime", 7)
    e = Echelon(F7, 2)
    e.add(K(3, 5, field=F7))
    e.add(K(6, 10, field=F7))
    assert e.rank() == 1
    assert e.contains(K(6, 3, field=F7))


_FIELDS = (QQ, FieldSpec("prime", 7), FieldSpec("prime", 32003))


@st.composite
def _matrices(draw):
    """A field, a column count and dense coefficient rows: rational entries
    with denominators up to 4, prime-field entries of any int; zeros are
    frequent, and later rows may be combinations of earlier ones."""
    field = draw(st.sampled_from(_FIELDS))
    ncols = draw(st.integers(1, 7))
    if field.characteristic:
        entry = st.one_of(st.just(0), st.integers(-40000, 40000)).map(field.coerce)
    else:
        entry = st.one_of(st.just(0), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))).map(field.coerce)
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entry)
            rows.append([field.coerce(x + c * y) for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    probes = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=3))
    return field, ncols, rows, probes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_matrices())
def test_sparse_echelon_matches_dense_reference(case):
    # the sparse kernel and the dense reference agree on every add, on the
    # pivots and RREF rows (sparse rows, reduced: ints in [1, p) over
    # GF(p)), on residue and contains of the rows and of probes, and on the
    # nullspace: per free column f, e_f minus r_p[f] e_p over the RREF rows,
    # its keys f first, then the pivots in ``by_pivot`` order
    field, ncols, rows, probes = case
    e, d = Echelon(field, ncols), DenseEchelon(field, ncols)
    for row in rows:
        assert e.add(kernel_row(row)) == d.add(row)
    assert sorted(e.by_pivot) == d.pivots
    assert e.rows == [kernel_row(r) for r in d.rows]
    for row in rows + probes:
        res = e.residue(kernel_row(row))
        assert res == kernel_row(d.residue(row))
        assert dense_row(res, ncols) == d.residue(row)
        assert e.contains(kernel_row(row)) == d.contains(row)
    null = nullspace_F([kernel_row(r) for r in rows], ncols, field)
    free = [f for f in range(ncols) if f not in d.pivots]
    assert len(null) == len(free)
    for x, f in zip(null, free):
        dense = [int(j == f) for j in range(ncols)]
        for r, p in zip(d.rows, d.pivots):
            dense[p] = field.coerce(-r[f])
        assert x == kernel_row(dense)
        assert list(x) == [f] + [p for p, r in e.by_pivot.items() if f in r]


@st.composite
def _laurent_matrices(draw):
    """A field, a column count and LaurentPoly rows: exponents from -2 to 3,
    rational coefficients with denominators up to 3, zero rows, and rows that
    are F[t, 1/t]-combinations of earlier ones, so the rank often drops."""
    field = draw(st.sampled_from(_FIELDS))
    ncols = draw(st.integers(1, 5))
    if field.characteristic:
        coeff = st.integers(-40000, 40000)
    else:
        coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    poly = st.lists(st.tuples(st.integers(-2, 3), coeff), max_size=3).map(
        lambda pairs: LaurentPoly.from_pairs(field, pairs)
    )
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("drawn", "zero", "combination")))
        if kind == "zero":
            rows.append([LaurentPoly.zero(field)] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(poly)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(poly, min_size=ncols, max_size=ncols)))
    return field, ncols, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_laurent_matrices())
def test_fraction_free_kernel_matches_ratfun_reference(case):
    # the fraction-free elimination over F[t, 1/t] gives the rank, the free
    # columns and, rendered coefficient by coefficient, the kernel vectors of
    # the former Gauss-Jordan over F(t)
    field, ncols, rows = case
    got = poly_nullspace(rows, ncols, field)
    want = reference_poly_nullspace(rows, ncols, field)
    assert [f for _, f in got] == [f for _, f in want]
    assert [[e.render() for e in v] for v, _ in got] == [[e.render() for e in v] for v, _ in want]
    assert poly_matrix_rank(rows, ncols) == len(ratfun_rref(rows, ncols, field)[0])

