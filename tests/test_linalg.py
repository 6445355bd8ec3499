import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diacat.errors import DimensionMismatch, ParseError
from diacat.fields import GF, PRIME_BOUND, QQ, PrimeField, _is_prime
from diacat.linalg import (Matrix, QuotientMap, Subspace, inverse, kernel,
                           rref, solve, vec_eq, vec_is_zero)

F2 = GF(2)
F5 = GF(5)


def _mat(field, rows):
    return Matrix(field, [[field.parse(str(x)) for x in r] for r in rows])


def test_field_parse_and_format():
    assert QQ.format(QQ.parse("3/7")) == "3/7"
    assert QQ.format(QQ.parse("5")) == "5"
    assert F5.parse("-2") == 3
    with pytest.raises(ParseError):
        QQ.parse("1/0")
    with pytest.raises(ParseError):
        F2.parse("x")


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_matches_trial_division_and_refuses_pseudoprimes():
    assert all(_is_prime(n) == _is_prime_by_trial_division(n)
               for n in range(-2, 20000))
    # strong pseudoprimes to the first 4, 9 and 12 prime bases: the last
    # is composite (it is 399165290221 * 798330580441), and only the
    # thirteenth base, 41, tells it from a prime
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n), n
    assert 318665857834031151167461 == 399165290221 * 798330580441
    for p in (2 ** 61 - 1, 3317044064679887385961813):
        assert PrimeField(p).p == p
    for p in (PRIME_BOUND, 2 ** 89 - 1):    # 2^89 - 1 is prime
        with pytest.raises(ValueError):
            PrimeField(p)


def test_rref_fixed_example():
    m = _mat(QQ, [[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, rank = rref(m)
    assert rank == 2
    assert list(r.row(0)) == [QQ.parse("1"), QQ.parse("0"), QQ.parse("-1")]
    assert list(r.row(1)) == [QQ.parse("0"), QQ.parse("1"), QQ.parse("2")]


def test_solve_and_kernel_fixed():
    m = _mat(F2, [[1, 1, 0], [0, 1, 1]])
    x = solve(m, [F2.one(), F2.one()])
    assert x is not None
    assert vec_eq(F2, m.mul_vec(x), [F2.one(), F2.one()])
    k = kernel(m)
    assert k.dim == 1
    assert vec_eq(F2, list(k.basis[0]), [F2.one(), F2.one(), F2.one()])


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    m = _mat(GF(3), [[1]])
    for b in ([], [1, 1]):
        with pytest.raises(DimensionMismatch):
            solve(m, b)


def test_from_cols_rejects_a_column_of_the_wrong_length():
    f = GF(3)
    for cols in ([[1, 2, 0], [1, 1]], [[1, 2], [1]]):
        with pytest.raises(DimensionMismatch):
            Matrix.from_cols(f, cols, 2)
    m = Matrix.from_cols(f, [[1, 2], [0, 1], [2, 2]], 2)
    assert (m.rows, m.cols) == (2, 3)
    assert m.entries == ((1, 0, 2), (2, 1, 2))
    assert Matrix.from_cols(f, [], 2).entries == ((), ())


def test_matrix_rejects_a_row_count_that_disagrees_with_its_rows():
    with pytest.raises(DimensionMismatch):
        Matrix(F2, [[1, 0]], 3, 2)
    with pytest.raises(DimensionMismatch):
        Matrix(F2, [], 1, 0)
    assert Matrix(F2, [[1, 0]], 1, 2).col(0) == [1]


def test_inverse_and_singular():
    m = _mat(QQ, [[2, 1], [1, 1]])
    mi = inverse(m)
    assert mi.mul(m) == Matrix.identity(QQ, 2)
    assert inverse(_mat(QQ, [[1, 2], [2, 4]])) is None


def test_subspace_equality_is_structural():
    a = Subspace.span(QQ, [[QQ.parse("1"), QQ.parse("1")]], 2)
    b = Subspace.span(QQ, [[QQ.parse("2"), QQ.parse("2")]], 2)
    assert a == b
    assert a.is_subspace_of(Subspace.full(QQ, 2))


def test_quotient_map_section_splits_projection():
    sub = Subspace.span(F2, [[F2.one(), F2.one(), F2.zero()]], 3)
    qm = QuotientMap(3, sub)
    assert qm.dim == 2
    # projection . section = identity on the quotient
    assert qm.project.mul(qm.section) == Matrix.identity(F2, 2)
    # the section misses the subspace
    for j in range(qm.dim):
        assert not sub.contains(qm.section.col(j))


_f5_scalar = st.integers(min_value=0, max_value=4)


@st.composite
def _f5_matrix(draw, max_dim=3):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    ents = draw(st.lists(st.lists(_f5_scalar, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return Matrix(F5, ents)


@settings(max_examples=60, derandomize=True)
@given(_f5_matrix())
def test_kernel_vectors_annihilate(m):
    k = kernel(m)
    assert k.dim >= m.cols - m.rows
    for v in k.basis:
        assert vec_is_zero(F5, m.mul_vec(list(v)))


@settings(max_examples=60, derandomize=True)
@given(_f5_matrix(), st.lists(_f5_scalar, min_size=3, max_size=3))
def test_solve_is_sound(m, b):
    b = b[: m.rows]
    while len(b) < m.rows:
        b.append(0)
    x = solve(m, b)
    if x is not None:
        assert vec_eq(F5, m.mul_vec(x), b)
    else:
        # b must lie outside the column span
        from diacat.linalg import image
        assert not image(m).contains(b)


@settings(max_examples=40, derandomize=True)
@given(_f5_matrix())
def test_rref_is_idempotent(m):
    r, _ = rref(m)
    r2, _ = rref(r)
    assert r == r2


@settings(max_examples=40, derandomize=True)
@given(_f5_matrix())
def test_rank_nullity(m):
    from diacat.linalg import image
    assert image(m).dim + kernel(m).dim == m.cols


@settings(max_examples=60, derandomize=True)
@given(_f5_matrix(), _f5_matrix())
def test_matrix_product_matches_numpy(a, b):
    # numpy integer matmul is exact at these sizes, so it is a fair oracle;
    # numpy is imported with the module, outside each example's deadline
    if a.cols != b.rows:
        b = Matrix(F5, [[F5.one() if i == j else F5.zero()
                         for j in range(a.cols)] for i in range(a.cols)])
    ours = a.mul(b)
    theirs = (np.array([[int(x) for x in a.row(i)] for i in range(a.rows)],
                       dtype=np.int64)
              @ np.array([[int(x) for x in b.row(i)] for i in range(b.rows)],
                         dtype=np.int64)) % 5
    for i in range(ours.rows):
        for j in range(ours.cols):
            assert int(ours.row(i)[j]) == theirs[i][j]


@settings(max_examples=60, derandomize=True)
@given(_f5_matrix(), st.lists(_f5_scalar, min_size=3, max_size=3))
def test_mul_vec_takes_a_sparse_vector(m, v):
    v = (v + [0] * m.cols)[:m.cols]
    assert m.mul_vec({j: c for j, c in enumerate(v) if c}) == m.mul_vec(v)
    assert m.mul_vec({}) == m.mul_vec([0] * m.cols) == [F5.zero()] * m.rows
    for bad in (v[:-1], v + [0]):
        with pytest.raises(DimensionMismatch):
            m.mul_vec(bad)
