import pytest
from hypothesis import given, settings, strategies as st

from diacat import fixtures
from diacat.algebra import (AxiomReport, BilinearMap, LieAlgebra,
                            _check_templates, abelian_algebra,
                            annihilator, associative_quotient, check_dialgebra,
                            check_leibniz, commutator_lie, ideal_closure,
                            induced_subalgebra, is_ideal, lie_quotient,
                            quotient_algebra)
from diacat.envelope import free_dialgebra
from diacat.errors import InvalidAlgebra
from diacat.fields import GF, QQ
from diacat.linalg import span

import oracles

F2 = GF(2)


def test_abelian_all_flavors_pass():
    for flavor in ("dias", "lb", "as", "lie"):
        alg = abelian_algebra(flavor, F2, 2)
        assert alg.check().passed


def test_ffe_is_leibniz_but_not_lie():
    g = fixtures.get("leibniz-ff-e")
    assert g.check().passed
    with pytest.raises(InvalidAlgebra):
        LieAlgebra(QQ, g.bracket, labels=g.labels)


def test_templates_must_be_multilinear():
    """A template that repeats a variable in a product, or compares terms
    in different variables, is refused instead of being misread."""
    prod = BilinearMap.zero(F2, 2)
    for fn in (lambda m, s, x, y, z: (m(0, y, y), m(0, x, z)),
               lambda m, s, x, y, z: (m(0, x, y), m(0, x, z)),
               lambda m, s, x, y, z: (s(m(0, x, y), m(0, x, z)),
                                      m(0, x, y))):
        with pytest.raises(ValueError):
            _check_templates(AxiomReport("t"), [prod],
                             [("t", fn, (range(2),) * 3)])


def test_invalid_dialgebra_is_located():
    bad = fixtures.get("dias-not-assoc-1")
    report = bad.check()
    assert not report.passed
    first = report.first_failure()
    assert first.where == (0, 0, 0)


def test_free_dialgebra_dimensions():
    assert free_dialgebra(QQ, 1, 2).dim == 3
    assert free_dialgebra(QQ, 2, 2).dim == 10
    assert free_dialgebra(F2, 1, 2).labels == ["v0^", "v0^.v0", "v0.v0^"]


def test_bilinear_triples_round_trip():
    g = fixtures.get("leibniz-ff-e")
    trip = list(g.bracket.triples())
    back = BilinearMap.from_triples(QQ, 2, 2, 2, trip)
    assert list(back.triples()) == trip
    assert trip == [(1, 1, 0, QQ.parse("1"))]


def test_leibnization_of_free_dialgebra():
    d = fixtures.get("free-dias-1-2")
    from diacat.functors import apply_functor
    g = apply_functor("LB", d)
    assert g.check().passed
    assert check_leibniz(g.bracket).passed


def test_commutator_lie_of_nilpotent():
    a = fixtures.get("as-nilp-2-q")
    g = commutator_lie(a)
    assert g.check().passed
    assert g.bracket.is_zero()  # commutative algebra


def test_quotients_frozen_dims():
    assert associative_quotient(fixtures.get("free-dias-1-2"))[0].dim == 2
    assert lie_quotient(fixtures.get("leibniz-ff-e"))[0].dim == 1
    assert lie_quotient(fixtures.get("leibniz-ff-e-f2"))[0].dim == 1


def test_annihilator_and_ideal_machinery():
    g = fixtures.get("leibniz-ff-e")
    ann = annihilator(g)
    assert ann.dim == 1 and ann.contains([QQ.one(), QQ.zero()])
    seed = span(QQ, [[QQ.zero(), QQ.one()]], 2)
    closed = ideal_closure(g, seed)
    assert closed.dim == 2  # brackets of f regenerate e
    assert is_ideal(g, closed)
    sub, _ = induced_subalgebra(g, ann)
    assert sub.dim == 1 and sub.bracket.is_zero()
    q, _ = quotient_algebra(g, ann)
    assert q.dim == 1 and q.bracket.is_zero()


def _bm_from_table(field, n, table):
    trip = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[i][j][k] % 2:
                    trip.append((i, j, k, field.one()))
    return BilinearMap.from_triples(field, n, n, n, trip)


_bit = st.integers(min_value=0, max_value=1)


def _table(n):
    cell = st.tuples(*([_bit] * n))
    row = st.tuples(*([cell] * n))
    return st.tuples(*([row] * n))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_table(2), _table(2))
def test_dialgebra_checker_agrees_with_oracle(left, right):
    lib = check_dialgebra(_bm_from_table(F2, 2, left),
                          _bm_from_table(F2, 2, right)).passed
    assert lib == oracles.dias_tables_ok(2, 2, left, right)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_table(2))
def test_leibniz_checker_agrees_with_oracle(table):
    lib = check_leibniz(_bm_from_table(F2, 2, table)).passed
    assert lib == oracles.leibniz_table_ok(2, 2, table)
