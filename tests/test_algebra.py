import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from diacat import fixtures
from diacat.actions import Action, _semidirect_products, tensor_shape
from diacat.algebra import (FLAVORS, AxiomReport, BilinearMap, LieAlgebra,
                            _check_templates, abelian_algebra,
                            associative_quotient, basis_products,
                            check_dialgebra, check_leibniz, commutator_lie,
                            direct_sum, ideal_closure, induced_subalgebra,
                            is_ideal, lie_quotient, make_algebra,
                            quotient_algebra)
from diacat.envelope import FreeDialgebra, free_dialgebra
from diacat.errors import InvalidAlgebra
from diacat.fields import GF, QQ
from diacat.linalg import Subspace

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
    # the annihilator of [e, f]: e kills every bracket, f does not
    ann = Subspace.span(QQ, [[QQ.one(), QQ.zero()]], 2)
    seed = Subspace.span(QQ, [[QQ.zero(), QQ.one()]], 2)
    assert not any(basis_products(g, ann.rows))
    assert any(basis_products(g, seed.rows))
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


# ---------------------------------------------------------------------------
# sparse storage: rows hold only nonzero cells, cols mirror them

STORAGE_FIELDS = (GF(2), GF(3), QQ)


def _seeded_triples(rng, field, shape, count):
    """Triples in random order, some repeated and some cancelled by a
    later negated copy, over ``shape = (left, right, out)``."""
    out = []
    for _ in range(count):
        i, j, k = (rng.randrange(n) for n in shape)
        c = field.of(rng.randint(-2, 2))
        out.append((i, j, k, c))
        if rng.random() < 0.3:
            out.append((i, j, k, c))
        if rng.random() < 0.3:
            out.append((i, j, k, field.neg(c)))
    rng.shuffle(out)
    return out


def _seeded_map(rng, field, shape):
    count = rng.randint(0, shape[0] * shape[1] * shape[2])
    return BilinearMap.from_triples(field, *shape,
                                    _seeded_triples(rng, field, shape, count))


def _cells(table):
    """{(i, j): cell} of a row- or column-keyed table."""
    return {(a, b): cell for a, line in enumerate(table)
            for b, cell in line.items()}


def _assert_stored_sparsely(m):
    f = m.field
    # one row of nonzero cells per left basis vector, one column per right
    assert len(getattr(m, "rows", ())) == m.left_dim
    assert len(m.cols) == m.right_dim
    for (i, j), cell in _cells(m.rows).items():
        assert cell, (i, j)
        assert not any(f.is_zero(c) for c in cell.values()), (i, j, cell)
    assert _cells(m.rows) == {(i, j): cell for (j, i), cell
                              in _cells(m.cols).items()}


def _dense(m):
    return [[tuple(m.pair(i, j).get(k, 0) for k in range(m.out_dim))
             for j in range(m.right_dim)] for i in range(m.left_dim)]


@pytest.mark.parametrize("field", STORAGE_FIELDS, ids=str)
def test_bilinear_maps_store_only_nonzero_cells(field):
    rng = random.Random(f"storage:{field}")
    for _ in range(40):
        shape = tuple(rng.randint(1, 4) for _ in range(3))
        trip = _seeded_triples(rng, field, shape, rng.randint(0, 12))
        m = BilinearMap.from_triples(field, *shape, trip)
        sums = {}
        for i, j, k, c in trip:
            sums[(i, j, k)] = field.add(sums.get((i, j, k), field.zero()), c)
        assert list(m.triples()) == sorted(
            (i, j, k, c) for (i, j, k), c in sums.items()
            if not field.is_zero(c))
        other = _seeded_map(rng, field, shape)
        for derived in (m, m.negate(), m.subtract(other),
                        other.subtract(m), m.transpose_args()):
            _assert_stored_sparsely(derived)
        assert m.subtract(m) == BilinearMap.zero(field, *shape)
        assert m.subtract(m).is_zero() and not any(m.subtract(m).rows)
        assert m.negate().negate() == m
        assert m.transpose_args().transpose_args() == m
        again = BilinearMap.from_triples(field, *shape,
                                         rng.sample(trip, len(trip)))
        assert again == m and hash(again) == hash(m)
        for i in range(shape[0]):
            for j in range(shape[1]):
                if j not in m.rows[i]:
                    assert m.pair(i, j) == {}


def _seeded_algebra(rng, flavor, field, dim):
    prods = [_seeded_map(rng, field, (dim,) * 3) for _ in FLAVORS[flavor]]
    return make_algebra(flavor, field, prods, check=False)


@pytest.mark.parametrize("flavor", sorted(FLAVORS))
def test_direct_sum_equals_the_block_oracle(flavor):
    rng = random.Random(f"direct-sum:{flavor}")
    for field in STORAGE_FIELDS:
        for _ in range(8):
            a = _seeded_algebra(rng, flavor, field, rng.randint(0, 3))
            b = _seeded_algebra(rng, flavor, field, rng.randint(0, 3))
            s = direct_sum(a, b)
            for pa, pb, ps in zip(a.products(), b.products(), s.products()):
                _assert_stored_sparsely(ps)
                assert _dense(ps) == oracles.block_table(
                    (a.dim, b.dim), {(0, 0): (_dense(pa), 0),
                                     (1, 1): (_dense(pb), 1)})


def _negated_transpose(field, table):
    return [[tuple(field.neg(c) for c in table[i][j])
             for i in range(len(table))] for j in range(len(table[0]))]


@pytest.mark.parametrize("flavor", sorted(FLAVORS))
def test_semidirect_products_equal_the_block_oracle(flavor):
    """Actee block first, actor block second; Lie's missing actee-on-actor
    slot is the negated transpose of the actor-on-actee one."""
    rng = random.Random(f"semidirect:{flavor}")
    for field in STORAGE_FIELDS:
        for _ in range(8):
            actor = _seeded_algebra(rng, flavor, field, rng.randint(1, 3))
            actee = _seeded_algebra(rng, flavor, field, rng.randint(1, 3))
            act = Action(actor, actee, {
                name: _seeded_map(rng, field, tensor_shape(side, actor, actee))
                for p in FLAVORS[flavor]
                for name, side in zip(p.slots, ("DL", "LD")) if name},
                check=False)
            for pidx, (p, ps) in enumerate(zip(FLAVORS[flavor],
                                               _semidirect_products(act))):
                dl = _dense(act.tensors[p.slots[0]])
                ld = (_dense(act.tensors[p.slots[1]]) if p.slots[1]
                      else _negated_transpose(field, dl))
                _assert_stored_sparsely(ps)
                assert _dense(ps) == oracles.block_table(
                    (actee.dim, actor.dim),
                    {(0, 0): (_dense(actee.products()[pidx]), 0),
                     (0, 1): (ld, 0), (1, 0): (dl, 0),
                     (1, 1): (_dense(actor.products()[pidx]), 1)})


def test_free_dialgebra_tables_fit_in_their_nonzero_cells():
    """Building and certifying the free dialgebra on two generators up to
    length 5 (dim 258, 1.9 MiB at peak) costs its nonzero products; a
    dense table of 258 x 258 cells per product peaks near 11 MiB."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        d = FreeDialgebra(GF(2), 2, 5)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.dim == 258
    assert peak < 4 * 2 ** 20, (peak, elapsed)
