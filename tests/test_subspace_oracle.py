"""The subspace core against plain dense elimination.

Seeded subspaces over F2, F3, F5 and Q, among them the zero and the full
subspace of each ambient, and seeded matrices for ``kernel``.  The
reference is a Gauss-Jordan elimination kept here: ``reduce`` eliminates
the vector along the reference basis, ``coords`` solves for the basis
coefficients, ``QuotientMap`` is written out row by row from the pivot
rows, and ``kernel`` reduces the matrix forward, writes one null vector per
free column and reduces those again (the route before one reversed-column
reduction).  Vectors are tried dense and as sparse dicts.

The sparse rows are checked against the span itself: a subspace grown in
any split of its vectors, or as a sum in either order, is the span of all
of them at once, whether the vectors are given dense or sparse.

``rref``, ``solve`` and ``inverse`` share the growth routine of the
subspaces.  They are checked against the reference elimination of the
matrix, of ``[M | b]`` and of ``[M | I]``, on seeded matrices with zero
rows and zero columns, of every shape up to 5 x 6, square singular ones
among them, and on right-hand sides with and without a solution.
"""

import random
from fractions import Fraction

import pytest

from diacat.errors import DimensionMismatch
from diacat.fields import GF, QQ
from diacat.linalg import (Matrix, QuotientMap, Subspace, inverse, kernel,
                           rref, solve, unit_vector, vec_zero)

SEED = 20261018
FIELDS = (GF(2), GF(3), GF(5), QQ)


def _scalar(f, rng):
    if f is QQ:
        return Fraction(rng.choice((-3, -1, 0, 0, 1, 2)), rng.choice((1, 2, 3)))
    return rng.choice((0, 0, rng.randrange(f.p)))


def _eliminate(f, rows, ncols):
    """Gauss-Jordan on copies of ``rows`` with pivots in the first
    ``ncols`` columns: (all rows, nonzero rows first; pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        hit = [i for i in range(top, len(rows)) if not f.is_zero(rows[i][col])]
        if not hit:
            continue
        rows[top], rows[hit[0]] = rows[hit[0]], rows[top]
        inv = f.inv(rows[top][col])
        rows[top] = [f.mul(inv, a) for a in rows[top]]
        for i, row in enumerate(rows):
            c = row[col]
            if i != top and not f.is_zero(c):
                rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(row, rows[top])]
        pivots.append(col)
    return rows, pivots


def _reduce(f, basis, pivots, v):
    v = list(v)
    for row, p in zip(basis, pivots):
        c = v[p]
        v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
    return v


def _coords(f, basis, v):
    """Coefficients c with sum c_i basis_i = v, by eliminating the system
    whose columns are the basis vectors and v, or None."""
    d = len(basis)
    system = [[row[k] for row in basis] + [v[k]] for k in range(len(v))]
    rows, pivots = _eliminate(f, system, d)
    if any(not f.is_zero(row[d]) for row in rows[len(pivots):]):
        return None
    return [row[d] for row in rows[:d]]


def _projection(f, n, basis, pivots):
    free = [c for c in range(n) if c not in pivots]
    rows = []
    for c in free:
        row = vec_zero(f, n)
        row[c] = f.one()
        for prow, p in zip(basis, pivots):
            row[p] = f.neg(prow[c])
        rows.append(row)
    return free, rows


def _kernel_by_two_reductions(f, m):
    rows, pivots = _eliminate(f, m.entries, m.cols)
    vecs = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = vec_zero(f, m.cols)
        v[fc] = f.one()
        for row, pc in zip(rows, pivots):
            v[pc] = f.neg(row[fc])
        vecs.append(v)
    rows, pivots = _eliminate(f, vecs, m.cols)
    return rows[:len(pivots)], pivots


def _generators(f, n, rng):
    """Generator lists for subspaces of f^n: none, the unit vectors, and
    seeded vectors with dependent ones mixed in."""
    yield []
    yield [unit_vector(f, n, i) for i in range(n)]
    for _ in range(10):
        gens = [[_scalar(f, rng) for _ in range(n)]
                for _ in range(rng.randint(1, n + 1))]
        if len(gens) > 1:
            a, b = rng.sample(gens, 2)
            t = _scalar(f, rng)
            gens.append([f.add(x, f.mul(t, y)) for x, y in zip(a, b)])
        yield gens


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_subspace_core_matches_dense_elimination(f):
    rng = random.Random(f"{SEED}:{f}")
    kinds, members = set(), set()
    for n in range(7):
        for gens in _generators(f, n, rng):
            s = Subspace.span(f, gens, n)
            rows, pivots = _eliminate(f, gens, n)
            basis = rows[:len(pivots)]
            assert [list(r) for r in s.basis] == basis
            assert list(s.pivots) == pivots
            kinds.add(("zero" if s.dim == 0 else "full" if s.dim == n
                       else "proper"))
            qm = QuotientMap(n, s)
            free, proj_rows = _projection(f, n, basis, pivots)
            assert qm.section_cols == free
            assert [list(r) for r in qm.project.entries] == proj_rows
            assert qm.section == Matrix.from_cols(
                f, [unit_vector(f, n, c) for c in free], n)
            inside = [f.zero()] * n
            for row in basis:
                t = _scalar(f, rng)
                inside = [f.add(a, f.mul(t, b)) for a, b in zip(inside, row)]
            tries = [[_scalar(f, rng) for _ in range(n)] for _ in range(4)]
            for v in tries + [inside]:
                want = _reduce(f, basis, pivots, v)
                sparse = {k: a for k, a in enumerate(v) if not f.is_zero(a)}
                assert s.reduce(v) == want
                assert s.reduce(sparse) == want
                member = all(f.is_zero(a) for a in want)
                members.add(member)
                assert s.contains(v) == s.contains(sparse) == member
                assert s.coords(v) == _coords(f, basis, v)
                assert qm.project.mul_vec(v) == [want[c] for c in free]
            assert s.contains(inside)
    assert kinds == {"zero", "full", "proper"} and members == {True, False}


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_kernel_matches_the_two_reduction_route(f):
    rng = random.Random(f"{SEED}:kernel:{f}")
    nullities = set()
    for _ in range(60):
        r, c = rng.randint(0, 4), rng.randint(0, 5)
        m = Matrix(f, [[_scalar(f, rng) for _ in range(c)] for _ in range(r)],
                   r, c)
        basis, pivots = _kernel_by_two_reductions(f, m)
        k = kernel(m)
        assert [list(b) for b in k.basis] == basis
        assert list(k.pivots) == pivots
        assert k == Subspace.span(f, basis, c)
        nullities.add(min(k.dim, 2))
    assert nullities == {0, 1, 2}


def _sparse(f, v):
    return {k: a for k, a in enumerate(v) if not f.is_zero(a)}


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_sparse_rows_grow_to_the_span_of_all_vectors(f):
    rng = random.Random(f"{SEED}:grow:{f}")
    splits = set()
    for n in range(7):
        for gens in _generators(f, n, rng):
            s = Subspace.span(f, gens, n)
            # one sparse row per pivot, 1 there and no zero coefficient;
            # ``basis`` is the same rows dense
            assert len(s.rows) == len(s.pivots) == s.dim
            assert all(r[p] == f.one() for p, r in zip(s.pivots, s.rows))
            assert not any(f.is_zero(a) for r in s.rows for a in r.values())
            assert s.basis == tuple(tuple(r.get(c, f.zero()) for c in range(n))
                                    for r in s.rows)
            sparse = Subspace.span(f, [_sparse(f, v) for v in gens], n)
            assert sparse == s and hash(sparse) == hash(s)
            # grown chunk by chunk, chunks dense or sparse at random
            cuts = sorted(rng.randint(0, len(gens)) for _ in range(2))
            chunks = [gens[:cuts[0]], gens[cuts[0]:cuts[1]], gens[cuts[1]:]]
            grown = Subspace.zero(f, n)
            for chunk in chunks:
                if rng.random() < 0.5:
                    chunk = [_sparse(f, v) for v in chunk]
                grown = grown.extended(chunk)
            assert grown == s and hash(grown) == hash(s)
            a = Subspace.span(f, gens[:cuts[0]], n)
            b = Subspace.span(f, gens[cuts[0]:], n)
            assert a.add(b) == b.add(a) == s
            splits.add(min(a.dim, b.dim, 1))
            for length in {n + 1, max(n - 1, 0)} - {n}:
                with pytest.raises(DimensionMismatch):
                    Subspace.span(f, gens + [[f.zero()] * length], n)
    # both parts of some split are nonzero
    assert splits == {0, 1}


def _matrices(f, rng, count):
    """Seeded matrices up to 5 x 6, two in five of them square: some with
    a zero row, a zero column or a row that is a combination of two
    others."""
    for _ in range(count):
        r, c = rng.randint(0, 5), rng.randint(0, 6)
        if rng.random() < 0.4:
            c = r
        rows = [[_scalar(f, rng) for _ in range(c)] for _ in range(r)]
        if r and rng.random() < 0.3:
            rows[rng.randrange(r)] = [f.zero()] * c
        if c and rng.random() < 0.3:
            j = rng.randrange(c)
            for row in rows:
                row[j] = f.zero()
        if r > 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            t = _scalar(f, rng)
            rows[rng.randrange(r)] = [f.add(x, f.mul(t, y))
                                      for x, y in zip(a, b)]
        yield Matrix(f, rows, r, c)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_rref_matches_dense_elimination(f):
    rng = random.Random(f"{SEED}:rref:{f}")
    ranks = set()
    for m in _matrices(f, rng, 120):
        rows, pivots = _eliminate(f, m.entries, m.cols)
        r, rank = rref(m)
        assert (r.rows, r.cols) == (m.rows, m.cols)
        assert [list(row) for row in r.entries] == rows
        assert rank == len(pivots) == m.rank()
        ranks.add("zero" if rank == 0 else
                  "full" if rank == min(m.rows, m.cols) else "deficient")
    assert ranks == {"zero", "full", "deficient"}


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_solve_matches_dense_elimination(f):
    rng = random.Random(f"{SEED}:solve:{f}")
    solvable = set()
    for m in _matrices(f, rng, 120):
        if rng.random() < 0.5:
            b = m.mul_vec([_scalar(f, rng) for _ in range(m.cols)])
        else:
            b = [_scalar(f, rng) for _ in range(m.rows)]
        rows, pivots = _eliminate(f, [list(row) + [c] for row, c
                                      in zip(m.entries, b)], m.cols + 1)
        x = solve(m, b)
        if pivots and pivots[-1] == m.cols:
            assert x is None
        else:
            want = vec_zero(f, m.cols)
            for row, p in zip(rows, pivots):
                want[p] = row[m.cols]
            assert x == want and m.mul_vec(x) == b
        solvable.add(x is not None)
    assert solvable == {True, False}


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_inverse_matches_dense_elimination(f):
    rng = random.Random(f"{SEED}:inverse:{f}")
    seen = set()
    for m in _matrices(f, rng, 160):
        inv = inverse(m)
        if m.rows != m.cols:
            assert inv is None
            seen.add("non-square")
            continue
        n = m.rows
        rows, pivots = _eliminate(f, [list(row) + unit_vector(f, n, i)
                                      for i, row in enumerate(m.entries)], n)
        if len(pivots) < n:
            assert inv is None
            seen.add("singular")
        else:
            assert [list(row) for row in inv.entries] == [row[n:]
                                                          for row in rows]
            assert m.mul(inv) == Matrix.identity(f, n) == inv.mul(m)
            seen.add("invertible")
    assert seen == {"non-square", "singular", "invertible"}
