"""Hom-sets against the exhaustive oracle.

``oracles.algebra_homs`` scans every matrix and expands each product
condition on basis pairs; ``oracles.xmod_homs`` also expands the square and
the equivariances.  ``enumerate_homs`` must give the oracle's list in the
oracle's order (the canonical order is part of its contract), and
``enumerate_xmod_homs`` the oracle's set.

The seeded inputs are:
- abelian algebras of dims 0-3 over F2, F3 and F5, as are the next two;
- 2-step-nilpotent algebras whose last basis vector spans the products,
  so that the column of a morphism there is fixed by slicing;
- the same tables with one entry perturbed, and dense random tables, which
  are not algebras of their flavor: the search solves equations and does
  not rely on axioms (random tables also give the new column singular
  linear systems with a nonzero right side);
- every bundled crossed module, one perturbation of each, and the
  embeddings of the bundled algebras.

The search keeps one list of points per depth, keyed on the earlier
columns that the depth's linear equations read.  Sources with a product
``[e_i, e_i] = e_j + e_k``, j < i < k, make column k read column j but not
column k - 1, so a slot keyed on too little, or on the column before
alone, gives wrong points; into a non-abelian target every column reads
the one before it.  These cases are compared with the oracle in order too,
and the number of affine sets solved is counted where the slots must be
reused.

A depth is determined when one equation fixes its column as a product of
earlier ones (Heisenberg ``[e0, e1] = e2``, ``nil3``, ``[e0, e1] = 2 e2``):
its one point is computed, not solved, and the depth's other equations
checked on it.  These sources go into targets in seeded random bases over
F2, F3 and F5, compared in order, with ``[e0, e1] = [e1, e0] = e2`` for a
second equation that refuses computed points.

The per-prefix linear system of the search, ``_affine_set``, is also
compared with the route it replaced (the matrix from residuals at the unit
vectors, then ``solve`` and ``kernel``) on seeded systems over F2, F3 and
F5, one test per slot of the new column in the bilinear side, so that a
wrong slot is named by the failing test.
"""

import random

import pytest

from diacat import equations, fixtures
from diacat.actions import CrossedModule
from diacat.algebra import (BilinearMap, abelian_algebra, make_algebra,
                            product_arity)
from diacat.equations import _affine_set, _Equation, _residual, _triples
from diacat.fields import GF
from diacat.functors import enumerate_homs, enumerate_xmod_homs
from diacat.linalg import (Matrix, inverse, kernel, solve, unit_vector,
                           vec_scale, vec_sub, vec_zero)
from diacat.tags import FUNCTOR_TAGS, apply_functor, category

import oracles
from test_xmod_oracle import _dense, _perturb, _rebuild, _state

SEED = 20261021
FLAVORS = ("dias", "lb", "as", "lie")
# the largest |F|^(m n) scanned by the oracle per field
SPACE = {2: 512, 3: 729, 5: 625}
PAIRS = 10
# e0 e1 = 2 e0 + e1 into e1 e0 = 2 e0 + e1, one product, over F3: given the
# image of e0, that of e1 solves a singular system with a nonzero right
# side, whose points come in lexicographic order only once the particular
# solution is reduced by the kernel basis
SINGULAR_SLICE = ([[[[0, 0], [2, 1]], [[0, 0], [0, 0]]]],
                  [[[[0, 0], [0, 0]], [[2, 1], [0, 0]]]])


def _zero(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def _central(p, flavor, n, rng):
    """Products of e_0 .. e_{n-2} are multiples of e_{n-1}, which is
    central: valid in every flavor (alternating for lie)."""
    tables = []
    for _ in range(product_arity(flavor)):
        t = _zero(n)
        for i in range(n - 1):
            for j in range(n - 1):
                if flavor == "lie" and j <= i:
                    continue
                c = rng.randrange(p)
                t[i][j][n - 1] = c
                if flavor == "lie":
                    t[j][i][n - 1] = -c % p
        tables.append(t)
    return tables


def _perturbed(p, tables, rng):
    tables = [[[list(cell) for cell in row] for row in t] for t in tables]
    t = rng.choice(tables)
    n = len(t)
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    t[i][j][k] = (t[i][j][k] + rng.randrange(1, p)) % p
    return tables


def _tables(p, flavor, rng):
    out = [[_zero(n) for _ in range(product_arity(flavor))]
           for n in range(4)]
    for n in (2, 3):
        central = _central(p, flavor, n, rng)
        dense = [[[[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                  for _ in range(n)] for _ in range(product_arity(flavor))]
        out += [central, _perturbed(p, central, rng), dense]
    return out


def _algebra(field, flavor, tables):
    n = len(tables[0])
    return make_algebra(flavor, field, [BilinearMap.from_triples(
        field, n, n, n, [(i, j, k, c) for i, row in enumerate(t)
                         for j, cell in enumerate(row)
                         for k, c in enumerate(cell) if c])
        for t in tables], check=False)


def _columns(mat):
    return [list(mat.col(j)) for j in range(mat.cols)]


def test_enumerate_homs_matches_oracle_in_order():
    rng = random.Random(SEED)
    sliced = 0
    for p in SPACE:
        field = GF(p)
        for flavor in FLAVORS:
            tables = _tables(p, flavor, rng)
            pairs = [(s, t) for s in tables for t in tables
                     if p ** (len(s[0]) * len(t[0])) <= SPACE[p]]
            pairs = rng.sample(pairs, PAIRS) + [(tables[0], tables[3]),
                                                (tables[3], tables[0])]
            if p == 3 and flavor in ("lb", "as"):
                pairs.append(SINGULAR_SLICE)
            for src, tgt in pairs:
                m, n = len(src[0]), len(tgt[0])
                want = oracles.algebra_homs(p, src, tgt, m, n)
                got = enumerate_homs(_algebra(field, flavor, src),
                                     _algebra(field, flavor, tgt))
                assert [_columns(h.matrix) for h in got] == want, \
                    (p, flavor, src, tgt)
                sliced += 1 < len(want) < p ** (m * n)
    # many hom-sets are proper subsets of all matrices, with more than zero
    assert sliced >= 20, sliced


def _squares(n, squares):
    """The one lb table of dim n with ``[e_i, e_i] = sum e_outs`` for each
    ``i: outs`` of ``squares``, and no other product: the equation of that
    pair is solved at column max(outs) and reads the other columns of
    ``outs`` only."""
    t = _zero(n)
    for i, outs in squares.items():
        for k in outs:
            t[i][i][k] = 1
    return [t]


# (p, source, target): column 2 reads column 0; the same with
# [e0, e0] = e1 added, which into an abelian target fixes column 1 at zero,
# so that a key on column 1 alone would match across values of column 0;
# column 3 reads column 1.  Each goes into an abelian target, where no other
# equation reads anything, and into [e0, e0] = e1, where every column also
# reads the one before it.
SKIPPING = [(p, _squares(n, squares), tgt)
            for p, n, squares in ((3, 3, {1: (0, 2)}),
                                  (3, 3, {0: (1,), 1: (0, 2)}),
                                  (2, 4, {2: (1, 3)}))
            for tgt in ([_zero(2)], _squares(2, {0: (1,)}))]


@pytest.mark.parametrize("p,src,tgt", SKIPPING,
                         ids=[f"{case}-{tgt}" for case in
                              ("f3-col0", "f3-col0-fixed-col1", "f2-col1")
                              for tgt in ("abelian", "nonabelian")])
def test_slots_follow_the_columns_the_equations_read(p, src, tgt):
    m, n = len(src[0]), len(tgt[0])
    want = oracles.algebra_homs(p, src, tgt, m, n)
    got = enumerate_homs(_algebra(GF(p), "lb", src),
                         _algebra(GF(p), "lb", tgt))
    assert [_columns(h.matrix) for h in got] == want
    assert 1 < len(want) < p ** (m * n), len(want)


def _count_solves(monkeypatch):
    """Record ``(route, len(cols))`` for every affine set the search
    solves, on either route: ``_affine_set`` or ``_determined``."""
    calls = []
    for route in ("_affine_set", "_determined"):
        real = getattr(equations, route)

        def counted(*args, route=route, real=real):
            calls.append((route, len(args[-1])))
            return real(*args)
        monkeypatch.setattr(equations, route, counted)
    return calls


def test_affine_sets_are_solved_once_per_key(monkeypatch):
    """Into an abelian target with no equations, each column's points are
    built once per search: one affine set per column.  With
    ``[e1, e1] = e0 + e2`` into abelian F3^2, column 2 reads column 0 only,
    so its set is solved once for each of the 9 values of column 0 and
    reused while column 1 runs through its 9; that equation fixes column 2,
    so the depth is determined.  In the Heisenberg algebra over F3,
    ``[e0, e1] = e2`` fixes column 2 from columns 0 and 1: computed once
    per (c0, c1), 27 * 27 times, and never reduced as a system."""
    calls = _count_solves(monkeypatch)
    f = GF(3)
    homs = enumerate_homs(abelian_algebra("lb", f, 2),
                          abelian_algebra("lb", f, 3))
    assert len(homs) == 3 ** 6
    assert [k for _, k in calls] == [0, 1]
    calls.clear()
    homs = enumerate_homs(_algebra(f, "lb", _squares(3, {1: (0, 2)})),
                          abelian_algebra("lb", f, 2))
    assert len(homs) == 81
    assert [k for _, k in calls] == [0, 1] + [2] * 9
    assert calls[2:] == [("_determined", 2)] * 9
    calls.clear()
    h = _algebra(f, "lie", [_heisenberg(3)])
    assert len(enumerate_homs(h, h)) == 729
    assert calls == [("_affine_set", 0), ("_affine_set", 1)] \
        + [("_determined", 2)] * 27 ** 2


def _heisenberg(p, c=1):
    """``[e0, e1] = c e2 = -[e1, e0]``."""
    t = _zero(3)
    t[0][1][2], t[1][0][2] = c % p, -c % p
    return t


def _nil3():
    """``e0 e0 = e1``, ``e0 e1 = e2``: columns 1 and 2 are fixed by 0."""
    t = _zero(3)
    t[0][0][1] = t[0][1][2] = 1
    return t


def _symmetric_heisenberg():
    """``[e0, e1] = [e1, e0] = e2``, a Leibniz algebra: column 2 is fixed
    by the first equation, and into a target where [c0, c1] != [c1, c0]
    the second rejects that point."""
    t = _zero(3)
    t[0][1][2] = t[1][0][2] = 1
    return t


def _in_basis(p, t, basis):
    """The table ``t`` rewritten in the basis whose j-th vector is column
    j of the invertible ``basis``."""
    n = len(t)
    inv = [[int(x) for x in r] for r in
           inverse(Matrix(GF(p), basis)).entries]
    out = _zero(n)
    for i in range(n):
        for j in range(n):
            prod = [0] * n
            for a in range(n):
                for b in range(n):
                    ab = basis[a][i] * basis[b][j]
                    for c in range(n):
                        prod[c] += ab * t[a][b][c]
            for d in range(n):
                out[i][j][d] = sum(inv[d][c] * prod[c] for c in range(n)) % p
    return out


def _random_basis(p, n, rng):
    while True:
        basis = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if inverse(Matrix(GF(p), basis)) is not None:
            return basis


def _lie2():
    t = _zero(2)
    t[0][1][1], t[1][0][1] = 1, -1
    return t


def _nil2():
    t = _zero(2)
    t[0][0][1] = 1
    return t


# (name, p, flavor, source, targets): every source has a determined depth;
# the targets are taken in seeded random bases, of dim 3 where the
# oracle's p^9 matrices stay few (F2, F3) and of dim 2 over F5
DETERMINED = [
    ("heisenberg", 2, "lie", _heisenberg(2),
     [_heisenberg(2), _lie2(), _zero(2)]),
    ("nil3", 2, "lb", _nil3(), [_nil3(), _heisenberg(2), _nil2()]),
    ("heisenberg", 3, "lie", _heisenberg(3), [_heisenberg(3), _lie2()]),
    ("heisenberg-2", 3, "lie", _heisenberg(3, 2),
     [_heisenberg(3, 2), _lie2()]),
    ("nil3", 3, "lb", _nil3(), [_nil3(), _nil2()]),
    ("symmetric-heisenberg", 3, "lb", _symmetric_heisenberg(),
     [_heisenberg(3), _lie2()]),
    ("heisenberg", 5, "lie", _heisenberg(5), [_lie2()]),
    ("heisenberg-2", 5, "lie", _heisenberg(5, 2), [_lie2(), _zero(2)]),
    ("nil3", 5, "lb", _nil3(), [_nil2(), _lie2()]),
    ("symmetric-heisenberg", 5, "lb", _symmetric_heisenberg(), [_lie2()]),
]


@pytest.mark.parametrize("name,p,flavor,src,targets", DETERMINED,
                         ids=[f"f{p}-{name}" for name, p, *_ in DETERMINED])
def test_determined_depths_match_oracle_in_order(monkeypatch, name, p, flavor,
                                                 src, targets):
    rng = random.Random(f"{SEED}:determined:{name}:{p}")
    calls = _count_solves(monkeypatch)
    rejected = 0
    counted = equations._determined

    def determined(*args):
        nonlocal rejected
        out = counted(*args)
        rejected += out is None
        return out
    monkeypatch.setattr(equations, "_determined", determined)
    sliced = 0
    for t in targets:
        tgt = _in_basis(p, t, _random_basis(p, len(t), rng))
        want = oracles.algebra_homs(p, [src], [tgt], 3, len(tgt))
        got = enumerate_homs(_algebra(GF(p), flavor, [src]),
                             _algebra(GF(p), flavor, [tgt]))
        assert [_columns(h.matrix) for h in got] == want, (p, src, tgt)
        sliced += 1 < len(want) < p ** (3 * len(tgt))
    assert sliced and ("_determined", 2) in calls
    if name == "symmetric-heisenberg":
        # [c1, c0] = c2 refuses the points [c0, c1] = c2 gives
        assert rejected > 0


def _crossed_modules():
    out = [xm for _name, xm in fixtures.by_kind("xmod")]
    rng = random.Random(SEED)
    for xm in list(out):
        state = _state(xm)
        _perturb(rng, state, xm.actee.field.p)
        out.append(CrossedModule(*_rebuild(xm, state), check=False))
    for _name, alg in fixtures.by_kind("algebra"):
        if getattr(alg.field, "p", None) == 2:
            out += [apply_functor(tag, alg) for tag, fn in FUNCTOR_TAGS.items()
                    if fn.source == category(alg)
                    and fn.target == "X" + fn.source]
    return out


def _oracle_xmod(xm):
    act = xm.action
    return ([_dense(t) for t in xm.actee.products()],
            [_dense(t) for t in xm.actor.products()],
            [(_dense(act.cross(pidx, "DL")),
              None if xm.flavor == "lie" else _dense(act.cross(pidx, "LD")))
             for pidx in range(product_arity(xm.flavor))],
            [list(map(int, xm.mu.matrix.col(j))) for j in range(xm.actee.dim)])


def test_enumerate_xmod_homs_matches_oracle_as_sets(monkeypatch):
    calls = _count_solves(monkeypatch)
    xms = _crossed_modules()
    compared = beyond_zero = 0
    for x in xms:
        for y in xms:
            if x.flavor != y.flavor or 2 ** (x.actor.dim * y.actor.dim
                                             + x.actee.dim * y.actee.dim) > 2 ** 12:
                continue
            want = oracles.xmod_homs(2, x.flavor, _oracle_xmod(x), _oracle_xmod(y))
            got = {(tuple(map(tuple, _columns(h.alpha.matrix))),
                    tuple(map(tuple, _columns(h.beta.matrix))))
                   for h in enumerate_xmod_homs(x, y)}
            assert got == want
            compared += 1
            beyond_zero += len(want) > 1
    # the zero morphism is always there; most pairs have more
    assert compared >= 300 and beyond_zero >= 200, (compared, beyond_zero)
    # an invertible mu' or an actee product fixes some alpha columns
    assert {route for route, _ in calls} == {"_affine_set", "_determined"}


def _reference_affine_set(f, width, equations, cols):
    """The solve/kernel route: M from the residuals at the zero and unit
    vectors, three reductions (solve, kernel, and the span in kernel)."""
    def residuals(c):
        return [x for eq in equations for x in _residual(f, eq, cols + [c])]
    at_zero = residuals(vec_zero(f, width))
    system = Matrix.from_cols(
        f, [vec_sub(f, residuals(unit_vector(f, width, r)), at_zero)
            for r in range(width)], len(at_zero))
    part = solve(system, vec_scale(f, f.neg(f.one()), at_zero))
    if part is None:
        return None
    null = kernel(system)
    return null.reduce(part), null.basis


def _sparse_matrix(rng, f, rows, cols):
    return Matrix(f, [[rng.choice((0, 0, rng.randrange(f.p)))
                       for _ in range(cols)] for _ in range(rows)], rows, cols)


def _system(rng, f, slot):
    """A seeded system for the column after a random prefix: equations
    whose bilinear side has that column on the left, on the right or in
    neither slot, mixed with equations with no bilinear side."""
    widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    k = len(widths)
    widths.append(rng.randint(1, 4))
    cols = [[rng.randrange(f.p) for _ in range(w)] for w in widths[:k]]
    equations = []
    for _ in range(rng.randint(1, 4)):
        rows = rng.randint(1, 3)
        lin = {s: _sparse_matrix(rng, f, rows, widths[s])
               for s in range(k + 1) if rng.random() < 0.5}
        bil = None
        if rng.random() < 0.7:
            u, v = rng.randrange(k), rng.randrange(k)
            u, v = {"left": (k, v), "right": (u, k), "neither": (u, v)}[slot]
            bil = (BilinearMap.from_triples(
                f, widths[u], widths[v], rows,
                [(i, j, r, rng.randrange(1, f.p))
                 for i in range(widths[u]) for j in range(widths[v])
                 for r in range(rows) if rng.random() < 0.4]), u, v)
        if k in lin or (bil and k in bil[1:]):
            equations.append(_Equation(
                {s: _triples(f, m) for s, m in lin.items()}, bil, rows))
    return widths[k], equations, cols


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("slot", ["left", "right", "neither"])
def test_affine_set_matches_the_solve_kernel_route(slot, p):
    f = GF(p)
    rng = random.Random(f"{SEED}:{slot}:{p}")
    outcomes = set()
    for _ in range(150):
        width, equations, cols = _system(rng, f, slot)
        want = _reference_affine_set(f, width, equations, cols)
        got = _affine_set(f, width, equations, cols)
        if want is None:
            assert got is None, (width, equations, cols)
            outcomes.add("inconsistent")
            continue
        assert got is not None, (width, equations, cols)
        part, basis = got
        assert part == list(want[0]), (width, equations, cols)
        assert [list(b) for b in basis] == [list(b) for b in want[1]], \
            (width, equations, cols)
        outcomes.add("free" if basis else "unique")
        if any(part):
            outcomes.add("offset")
    assert outcomes == {"inconsistent", "free", "unique", "offset"}, outcomes
