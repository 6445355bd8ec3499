"""Hom-sets against the exhaustive oracle.

``oracles.algebra_homs`` scans every matrix and expands each product
condition on basis pairs; ``oracles.xmod_homs`` also expands the square and
the equivariances.  ``enumerate_homs`` must give the oracle's list in the
oracle's order (the canonical order is part of its contract), and
``enumerate_xmod_homs`` the oracle's set.

The seeded inputs are over F2 and F3:
- abelian algebras of dims 0-3;
- 2-step-nilpotent algebras whose last basis vector spans the products,
  so that the column of a morphism there is fixed by slicing;
- the same tables with one entry perturbed, and dense random tables, which
  are not algebras of their flavor: the search solves equations and does
  not rely on axioms (random tables also give the new column singular
  linear systems with a nonzero right side);
- every bundled crossed module, one perturbation of each, and the
  embeddings of the bundled algebras.
"""

import random

from diacat import fixtures
from diacat.actions import CrossedModule
from diacat.algebra import BilinearMap, make_algebra, product_arity
from diacat.fields import GF
from diacat.functors import (FUNCTOR_TAGS, category, embed, enumerate_homs,
                             enumerate_xmod_homs)

import oracles
from test_xmod_oracle import _dense, _perturb, _rebuild, _state

SEED = 20261021
FLAVORS = ("dias", "lb", "as", "lie")
# the largest |F|^(m n) scanned by the oracle per field
SPACE = {2: 512, 3: 729}
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


def _crossed_modules():
    out = [xm for _name, xm in fixtures.by_kind("xmod")]
    rng = random.Random(SEED)
    for xm in list(out):
        state = _state(xm)
        _perturb(rng, state, xm.actee.field.p)
        out.append(CrossedModule(*_rebuild(xm, state), check=False))
    for _name, alg in fixtures.by_kind("algebra"):
        if getattr(alg.field, "p", None) == 2:
            out += [embed(tag, alg) for tag, fn in FUNCTOR_TAGS.items()
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


def test_enumerate_xmod_homs_matches_oracle_as_sets():
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
