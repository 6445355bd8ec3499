"""Located single-sort failures against the direct triple-loop oracle.

Free dialgebras, tensor algebras and 2-step-nilpotent Leibniz and Lie
algebras over F2, F3 and Q, plus dimensions 0 and 1, are perturbed in one
to three entries of their product tables and rebuilt without
certification.  Each report of ``check_dialgebra``, ``check_leibniz``,
``check_associative`` and ``check_lie`` must equal
``oracles.algebra_expected_items`` item by item: the verdict and the
row-major first violated basis pair or triple.
"""

import random

from diacat.algebra import (BilinearMap, check_associative, check_dialgebra,
                            check_leibniz, check_lie)
from diacat.envelope import free_dialgebra, tensor_algebra
from diacat.fields import GF, QQ

import oracles

SEED = 20261019
PERTURBATIONS = 8

CHECKERS = {"dias": check_dialgebra, "lb": check_leibniz,
            "as": check_associative, "lie": check_lie}
FIELDS = (GF(2), GF(3), QQ)


def _dense(bmap):
    return [[tuple(int(bmap.pair(i, j).get(k, 0)) for k in range(bmap.out_dim))
             for j in range(bmap.right_dim)] for i in range(bmap.left_dim)]


def _sparse(field, table):
    n = len(table)
    return BilinearMap.from_triples(
        field, n, n, n, [(i, j, k, c) for i, row in enumerate(table)
                         for j, cell in enumerate(row)
                         for k, c in enumerate(cell) if c])


def _nilpotent(n, rng, alternating, p):
    """[e_i, e_j] = c e_{n-1} on random pairs below n - 1."""
    table = [[(0,) * n for _ in range(n)] for _ in range(n)]
    for _ in range(n):
        i, j = rng.randrange(n - 1), rng.randrange(n - 1)
        if alternating and i == j:
            continue
        c = rng.randrange(1, p) if p else rng.choice((-2, -1, 1, 3))
        table[i][j] = (0,) * (n - 1) + (c,)
        if alternating:
            table[j][i] = (0,) * (n - 1) + (oracles._red(p, -c),)
    return [table]


def _cases(field, rng):
    """(name, flavor, dense tables) of the valid inputs over ``field``."""
    p = getattr(field, "p", None)
    cases = [(f"dias {g},{b}", "dias",
              [_dense(t) for t in free_dialgebra(field, g, b).products()])
             for g, b in ((1, 3), (2, 2))]
    cases += [(f"as {g},{b}", "as",
               [_dense(tensor_algebra(field, g, b).product)])
              for g, b in ((1, 4), (3, 2))]
    cases += [(f"{flavor} nilpotent", flavor,
               _nilpotent(6, rng, flavor == "lie", p))
              for flavor in ("lb", "lie")]
    cases += [(f"{flavor} dim {n}", flavor,
               [[[(0,) * n] * n for _ in range(n)]] * (2 if flavor == "dias"
                                                      else 1))
              for flavor in CHECKERS for n in (0, 1)]
    return cases


def _perturb(rng, tables, p):
    """Add a nonzero residue (over Q a small integer) to 1-3 entries."""
    tables = [[list(row) for row in t] for t in tables]
    for _ in range(rng.randint(1, 3)):
        t = rng.choice(tables)
        i, j = rng.randrange(len(t)), rng.randrange(len(t))
        cell = list(t[i][j])
        k = rng.randrange(len(cell))
        cell[k] = oracles._red(p, cell[k] + (rng.randrange(1, p) if p
                                             else rng.choice((-1, 1, 2))))
        t[i][j] = tuple(cell)
    return tables


def _shapes(violations):
    """How the failures of each template item are spread over the triples."""
    shapes = set()
    for bad in violations:
        if len(bad) > 1 and len(bad[0]) == 3:
            first_slab = [v for v in bad if v[0] == bad[0][0]]
            shapes.add(("slabs", len({v[0] for v in bad}) > 1))
            shapes.add(("cells", len(first_slab) > 1))
            shapes.add(("late", bad[0] > (0, 0, 0)))
    return shapes


def test_located_failures_match_oracle():
    shapes = set()
    for field in FIELDS:
        p = getattr(field, "p", None)
        rng = random.Random(f"{SEED}:{field}")
        for name, flavor, valid in _cases(field, rng):
            for trial in range(PERTURBATIONS + 1):
                if trial and not valid[0]:
                    break
                tables = _perturb(rng, valid, p) if trial else valid
                report = CHECKERS[flavor](*(_sparse(field, t) for t in tables))
                got = [(it.passed, it.where) for it in report.items]
                assert got == oracles.algebra_expected_items(
                    p, flavor, tables), (field, name, trial)
                assert report.passed or trial, (field, name)
                if trial == 1:
                    shapes |= _shapes(
                        oracles.algebra_violations(p, flavor, tables))
    # some failures span several slabs, several (j, k) of one slab, and
    # start past the first triple
    assert {("slabs", True), ("cells", True), ("late", True)} <= shapes
