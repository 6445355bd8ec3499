"""Located crossed-module failures against the direct-expansion oracle.

Every bundled dias, lb and as crossed module is perturbed in one entry of
one tensor (a product of either algebra, an action tensor, or mu), rebuilt
without certification, and its full report compared item by item with
``oracles.xmod_expected_items``: the verdict and the located basis pair or
triple of each morphism, action, equivariance and Peiffer item.  Lie
crossed modules get the same treatment: the identity crossed module of each
bundled Lie algebra, XLiea of each bundled associative crossed module, and
the bundled Lie crossed module.
"""

import random

from diacat import fixtures
from diacat.actions import Action, crossed_module_report
from diacat.algebra import AlgebraMorphism, BilinearMap, make_algebra
from diacat.functors import apply_functor
from diacat.linalg import Matrix

import oracles

SEED = 20261018
PERTURBATIONS = 30

XMOD_NAMES = [name for name, xm in fixtures.by_kind("xmod")
              if xm.flavor in ("dias", "lb", "as")]

SLOTS = {"dias": (("dl_left", "ld_left"), ("dl_right", "ld_right")),
         "lb": (("gq", "qg"),), "as": (("ar", "ra"),), "lie": (("pm", None),)}


def _lie_cases():
    cases = [(name, xm) for name, xm in fixtures.by_kind("xmod")
             if xm.flavor == "lie"]
    cases += [(f"I1' {name}", apply_functor("I1'", alg))
              for name, alg in fixtures.by_kind("algebra")
              if alg.flavor == "lie"]
    cases += [(f"XLiea {name}", apply_functor("XLiea", xm))
              for name, xm in fixtures.by_kind("xmod") if xm.flavor == "as"]
    return cases


def _dense(bmap):
    return [[tuple(int(bmap.pair(i, j).get(k, 0)) for k in range(bmap.out_dim))
             for j in range(bmap.right_dim)] for i in range(bmap.left_dim)]


def _sparse(field, table, right_dim, out_dim):
    return BilinearMap.from_triples(
        field, len(table), right_dim, out_dim,
        [(i, j, k, c) for i, row in enumerate(table)
         for j, cell in enumerate(row) for k, c in enumerate(cell) if c])


def _state(xm):
    """Dense copies of every tensor, keyed by where they live."""
    act = xm.action
    state = {("L", i): _dense(t) for i, t in enumerate(xm.actee.products())}
    state.update({("D", i): _dense(t) for i, t in enumerate(xm.actor.products())})
    state.update({("act", n): _dense(t) for n, t in act.tensors.items()})
    state["mu"] = [list(map(int, xm.mu.matrix.col(l)))
                   for l in range(xm.actee.dim)]
    return state


def _perturb(rng, state, p):
    """Add a nonzero residue to one entry of one nonempty tensor; over Q
    (``p`` None) a small nonzero integer."""
    keys = [k for k, t in state.items() if t and t[0]
            and (k == "mu" or t[0][0])]
    key = rng.choice(sorted(keys, key=repr))
    t = state[key]
    i = rng.randrange(len(t))
    j = rng.randrange(len(t[i]))
    bump = rng.randrange(1, p) if p else rng.choice((-1, 1, 2))
    if key == "mu":
        t[i][j] = oracles._red(p, t[i][j] + bump)
    else:
        k = rng.randrange(len(t[i][j]))
        cell = list(t[i][j])
        cell[k] = oracles._red(p, cell[k] + bump)
        t[i][j] = tuple(cell)


def _rebuild(xm, state):
    f, flavor = xm.actee.field, xm.flavor
    nl, nd = xm.actee.dim, xm.actor.dim
    L = make_algebra(flavor, f, [_sparse(f, state[("L", i)], nl, nl)
                                 for i in range(len(xm.actee.products()))],
                     check=False)
    D = make_algebra(flavor, f, [_sparse(f, state[("D", i)], nd, nd)
                                 for i in range(len(xm.actor.products()))],
                     check=False)
    tensors = {}
    for name, old in xm.action.tensors.items():
        tensors[name] = _sparse(f, state[("act", name)], old.right_dim, nl)
    act = Action(D, L, tensors, check=False)
    mu = AlgebraMorphism(L, D, Matrix(
        f, [[f.of(state["mu"][l][x]) for l in range(nl)] for x in range(nd)],
        nd, nl))
    return mu, act


def _predict(xm, state):
    slots = SLOTS[xm.flavor]
    arity = len(slots)
    return oracles.xmod_expected_items(
        getattr(xm.actee.field, "p", None), xm.flavor,
        [state[("L", i)] for i in range(arity)],
        [state[("D", i)] for i in range(arity)],
        [(state[("act", dl)], state.get(("act", ld))) for dl, ld in slots],
        state["mu"])


def _category(name):
    return name.split(":")[0].split(" ")[0]


def _failing_categories(cases):
    """Compare every perturbed report with the oracle; the categories of
    the items that failed somewhere."""
    failing = set()
    for name, xm in cases:
        rng = random.Random(f"{SEED}:{name}")
        for trial in range(PERTURBATIONS + 1):
            state = _state(xm)
            if trial:
                _perturb(rng, state, getattr(xm.actee.field, "p", None))
            mu, act = _rebuild(xm, state)
            report = crossed_module_report(mu, act)
            got = [(it.passed, it.where) for it in report.items]
            assert got == _predict(xm, state), (name, trial)
            assert report.passed or trial, name
            failing.update(_category(it.name) for it in report.items
                           if not it.passed)
    return failing


def test_located_failures_match_oracle():
    failing = _failing_categories(
        [(name, fixtures.get(name)) for name in XMOD_NAMES])
    # the perturbations reach every kind of item
    assert failing >= {"mu", "action", "equivariance", "peiffer"}, failing


def test_lie_located_failures_match_oracle():
    failing = _failing_categories(_lie_cases())
    assert failing >= {"mu", "action", "equivariance", "peiffer"}, failing
