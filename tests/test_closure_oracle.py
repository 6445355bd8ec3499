"""Ideal closure, the ideal check and subspace products against direct spans.

Seeded seeds and subspaces in free dialgebras, tensor algebras and
2-step-nilpotent Leibniz and Lie algebras over F2, F3 and Q, plus dimension
0, the zero seed and the full space.  ``ideal_closure`` must equal the
fixpoint of the one-step span (the seed plus its products with every basis
vector on both sides), ``is_ideal`` must hold exactly on the subspaces the
closure leaves unchanged, and ``multiply_subspaces`` must equal the span of
the basis-pair products.  ``quotient_algebra`` must divide by the closure
of its argument, and close each seed of the paper's quotients in one pass,
with no second ideal check.
"""

import hashlib
import json
import random

from diacat import algebra, fixtures
from diacat.algebra import (BilinearMap, abelian_algebra, associative_quotient,
                            ideal_closure, is_ideal, lie_quotient,
                            make_algebra, multiply_subspaces, quotient_algebra)
from diacat.documents import algebra_to_document
from diacat.envelope import (free_dialgebra, tensor_algebra, u_lie, ud,
                             xud_full)
from diacat.fields import GF, QQ
from diacat.linalg import Subspace, unit_vector

SEED = 20261020
SUBSPACES = 12
FIELDS = (GF(2), GF(3), QQ)


def _scalar(field, rng):
    p = getattr(field, "p", None)
    return field.of(rng.randrange(p) if p else rng.choice((-2, -1, 0, 1, 3)))


def _nilpotent(field, flavor, n, rng):
    """Brackets of e_0 .. e_{n-3} land in span{e_{n-2}, e_{n-1}}."""
    triples = []
    for _ in range(n):
        i, j = rng.randrange(n - 2), rng.randrange(n - 2)
        if flavor == "lie" and i == j:
            continue
        for k in (n - 2, n - 1):
            c = _scalar(field, rng)
            triples.append((i, j, k, c))
            if flavor == "lie":
                triples.append((j, i, k, field.neg(c)))
    return make_algebra(flavor, field,
                        [BilinearMap.from_triples(field, n, n, n, triples)])


def _algebras(field, rng):
    out = [free_dialgebra(field, g, b) for g, b in ((1, 3), (2, 2))]
    out += [tensor_algebra(field, g, b) for g, b in ((1, 4), (2, 3))]
    out += [_nilpotent(field, flavor, 6, rng) for flavor in ("lb", "lie")]
    out += [abelian_algebra(flavor, field, 0) for flavor in ("dias", "lb")]
    return out


def _subspaces(alg, rng):
    f, n = alg.field, alg.dim
    out = [Subspace.zero(f, n), Subspace.full(f, n)]
    for _ in range(SUBSPACES):
        k = rng.randint(1, 3)
        density = rng.choice((0.15, 0.4, 1.0))
        vecs = [[_scalar(f, rng) if rng.random() < density else f.zero()
                 for _ in range(n)] for _ in range(k)]
        out.append(Subspace.span(f, vecs, n))
    return out


def _one_step_fixpoint(alg, seed):
    f, n = alg.field, alg.dim
    units = [unit_vector(f, n, j) for j in range(n)]
    current = seed
    while True:
        vecs = [list(r) for r in current.basis]
        for prod in alg.products():
            for r in current.basis:
                for u in units:
                    vecs.append(prod.apply(list(r), u))
                    vecs.append(prod.apply(u, list(r)))
        nxt = Subspace.span(f, vecs, n)
        if nxt.dim == current.dim:
            return nxt
        current = nxt


def _basis_products(alg, a, b):
    return Subspace.span(alg.field, [prod.apply(list(u), list(v))
                                     for prod in alg.products()
                                     for u in a.basis for v in b.basis],
                         alg.dim)


def test_closure_ideal_check_and_products_match_direct_spans():
    rng = random.Random(SEED)
    ideals = escapes = 0
    for field in FIELDS:
        for alg in _algebras(field, rng):
            subs = _subspaces(alg, rng)
            for s in subs:
                closed = ideal_closure(alg, s)
                assert closed == _one_step_fixpoint(alg, s), (alg, s)
                assert is_ideal(alg, closed), (alg, s)
                assert is_ideal(alg, s) == (closed == s), (alg, s)
                ideals += closed == s
                escapes += closed != s
            for a, b in zip(subs, subs[1:] + subs[:1]):
                assert (multiply_subspaces(alg, a, b)
                        == _basis_products(alg, a, b)), (alg, a, b)
    # both verdicts of the ideal check are exercised
    assert ideals and escapes


def test_quotient_divides_by_the_closure_of_its_argument():
    rng = random.Random(f"{SEED}:quotient")
    for field in FIELDS:
        for alg in _algebras(field, rng):
            for s in _subspaces(alg, rng)[:4]:
                quot, proj = q = quotient_algebra(alg, s)
                assert q.ideal == _one_step_fixpoint(alg, s), (alg, s)
                assert quot.dim == alg.dim - q.ideal.dim


def _digest(quot, proj):
    f = proj.matrix.field
    matrix = [[f.format(a) for a in row] for row in proj.matrix.entries]
    text = json.dumps([algebra_to_document(quot), matrix], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _env(build, name, bound):
    env = build(fixtures.get(name), bound)
    return env.algebra, env.proj


def _xud(name, bound):
    r = xud_full(fixtures.get(name), bound)
    return r.pi.target, r.pi


# each seeded quotient and the digest of its (document with labels,
# projection matrix), recorded when every quotient re-checked its ideal
SEEDED_QUOTIENTS = {
    "ud": (lambda: _env(ud, "leibniz-ff-e-f2", 3), "ddaaa1d04438ec4d"),
    "u_lie": (lambda: _env(u_lie, "lie-heis-3-q", 2), "e341dd80182f0ad3"),
    "xud_full": (lambda: _xud("xlb-ideal-e-f2", 2), "0ac16f6a9433aa0f"),
    "associative_quotient": (
        lambda: associative_quotient(fixtures.get("free-dias-1-2-f2")),
        "2e8d9e5315264986"),
    "lie_quotient": (lambda: lie_quotient(fixtures.get("leibniz-ff-e-f2")),
                     "80622c6c47e66c34"),
}


def test_seeded_quotients_close_their_seed_once(monkeypatch):
    # the closure's last round is the ideal check; a second is_ideal pass
    # on the finished ideal would show up here
    calls = []

    def counted(alg, s, check=algebra.is_ideal):
        calls.append(s.dim)
        return check(alg, s)

    # build the table's fixtures first: ``xmod_from_ideal`` checks its
    # input with ``is_ideal``, and that check is not a quotient's
    for name in ("leibniz-ff-e-f2", "lie-heis-3-q", "xlb-ideal-e-f2",
                 "free-dias-1-2-f2"):
        fixtures.get(name)
    monkeypatch.setattr(algebra, "is_ideal", counted)
    for name, (build, digest) in SEEDED_QUOTIENTS.items():
        assert _digest(*build()) == digest, name
        assert not calls, (name, calls)
