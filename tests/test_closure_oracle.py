"""Ideal closure, the ideal check and subspace products against direct spans.

Seeded seeds and subspaces in free dialgebras, tensor algebras and
2-step-nilpotent Leibniz and Lie algebras over F2, F3, F5 and Q, plus
dimension 0, the zero seed and the full space.  ``ideal_closure`` must
equal the fixpoint of the one-step span (the seed plus its products with
every basis vector on both sides), ``is_ideal`` must hold exactly on the
subspaces the closure leaves unchanged, and ``multiply_subspaces`` must
equal the span of the basis-pair products.  The products with the basis
that all of these read, ``BilinearMap.with_basis`` and
``algebra.basis_products``, must equal dense ``apply`` against every unit
vector on both sides, and the crossed-module lemma's annihilator item must
agree with a dense annihilator.  ``quotient_algebra`` must divide by the
closure of its argument, and close each seed of the paper's quotients in
one pass, with no second ideal check.
"""

import hashlib
import json
import random

from diacat import algebra, fixtures
from diacat.actions import CrossedModule, lemma_crossed_checks, trivial_action
from diacat.algebra import (AlgebraMorphism, BilinearMap, abelian_algebra,
                            basis_products, ideal_closure, is_ideal,
                            make_algebra, multiply_subspaces, quotient_algebra,
                            universal_quotient)
from diacat.documents import algebra_to_document
from diacat.envelope import (free_dialgebra, tensor_algebra, u_lie, ud,
                             xud_full)
from diacat.fields import GF, QQ
from diacat.linalg import (Matrix, QuotientMap, Subspace, kernel,
                           sp_from_dense, sp_to_dense, unit_vector)

SEED = 20261020
SUBSPACES = 12
FIELDS = (GF(2), GF(3), GF(5), QQ)


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


def _twins(field, rng):
    """A random 4 x 3 -> 5 map whose rows 0 and 1 are equal, and so are its
    columns 0 and 1: e_0 - e_1 has zero products on either side, though
    the cells it walks are not empty."""
    twin = (0, 0, 2, 3)
    triples = [(i, j, k, _scalar(field, rng)) for i in range(4)
               for j in range(3) for k in range(5)]
    base = {(i, j, k): c for i, j, k, c in triples}
    return BilinearMap.from_triples(field, 4, 3, 5, (
        (i, j, k, base[twin[i], twin[j], k]) for i, j, k, _ in triples))


def _dense_with_basis(prod, u, side):
    """The nonzero products of the sparse vector u with every unit vector
    by dense ``apply``, keyed by the unit's index: u e_j on side 0 (u the
    left argument), e_j u on side 1."""
    f = prod.field
    dims = (prod.left_dim, prod.right_dim)
    u, out = sp_to_dense(f, u, dims[side]), {}
    for j in range(dims[1 - side]):
        e = unit_vector(f, dims[1 - side], j)
        w = sp_from_dense(f, prod.apply(*((u, e) if side == 0 else (e, u))))
        if w:
            out[j] = w
    return out


def _assert_with_basis(prod, vectors):
    for side, m in enumerate((prod, prod.transpose_args())):
        for u in vectors:
            assert m.with_basis(u) == _dense_with_basis(prod, u, side), (
                prod, side, u)


def _cells(vectors):
    """A multiset of sparse vectors, in a canonical order."""
    return sorted(sorted(w.items()) for w in vectors)


def _dense_annihilator(alg):
    """Largest subspace acting as zero under every product on both sides,
    as a dense 2n^2 x n kernel: the reference for ``basis_products``."""
    f = alg.field
    n = alg.dim
    if n == 0:
        return Subspace.zero(f, 0)
    rows = []
    for prod in alg.products():
        for j in range(n):
            # x * b_j = 0 and b_j * x = 0, coordinatewise rows in x
            for k in range(n):
                rows.append([prod.pair(i, j).get(k, f.zero()) for i in range(n)])
                rows.append([prod.pair(j, i).get(k, f.zero()) for i in range(n)])
    return kernel(Matrix.from_rows(f, rows, n))


def _reversed(alg):
    """``alg`` in its basis taken in reverse order."""
    last = alg.dim - 1
    return make_algebra(alg.flavor, alg.field, [
        BilinearMap.from_triples(alg.field, alg.dim, alg.dim, alg.dim, (
            (last - i, last - j, last - k, c) for i, j, k, c in p.triples()))
        for p in alg.products()])


def _lemma_annihilator_item(alg, s):
    """The lemma's "Ker mu lies in the annihilator of the actee" verdict on
    a crossed module whose mu, the projection onto alg / s into an abelian
    actor acting trivially, has kernel ``s``."""
    qm = QuotientMap(alg.dim, s)
    actor = abelian_algebra(alg.flavor, alg.field, qm.dim)
    xm = CrossedModule(AlgebraMorphism(alg, actor, qm.project),
                       trivial_action(actor, alg, check=False), check=False)
    report = lemma_crossed_checks(xm)
    return next(it.passed for it in report.items
                if it.name == "Ker mu lies in the annihilator of the actee")


def test_closure_ideal_check_and_products_match_direct_spans():
    rng = random.Random(SEED)
    ideals = escapes = killed = kept = 0
    for field in FIELDS:
        twins = _twins(field, rng)
        one = field.one()
        cancel = {0: one, 1: field.neg(one)}
        for m in (twins, twins.transpose_args()):
            assert m.rows[0] and m.rows[1] and not m.with_basis(cancel)
        # each vector lies in both arguments, of dims 4 and 3
        _assert_with_basis(twins, [{}, cancel, {2: one}, {0: one, 2: one},
                                   {**cancel, 2: one}])
        for alg in _algebras(field, rng):
            subs = _subspaces(alg, rng)
            for s in subs:
                closed = ideal_closure(alg, s)
                assert closed == _one_step_fixpoint(alg, s), (alg, s)
                assert is_ideal(alg, closed), (alg, s)
                assert is_ideal(alg, s) == (closed == s), (alg, s)
                ideals += closed == s
                escapes += closed != s
                for prod in alg.products():
                    _assert_with_basis(prod, [{}, *s.rows])
                assert _cells(basis_products(alg, s.rows)) == _cells(
                    w for prod in alg.products() for side in (0, 1)
                    for u in s.rows
                    for w in _dense_with_basis(prod, u, side).values())
            # the annihilator itself, and grown by subspaces it may miss; in
            # the reversed basis its pivots come before theirs
            for a in (alg, _reversed(alg)):
                ann = _dense_annihilator(a)
                for s in subs + [ann.add(t) for t in subs[1:]]:
                    annihilated = s.is_subspace_of(ann)
                    assert (not any(basis_products(a, s.rows))) == annihilated
                    assert _lemma_annihilator_item(a, s) == annihilated, (a, s)
                    killed += annihilated
                    kept += not annihilated
            for a, b in zip(subs, subs[1:] + subs[:1]):
                assert (multiply_subspaces(alg, a, b)
                        == _basis_products(alg, a, b)), (alg, a, b)
    # both verdicts of the ideal check and of the annihilator item are
    # exercised
    assert ideals and escapes and killed and kept


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
    "AS": (lambda: universal_quotient("AS", fixtures.get("free-dias-1-2-f2")),
           "2e8d9e5315264986"),
    "Liel": (lambda: universal_quotient("Liel",
                                        fixtures.get("leibniz-ff-e-f2")),
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
