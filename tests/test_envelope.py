import random
import time
import tracemalloc

import pytest

from diacat import fixtures
from diacat.algebra import (BilinearMap, abelian_algebra,
                            derived_tower_nilpotent, make_algebra)
from diacat.envelope import (Word, envelope_functor_morphism,
                             envelope_transpose, free_dialgebra,
                             tensor_algebra, u_lie, ud, xu, xu_full, xud,
                             xud_full)
from diacat.errors import DimensionMismatch, NotWellDefined
from diacat.fields import GF, QQ
from diacat.functors import apply_functor, enumerate_homs
from diacat.linalg import Matrix, vec_eq, vec_sub

import oracles
from envelope_rungs import build, projection_sha1

F2, F3 = GF(2), GF(3)
SEED = 20261020
FREE = {"dias": free_dialgebra, "as": tensor_algebra}
FREE_CASES = [(kind, field, g, b) for kind in FREE for field in (F2, F3, QQ)
              for g, b in ((0, 3), (1, 4), (2, 3), (3, 2))]


def _case_id(case):
    kind, field, g, b = case
    return f"{kind}-{field}-{g}-{b}"


def _oracle_word(kind, w):
    return (w.letters(), len(w.left)) if kind == "dias" else (w, None)


@pytest.mark.parametrize("case", FREE_CASES, ids=_case_id)
def test_free_objects_match_the_all_pairs_oracle(case):
    kind, field, g, b = case
    free = FREE[kind](field, g, b)
    words = oracles.free_words(kind, g, b)
    assert [_oracle_word(kind, w) for w in free.words] == words
    assert free.labels == [oracles.free_label(w) for w in words]
    assert free.word_index == {w: i for i, w in enumerate(free.words)}
    one = field.one()
    for prod, table in zip(free.products(), oracles.free_tables(kind, g, b),
                           strict=True):
        assert [[prod.pair(i, j) for j in range(free.dim)]
                for i in range(free.dim)] == \
            [[{table[i, j]: one} if (i, j) in table else {}
              for j in range(free.dim)] for i in range(free.dim)]


@pytest.mark.parametrize("case", FREE_CASES, ids=_case_id)
def test_free_factorizations_multiply_back_to_their_words(case):
    kind, field, g, b = case
    free = FREE[kind](field, g, b)
    words = oracles.free_words(kind, g, b)
    index = {w: i for i, w in enumerate(words)}
    assert len(free.factors) == free.dim - g
    for w, (p, i, j) in enumerate(free.factors, start=g):
        assert free.products()[p].pair(i, j) == {w: field.one()}
        assert len(words[i][0]) < len(words[w][0]) > len(words[j][0])
        pidx, x, y = oracles.canonical_split(words[w])
        assert (p, i, j) == (pidx, index[x], index[y])


def _dense(bmap):
    return [[[int(bmap.pair(i, j).get(k, 0)) for k in range(bmap.out_dim)]
             for j in range(bmap.right_dim)] for i in range(bmap.left_dim)]


def _ff_e(flavor, field):
    """[f,f] = e on the basis (e, f)."""
    return make_algebra(flavor, field, [BilinearMap.from_triples(
        field, 2, 2, 2, [(1, 1, 0, 1)])])


def _heisenberg(field):
    """[x,y] = z = -[y,x] on the basis (x, y, z)."""
    return make_algebra("lie", field, [BilinearMap.from_triples(
        field, 3, 3, 3, [(0, 1, 2, 1), (1, 0, 2, -1)])])


TRANSPOSE_CASES = {
    "ud ff-e F2 3": (ud, lambda: fixtures.get("leibniz-ff-e-f2"), 3),
    "ud ff-e F3 3": (ud, lambda: _ff_e("lb", F3), 3),
    "ud abelian F2 2": (ud, lambda: fixtures.get("lb-abelian-2-f2"), 2),
    "u abelian F3 3": (u_lie, lambda: abelian_algebra("lie", F3, 2), 3),
    "u heisenberg F3 2": (u_lie, lambda: _heisenberg(F3), 2),
}


@pytest.mark.parametrize("case", TRANSPOSE_CASES)
def test_transpose_evaluates_words_by_their_canonical_bracketing(case):
    # the target is the envelope itself, nilpotent within the bound, and
    # the generator images are eta after a seeded endomorphism of the source
    env_of, source, bound = TRANSPOSE_CASES[case]
    g = source()
    env = env_of(g, bound)
    target = env.algebra
    p = g.field.p
    kind = "dias" if env_of is ud else "as"
    words = [_oracle_word(kind, w) for w in env.free.words]
    tables = [_dense(t) for t in target.products()]
    endos = enumerate_homs(g, g)
    for h in random.Random(f"{SEED}:{case}").sample(endos, min(3, len(endos))):
        phi = env.eta.mul(h.matrix)
        images = [[int(c) for c in phi.col(i)] for i in range(phi.cols)]
        on_free = envelope_transpose(env, target, phi).matrix.mul(
            env.proj.matrix)
        assert [[int(c) for c in on_free.col(w)] for w in range(len(words))] \
            == [oracles.word_value(p, w, images, tables, target.dim)
                for w in words]


def test_free_objects_frozen_dims():
    assert free_dialgebra(QQ, 1, 2).dim == 3
    assert free_dialgebra(QQ, 2, 2).dim == 10
    assert tensor_algebra(QQ, 1, 2).dim == 2
    assert tensor_algebra(QQ, 2, 2).dim == 6


def test_free_dialgebra_is_nilpotent_of_bound():
    d = free_dialgebra(F2, 1, 2)
    assert derived_tower_nilpotent(d, 2)
    assert not derived_tower_nilpotent(d, 1)


def test_ud_frozen_dims():
    ab1 = fixtures.get("lb-abelian-1-f2")
    assert ud(ab1, 2).algebra.dim == 2
    g = fixtures.get("leibniz-ff-e")
    assert ud(g, 2).algebra.dim == 3


def test_ud_identifies_bracket_with_product_difference():
    g = fixtures.get("leibniz-ff-e")
    env = ud(g, 2)
    f = QQ
    free = env.free
    # letters: 0 = e, 1 = f; the relation glues eta(e) = [f,f] to f-|f - f|-f
    lword = free.word_index[Word((), 1, (1,))]
    rword = free.word_index[Word((1,), 1, ())]
    diff = vec_sub(f, env.proj.matrix.col(lword), env.proj.matrix.col(rword))
    assert vec_eq(f, env.eta.col(0), diff)


def test_ud_satisfies_truncated_universal_property():
    g = fixtures.get("leibniz-ff-e-f2")
    env = ud(g, 2)
    d = fixtures.get("free-dias-1-2-f2")
    lb_d = apply_functor("LB", d)
    # e -> x-|x - x|-x and f -> x is a bracket morphism g -> LB(D)
    phi = Matrix.from_cols(F2, [[F2.zero(), F2.one(), F2.one()],
                                [F2.one(), F2.zero(), F2.zero()]], 3)
    h = envelope_transpose(env, d, phi)
    assert h.check().passed
    assert h.matrix.mul(env.eta) == phi


def test_envelope_transpose_rejects_non_morphism():
    g = fixtures.get("leibniz-ff-e-f2")
    env = ud(g, 2)
    d = fixtures.get("dias-abelian-2-f2")
    # e -> first basis vector, f -> second: kills nothing, [f,f] = e has
    # nonzero image but the product difference vanishes in an abelian target
    phi = Matrix.identity(F2, 2)
    with pytest.raises(NotWellDefined):
        envelope_transpose(env, d, phi)


def test_u_lie_frozen_dims():
    ab1 = abelian_algebra("lie", F2, 1)
    ab2 = abelian_algebra("lie", F2, 2)
    heis = fixtures.get("lie-heis-3-q")
    assert u_lie(ab1, 2).algebra.dim == 2
    assert u_lie(ab2, 2).algebra.dim == 5
    assert u_lie(heis, 2).algebra.dim == 6


def test_envelope_functor_morphism_naturality():
    ab1 = fixtures.get("lb-abelian-1-f2")
    g = fixtures.get("leibniz-ff-e-f2")
    from diacat.algebra import AlgebraMorphism
    # the inclusion of the abelian line as span{e} is a bracket morphism
    incl = AlgebraMorphism(ab1, g, Matrix.from_cols(F2, [[F2.one(),
                                                          F2.zero()]], 2))
    assert incl.check().passed
    m = envelope_functor_morphism(ud(ab1, 2), ud(g, 2), incl)
    assert m.check().passed


def test_xud_frozen_dims_ideal_fixture():
    xm = fixtures.get("xlb-ideal-e-f2")
    r = xud_full(xm, 2)
    assert r.env_big.algebra.dim == 7
    assert r.cat1.E.dim == 6
    assert r.xmod.actee.dim == 3
    assert r.xmod.actor.dim == 3
    assert r.xmod.check().passed
    # the crossed module sits on Ker s-bar with mu = t-bar restricted
    assert r.cat1.certificate.passed


def test_xud_unit_lands_in_kernel_of_s():
    xm = fixtures.get("xlb-ideal-e-f2")
    r = xud_full(xm, 2)
    assert r.unit_actee.cols == xm.actee.dim
    assert r.unit_actee.rows == r.xmod.actee.dim


def test_xu_frozen_dims_abelian_pair():
    xm = fixtures.get("xlie-abelian-pair-f2")
    r = xu_full(xm, 2)
    assert r.cat1.E.dim == 4
    assert r.xmod.actee.dim == 2
    assert r.xmod.actor.dim == 2
    assert r.xmod.mu.matrix.is_zero()


def test_xud_of_identity_xmod_has_identity_shape():
    # the crossed envelope of an identity crossed module is again
    # mu = iso onto the actor
    emb = fixtures.get("xlb-ident-abelian-1-f2")
    out = xud(emb, 2)
    assert out.actee.dim == out.actor.dim == 2
    from diacat.linalg import inverse
    assert inverse(out.mu.matrix) is not None


@pytest.mark.parametrize("field", [F2, QQ], ids=str)
def test_envelopes_of_the_zero_algebra(field):
    # no generators spell no words, at any bound
    for flavor, tag, xtag, embeddings in (("lb", "Ud", "XUd", ("J0'", "J1'")),
                                          ("lie", "U", "XU", ("I0'", "I1'"))):
        zero = abelian_algebra(flavor, field, 0)
        for bound in (2, 10 ** 6):
            env = apply_functor(tag, zero, bound)
            assert env.dim == 0 and env.field == field
            assert env.flavor == ("dias" if flavor == "lb" else "as")
            for emb in embeddings:
                out = apply_functor(xtag, apply_functor(emb, zero), bound)
                assert (out.actee.dim, out.actor.dim) == (0, 0)
                assert out.flavor == env.flavor
    with pytest.raises(DimensionMismatch):
        free_dialgebra(field, 0, 0)
    with pytest.raises(DimensionMismatch):
        tensor_algebra(field, 1, 0)


def test_ud_ideal_is_held_by_sparse_rows():
    """``ud(leibniz-ff-e-f2, 5)`` divides its free object of dim 258 by an
    ideal of dim 249 whose rows have at most three nonzero entries.  Held and
    grown as sparse rows it peaks near 2.6 MiB; dense rows of length 258,
    re-reduced whole each closure round, peak near 4.4 MiB."""
    g = fixtures.get("leibniz-ff-e-f2")
    tracemalloc.start()
    try:
        env = ud(g, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (env.free.dim, env.relations.dim) == (258, 249)
    assert peak < 3.5 * 2 ** 20, peak


def test_xud_ideal_grows_one_vector_at_a_time():
    """``xud_full(xlb-ideal-e-f2, 4)`` envelopes a semidirect model whose
    free object has dim 426.  Its closure rounds reduce each escaping
    product against the rows as they grow, so only independent ones are
    kept; it peaks near 2.2 MiB.  Reduced as one dense block per round,
    most of whose rows are dependent, it peaked near 4.9 MiB."""
    xm = fixtures.get("xlb-ideal-e-f2")
    tracemalloc.start()
    try:
        r = xud_full(xm, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.env_big.free.dim, r.xmod.actee.dim, r.xmod.actor.dim) == (
        426, 7, 7)
    assert peak < 3 * 2 ** 20, peak


@pytest.mark.parametrize("rung, sha1", [("ud:7", "7aba133d23eb"),
                                        ("xud:5", "97337fe4bf0e")])
def test_closure_reads_only_nonzero_products_past_the_cap(monkeypatch, rung,
                                                          sha1):
    """``ud(leibniz-ff-e-f2, 7)`` and ``xud_full(xlb-ideal-e-f2, 5)`` close
    ideals in free objects of dim 1538 and 1641.  With each product of a
    frontier vector with the basis read off the product's nonzero cells,
    both take 0.4-0.8 s on a 2-CPU host; multiplied against every unit
    vector, they took 4-6 s.  The projections keep the sha1s of ROADMAP's
    State section."""
    monkeypatch.setenv("DIACAT_MAX_DIM", "8192")
    start = time.perf_counter()
    matrix = build(rung)
    wall = time.perf_counter() - start
    assert projection_sha1(matrix) == sha1
    assert wall < 2.5, wall
