import pytest

from diacat import fixtures
from diacat.algebra import abelian_algebra, derived_tower_nilpotent
from diacat.envelope import (Word, envelope_functor_morphism,
                             envelope_transpose, free_dialgebra,
                             tensor_algebra, u_lie, ud, xu, xu_full, xud,
                             xud_full)
from diacat.errors import DimensionMismatch, NotWellDefined
from diacat.fields import GF, QQ
from diacat.functors import apply_functor
from diacat.linalg import Matrix, vec_eq, vec_sub

F2 = GF(2)


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
    for flavor, tag, xtag, embeddings in (("lb", "Ud", "XUd", ("J0'", "J1'")),
                                          ("lie", "U", "XU", ("I0'", "I1'"))):
        zero = abelian_algebra(flavor, field, 0)
        env = apply_functor(tag, zero, 2)
        assert env.dim == 0 and env.field == field
        assert env.flavor == ("dias" if flavor == "lb" else "as")
        for emb in embeddings:
            out = apply_functor(xtag, apply_functor(emb, zero), 2)
            assert (out.actee.dim, out.actor.dim) == (0, 0)
            assert out.flavor == env.flavor
    with pytest.raises(DimensionMismatch):
        free_dialgebra(field, 0, 0)
    with pytest.raises(DimensionMismatch):
        tensor_algebra(field, 1, 0)
