import random

import pytest

from diacat import cat1, fixtures
from diacat.actions import (Action, CrossedModule, action_by_ambient_products,
                            trivial_action)
from diacat.algebra import (AlgebraMorphism, BilinearMap, abelian_algebra,
                            induced_subalgebra, kernel_of, make_algebra)
from diacat.cat1 import (Cat1, InternalCategory, cat1_decomposition_iso,
                         cat1_isomorphism_report, cat1_of_xmod, check_cat1,
                         check_internal_category, identity_cat1,
                         xdias_to_internal, xmod_isomorphism_report,
                         xmod_of_cat1)
from diacat.errors import (InvalidAction, InvalidAlgebra, InvalidCat1,
                           InvalidCrossedModule, InvalidInternalCategory)
from diacat.fields import GF
from diacat.functors import find_xmod_isomorphism
from diacat.lifts import _as_dias_or_lb
from diacat.linalg import Matrix, Subspace, kernel

F2 = GF(2)

DIAS_XMODS = ["xdias-ideal-incl-f2", "xdias-zero-f2"]
LB_XMODS = ["xlb-ideal-e-f2", "xlb-ident-abelian-1-f2", "xlb-ident-ff-e-f2",
            "xlb-zero-ff-e-f2"]


def test_identity_cat1_passes():
    c = identity_cat1(fixtures.get("leibniz-ff-e"))
    assert check_cat1(c).passed
    assert c.base.dim == c.E.dim


def test_semidirect_model_is_cat1():
    for name in DIAS_XMODS:
        c = cat1_of_xmod(fixtures.get(name))
        assert c.certificate is not None and c.certificate.passed, name
    for name in LB_XMODS:
        c = cat1_of_xmod(fixtures.get(name))
        assert c.certificate.passed, name


def test_kernel_product_violation_is_rejected():
    g = fixtures.get("leibniz-ff-e-f2")
    zero_sub = Subspace.span(F2, [], 2)
    z = Matrix.zero(F2, 0, 2)
    # s = t = 0 onto the zero subalgebra: Ker s = Ker t = everything,
    # and [f,f] = e is a nonvanishing kernel product
    with pytest.raises(InvalidCat1):
        Cat1(g, zero_sub, z, z)
    c = Cat1(g, zero_sub, z, z, check=False)
    rep = check_cat1(c)
    assert not rep.passed


def _failing_algebra(g):
    # [e,e] = e on one basis vector: [x,[y,z]] = e, but the right side is 0
    return make_algebra("lb", F2, [BilinearMap.from_triples(
        F2, 1, 1, 1, [(0, 0, 0, F2.one())])], check=False).certify()


def _failing_action(g):
    # gq([f,f], x) = gq(e, x) = 0, but gq(f, gq(f, x)) = x
    ab = abelian_algebra("lb", F2, 1, labels=["x"])
    return Action(g, ab, {
        "gq": BilinearMap.from_triples(F2, 2, 1, 1, [(1, 0, 0, F2.one())]),
        "qg": BilinearMap.from_triples(F2, 1, 2, 1, [])},
        check=False).certify()


def _failing_xmod(g):
    # mu = 0 with the trivial action: [mu(l),l'] = 0, but [f,f] = e
    d = abelian_algebra("lb", F2, 1)
    return CrossedModule(AlgebraMorphism(g, d, Matrix.zero(F2, 1, 2)),
                         trivial_action(d, g), check=False).certify()


def _failing_cat1(g):
    # t = 0 is a morphism onto the whole algebra, but not a retraction
    return Cat1(g, Subspace.full(F2, 2), Matrix.identity(F2, 2),
                Matrix.zero(F2, 2, 2), check=False).certify()


def _failing_internal_category(g):
    # gamma = 0 on the diagonal pullback of the identity cat-1 structure
    c = identity_cat1(g)
    return InternalCategory(c, Matrix.zero(F2, 2, 4))


FAILURES = [
    (_failing_algebra, InvalidAlgebra,
     "leibniz: FAIL [leibniz: [x,[y,z]] = [[x,y],z] - [[x,z],y] "
     "at (0, 0, 0)]"),
    (_failing_action, InvalidAction,
     "not a lb action: leibniz @ (D,D,L) fails at (1, 1, 0)"),
    (_failing_xmod, InvalidCrossedModule,
     "crossed module axioms fail: peiffer: [mu(l),l'] = [l,l'] at (1, 1)"),
    (_failing_cat1, InvalidCat1,
     "cat-1 axioms fail: t restricts to the identity on the base at None"),
    (_failing_internal_category, InvalidInternalCategory,
     "internal-category axioms fail: s . gamma = s . pr1 at None"),
]


@pytest.mark.parametrize("build,error,message", FAILURES,
                         ids=[b.__name__.removeprefix("_failing_")
                              for b, _, _ in FAILURES])
def test_certify_failure_messages(build, error, message):
    with pytest.raises(InvalidAlgebra) as exc:
        build(fixtures.get("leibniz-ff-e-f2"))
    assert exc.type is error
    assert str(exc.value) == message
    assert not exc.value.report.passed


def test_crossed_roundtrip_dias():
    for name in DIAS_XMODS:
        xm = fixtures.get(name)
        back = xmod_of_cat1(cat1_of_xmod(xm))
        assert xm.same_structure(back) or \
            find_xmod_isomorphism(xm, back) is not None, name


def test_crossed_roundtrip_lb():
    for name in LB_XMODS:
        xm = fixtures.get(name)
        back = xmod_of_cat1(cat1_of_xmod(xm))
        assert xm.same_structure(back) or \
            find_xmod_isomorphism(xm, back) is not None, name


def test_cat1_roundtrip_with_decomposition_witness():
    for name in DIAS_XMODS + LB_XMODS:
        xm = fixtures.get(name)
        c = cat1_of_xmod(xm)
        c2 = cat1_of_xmod(xmod_of_cat1(c))
        h = cat1_decomposition_iso(c, c2)
        rep = cat1_isomorphism_report(c, c2, h)
        assert rep.passed, (name, rep.first_failure())


def test_decomposition_iso_on_identity_cat1():
    # identity cat-1 on a plain algebra decomposes with trivial kernel part
    alg = fixtures.get("leibniz-ff-e-f2")
    c = identity_cat1(alg)
    xm = xmod_of_cat1(c)
    assert xm.actee.dim == 0 and xm.actor.dim == alg.dim
    c2 = cat1_of_xmod(xm)
    h = cat1_decomposition_iso(c, c2)
    assert cat1_isomorphism_report(c, c2, h).passed


def test_xmod_isomorphism_report_identity():
    xm = fixtures.get("xlb-ideal-e-f2")
    from diacat.algebra import AlgebraMorphism
    rep = xmod_isomorphism_report(xm, xm,
                                  AlgebraMorphism.identity(xm.actee),
                                  AlgebraMorphism.identity(xm.actor))
    assert rep.passed


def test_internal_category_structure_and_roundtrip():
    for name in DIAS_XMODS:
        xm = fixtures.get(name)
        ic = xdias_to_internal(xm)
        assert check_internal_category(ic).passed, name
        back = xmod_of_cat1(ic.cat1)
        assert xm.same_structure(back) or \
            find_xmod_isomorphism(xm, back) is not None, name


def test_internal_composition_agrees_on_units():
    """gamma(sigma y, sigma y) = sigma y for every basis vector y of the
    base, and both unit laws pass, on every bundled dialgebra and
    associative crossed module."""
    for name, xm in _dias_xmods():
        ic = xdias_to_internal(xm)
        sigma = ic.cat1.incl.matrix
        for j in range(ic.cat1.base.dim):
            unit = sigma.col(j)
            assert ic.compose(unit, unit) == unit, (name, j)
        passed = {it.name: it.passed for it in ic.certificate.items}
        assert passed["gamma(x, sigma t(x)) = x"], name
        assert passed["gamma(sigma s(x), x) = x"], name


def _dias_xmods():
    """Every bundled dialgebra and associative crossed module, the latter
    viewed as a dialgebra one."""
    return [(name, _as_dias_or_lb(xm)) for name, xm in fixtures.by_kind("xmod")
            if xm.flavor in ("dias", "as")]


def test_an_internal_category_checks_its_cat1_structure_once(monkeypatch):
    calls = []

    def counted(c):
        calls.append(c)
        return check_cat1(c)

    monkeypatch.setattr(cat1, "check_cat1", counted)
    for name, xm in _dias_xmods():
        calls.clear()
        ic = xdias_to_internal(xm)
        assert calls == [ic.cat1], name
        assert ic.certificate.passed, name


def test_the_unit_section_is_the_base_inclusion():
    # the crossed module acting through a unit section built apart from
    # the base inclusion, with the same matrix
    for name, xm in _dias_xmods():
        c = xdias_to_internal(xm).cat1
        l_incl = induced_subalgebra(c.E, kernel_of(c.s))[1]
        sigma = AlgebraMorphism(c.base, c.E, c.incl.matrix)
        through_sigma = CrossedModule(
            c.t.compose(l_incl), action_by_ambient_products(sigma, l_incl))
        assert xmod_of_cat1(c).same_structure(through_sigma), name


# the report of an internal category, item by item
INTERNAL_ITEMS = [
    "cat1 base subspace is closed under products",
    "cat1 incl preserves bracket", "cat1 s preserves bracket",
    "cat1 t preserves bracket",
    "cat1 s restricts to the identity on the base",
    "cat1 t restricts to the identity on the base",
    "cat1 [Ker s,Ker t] = 0", "cat1 [Ker t,Ker s] = 0",
    "sigma preserves bracket", "s . sigma = id", "t . sigma = id",
    "pullback is closed under products", "gamma preserves bracket",
    "s . gamma = s . pr1", "t . gamma = t . pr2",
    "gamma(x, sigma t(x)) = x", "gamma(sigma s(x), x) = x",
    "gamma is associative on composable triples",
    "gamma(l, sigma t(l) + l') = l + l'"]


def _unchecked_cat1(g):
    # t = 0, built unchecked: the internal category checks the structure
    return Cat1(g, Subspace.full(F2, 2), Matrix.identity(F2, 2),
                Matrix.zero(F2, 2, 2), check=False)


@pytest.mark.parametrize("build,message,failing", [
    (identity_cat1, "s . gamma = s . pr1 at None",
     {"s . gamma = s . pr1": None, "t . gamma = t . pr2": None,
      "gamma(x, sigma t(x)) = x": (0,), "gamma(sigma s(x), x) = x": (0,),
      "gamma is associative on composable triples": (0,)}),
    (_unchecked_cat1, "cat1 t restricts to the identity on the base at None",
     {"cat1 t restricts to the identity on the base": None,
      "t . sigma = id": None, "s . gamma = s . pr1": None,
      "gamma(x, sigma t(x)) = x": (0,), "gamma(sigma s(x), x) = x": (0,)}),
], ids=["identity", "unchecked-t-zero"])
def test_invalid_internal_category_reports(build, message, failing):
    # gamma = 0 on E (+) E
    with pytest.raises(InvalidInternalCategory) as exc:
        InternalCategory(build(fixtures.get("leibniz-ff-e-f2")),
                         Matrix.zero(F2, 2, 4))
    assert str(exc.value) == "internal-category axioms fail: " + message
    items = exc.value.report.items
    assert [it.name for it in items] == INTERNAL_ITEMS
    assert {it.name: it.where for it in items if not it.passed} == failing


def _kernel_products_by_double_loop(c):
    """(passed, where) of every kernel-product item, by a dense double loop."""
    f = c.E.field
    kers, kert = kernel(c.s.matrix), kernel(c.t.matrix)
    out = []
    for prod in c.E.products():
        for a, b in ((kers, kert), (kert, kers)):
            bad = next(((i, j) for i, u in enumerate(a.basis)
                        for j, v in enumerate(b.basis)
                        if any(not f.is_zero(x)
                               for x in prod.apply(list(u), list(v)))), None)
            out.append((bad is None, bad))
    return out


def test_kernel_products_match_double_loop_on_perturbed_models():
    # one product entry of E with an actee index is changed, so the base
    # subalgebra and its induced structure stay as they were
    rng = random.Random(20261021)
    failures = 0
    for name, xm in fixtures.by_kind("xmod"):
        c = cat1_of_xmod(xm)
        f, n, nl = c.E.field, c.E.dim, xm.actee.dim
        for _ in range(6 if nl else 1):
            prods = [list(p.triples()) for p in c.E.products()]
            if nl:
                i, j = rng.randrange(n), rng.randrange(nl)
                if rng.random() < 0.5:
                    i, j = j, i
                rng.choice(prods).append((i, j, rng.randrange(n), f.one()))
            E = make_algebra(c.flavor, f, [
                BilinearMap.from_triples(f, n, n, n, t) for t in prods],
                list(c.E.labels), check=False)
            perturbed = Cat1(E, c.d_sub, c.s.matrix, c.t.matrix, check=False)
            got = [(it.passed, it.where) for it in check_cat1(perturbed).items
                   if it.name.endswith(" = 0")]
            expected = _kernel_products_by_double_loop(perturbed)
            assert got == expected, name
            failures += sum(not ok for ok, _ in got)
    assert failures
