import pytest

from diacat import actions, fixtures
from diacat.actions import (Action, CrossedModule, XmodMorphism,
                            _crossed_equations, action_by_ambient_products,
                            lemma_crossed_checks, self_action, semidirect,
                            semidirect_homomorphism_checks, trivial_action,
                            xmod_from_ideal)
from diacat.algebra import (AlgebraMorphism, AxiomReport, BilinearMap,
                            abelian_algebra)
from diacat.envelope import xud_full
from diacat.errors import (InvalidAction, InvalidCrossedModule,
                           LemmaViolation)
from diacat.fields import GF, QQ
from diacat.linalg import Matrix, Subspace

F2 = GF(2)

XMOD_NAMES = [n for n, _ in fixtures.by_kind("xmod")]


def test_bundled_crossed_modules_all_pass():
    assert len(XMOD_NAMES) >= 8
    for name in XMOD_NAMES:
        assert fixtures.get(name).check().passed, name


def test_self_action_and_trivial_action():
    g = fixtures.get("leibniz-ff-e")
    assert self_action(g).check().passed
    z = abelian_algebra("lb", QQ, 1)
    assert trivial_action(g, z).check().passed


def test_invalid_action_is_rejected():
    # acting on the one-dim abelian algebra, gq([f,f], x) must vanish while
    # gq(f, gq(f, x)) does not: the Leibniz mixed axiom fails
    g = fixtures.get("leibniz-ff-e-f2")
    ab = abelian_algebra("lb", F2, 1, labels=["x"])
    tensors = {"gq": BilinearMap.from_triples(F2, 2, 1, 1,
                                              [(1, 0, 0, F2.one())]),
               "qg": BilinearMap.from_triples(F2, 1, 2, 1, [])}
    with pytest.raises(InvalidAction):
        Action(g, ab, tensors).certify()


def test_semidirect_split_exact_sequence():
    xm = fixtures.get("xlb-ideal-e-f2")
    E, inj, proj, split = semidirect(xm.action)
    assert E.check().passed
    nl, nd = xm.actee.dim, xm.actor.dim
    assert proj.matrix.mul(inj.matrix).is_zero()
    assert proj.matrix.mul(split.matrix) == Matrix.identity(F2, nd)
    assert inj.check().passed and proj.check().passed and split.check().passed
    assert E.dim == nl + nd


def test_xmod_from_ideal_free_dialgebra():
    d = fixtures.get("free-dias-1-2")
    ideal = Subspace.span(QQ, [[QQ.zero(), QQ.one(), QQ.zero()],
                               [QQ.zero(), QQ.zero(), QQ.one()]], 3)
    xm = xmod_from_ideal(d, ideal)
    assert xm.flavor == "dias"
    assert xm.actee.dim == 2 and xm.actor.dim == 3
    assert xm.check().passed


def test_semidirect_homomorphism_checks_on_battery():
    for name in XMOD_NAMES:
        rep = semidirect_homomorphism_checks(fixtures.get(name))
        assert rep.passed, (name, rep.first_failure())


def test_crossed_equations_mirror_the_two_maps():
    # perturb mu on a valid fixture; the crossed verdict and the morphism
    # verdicts of the first two canonical maps must flip together
    xm = fixtures.get("xlb-ideal-e-f2")
    f = F2
    for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)):
        mu = AlgebraMorphism(xm.actee, xm.actor,
                             Matrix(f, [[f.parse(str(a))], [f.parse(str(b))]]))
        eq = _crossed_equations(mu.check(), mu, xm.action).passed
        maps = semidirect_homomorphism_checks(mu, xm.action)
        maps_ok = maps.items[0].passed and maps.items[1].passed
        assert eq == maps_ok, (a, b)


def test_lemma_checks_pass_on_battery():
    for name in XMOD_NAMES:
        assert lemma_crossed_checks(fixtures.get(name)).passed, name


def test_lemma_checks_reject_kernel_outside_annihilator():
    g = fixtures.get("leibniz-ff-e-f2")
    d = abelian_algebra("lb", F2, 1)
    mu = AlgebraMorphism(g, d, Matrix.zero(F2, 1, 2))
    bad = CrossedModule(mu, trivial_action(d, g), check=False)
    # Ker mu = everything, but f is not in the annihilator
    report = lemma_crossed_checks(bad)
    assert report.first_failure().name == \
        "Ker mu lies in the annihilator of the actee"


def test_a_failing_structure_lemma_stops_the_crossed_envelope(monkeypatch):
    failing = AxiomReport("lb crossed module structure")
    failing.add("Im mu is an ideal of the actor", False)
    monkeypatch.setattr(actions, "lemma_crossed_checks", lambda xm: failing)
    with pytest.raises(LemmaViolation) as exc:
        xud_full(fixtures.get("xlb-ideal-e-f2"), 2)
    assert str(exc.value) == ("structure lemma failed: "
                              "Im mu is an ideal of the actor at None")
    assert exc.value.report is failing


def test_action_by_ambient_products_matches_fixture():
    xm = fixtures.get("xdias-ideal-incl-f2")
    assert xm.action.check().passed
    assert xm.actor.dim == 3 and xm.actee.dim == 2


def test_action_by_ambient_products_rejects_a_non_canonical_actee_basis():
    xm = fixtures.get("xdias-ideal-incl-f2")
    incl = xm.mu.matrix
    action_by_ambient_products(AlgebraMorphism.identity(xm.actor), xm.mu)
    # the same ideal, its two basis columns swapped: pulling back through
    # the canonical basis would read its coordinates in the wrong order
    swapped = AlgebraMorphism(xm.actee, xm.actor, Matrix.from_cols(
        F2, [incl.col(1), incl.col(0)], incl.rows))
    with pytest.raises(InvalidAction, match="canonical basis"):
        action_by_ambient_products(AlgebraMorphism.identity(xm.actor),
                                   swapped)


def test_xmod_morphism_identity_and_compose():
    xm = fixtures.get("xlb-ident-ff-e-f2")
    ident = XmodMorphism.identity(xm)
    assert ident.check().passed
    comp = ident.compose(ident)
    assert comp.alpha.matrix == ident.alpha.matrix
    assert comp.beta.matrix == ident.beta.matrix


def test_flavor_mismatch_raises():
    g = fixtures.get("leibniz-ff-e-f2")
    a = fixtures.get("as-nilp-2-f2")
    mu = AlgebraMorphism(g, g, Matrix.identity(F2, 2))
    with pytest.raises(InvalidCrossedModule):
        CrossedModule(mu, self_action(a))
