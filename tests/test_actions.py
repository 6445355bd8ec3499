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


def _semidirect_blocks(xm):
    """The semidirect model and its inclusion [I | 0]^T, projection
    [0 | I] and splitting [0 | I]^T."""
    E = semidirect(xm.action)
    f, nl, nd = E.field, xm.actee.dim, xm.actor.dim
    inj = AlgebraMorphism(xm.actee, E, Matrix.identity(f, nl).vstack(
        Matrix.zero(f, nd, nl)))
    proj = AlgebraMorphism(E, xm.actor, Matrix.zero(f, nd, nl).hstack(
        Matrix.identity(f, nd)))
    split = AlgebraMorphism(xm.actor, E, Matrix.zero(f, nl, nd).vstack(
        Matrix.identity(f, nd)))
    return E, inj, proj, split


def test_semidirect_split_exact_sequence():
    xm = fixtures.get("xlb-ideal-e-f2")
    E, inj, proj, split = _semidirect_blocks(xm)
    assert E.check().passed
    nl, nd = xm.actee.dim, xm.actor.dim
    assert proj.matrix.mul(inj.matrix).is_zero()
    assert proj.matrix.mul(split.matrix) == Matrix.identity(F2, nd)
    assert inj.check().passed and proj.check().passed and split.check().passed
    assert E.dim == nl + nd


def test_semidirect_splitting_recovers_the_action():
    for name in XMOD_NAMES:
        xm = fixtures.get(name)
        E, inj, proj, split = _semidirect_blocks(xm)
        for m in (inj, proj, split):
            assert m.check().passed, name
        actee = Subspace.span(E.field, (inj.matrix.col(j) for j in
                                        range(xm.actee.dim)), E.dim)
        recovered, incl = action_by_ambient_products(split, actee)
        assert incl.matrix == inj.matrix, name
        assert recovered.same_tensors(xm.action), name


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


def test_lemma_checks_reject_an_image_acting_on_the_kernel():
    # abelian L = <k, m> and D = <x>, mu(k) = 0, mu(m) = x and [x, k] = k:
    # Ker mu = <k> is in the annihilator and Im mu = D is an ideal, but
    # x = mu(m) moves k
    L = abelian_algebra("lb", F2, 2, labels=["k", "m"])
    D = abelian_algebra("lb", F2, 1, labels=["x"])
    mu = AlgebraMorphism(L, D, Matrix(F2, [[F2.zero(), F2.one()]]))
    act = Action(D, L, {
        "gq": BilinearMap.from_triples(F2, 1, 2, 2, [(0, 0, 0, F2.one())]),
        "qg": BilinearMap.from_triples(F2, 2, 1, 2, [])}, check=False)
    report = lemma_crossed_checks(CrossedModule(mu, act, check=False))
    assert [(it.name, it.passed) for it in report.items] == [
        ("Ker mu lies in the annihilator of the actee", True),
        ("Im mu is an ideal of the actor", True),
        ("Im mu acts trivially on Ker mu", False)]
    assert report.first_failure().where == (0, 0, 0)


def test_lemma_checks_reject_an_action_that_moves_the_kernel():
    # abelian L = <k, m> and D = <x, y>, mu(k) = 0, mu(m) = x and y.k = m:
    # the first three items pass, but y moves k out of Ker mu = <k>, so no
    # induced bimodule exists to check
    L = abelian_algebra("lb", F2, 2, labels=["k", "m"])
    D = abelian_algebra("lb", F2, 2, labels=["x", "y"])
    mu = AlgebraMorphism(L, D, Matrix(F2, [[F2.zero(), F2.one()],
                                           [F2.zero(), F2.zero()]]))
    act = Action(D, L, {
        "gq": BilinearMap.from_triples(F2, 2, 2, 2, [(1, 0, 1, F2.one())]),
        "qg": BilinearMap.from_triples(F2, 2, 2, 2, [])})
    with pytest.raises(LemmaViolation,
                       match="action does not preserve Ker mu") as exc:
        lemma_crossed_checks(CrossedModule(mu, act, check=False))
    assert [(it.name, it.passed) for it in exc.value.report.items] == [
        ("Ker mu lies in the annihilator of the actee", True),
        ("Im mu is an ideal of the actor", True),
        ("Im mu acts trivially on Ker mu", True)]


def test_a_failing_structure_lemma_stops_the_crossed_envelope(monkeypatch):
    failing = AxiomReport("lb crossed module structure")
    failing.add("Im mu is an ideal of the actor", False)
    monkeypatch.setattr(actions, "lemma_crossed_checks", lambda xm: failing)
    with pytest.raises(LemmaViolation) as exc:
        xud_full(fixtures.get("xlb-ideal-e-f2"), 2)
    assert str(exc.value) == ("structure lemma failed: "
                              "Im mu is an ideal of the actor at None")
    assert exc.value.report is failing


def test_action_by_ambient_products_rejects_an_actee_the_actor_leaves():
    """span{y} of the Heisenberg algebra is closed (abelian), but the
    identity actor takes y to [x, y] = z, outside it."""
    h = fixtures.get("lie-heis-3-q")
    y = Subspace.span(QQ, [[QQ.zero(), QQ.one(), QQ.zero()]], 3)
    with pytest.raises(InvalidAction,
                       match="^ambient product leaves the actee image$"):
        action_by_ambient_products(AlgebraMorphism.identity(h), y)


def test_action_by_ambient_products_matches_fixture():
    xm = fixtures.get("xdias-ideal-incl-f2")
    assert xm.action.check().passed
    assert xm.actor.dim == 3 and xm.actee.dim == 2


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
