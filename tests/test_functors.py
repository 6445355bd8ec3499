import contextlib
import gc
import io
import tracemalloc

import pytest

from diacat import adjunctions, cli, equations, fixtures, functors
from diacat.actions import XmodMorphism
from diacat.batteries import _CHAIN_PAIRS
from diacat.algebra import (AxiomReport, BilinearMap, abelian_algebra,
                            make_algebra)
from diacat.errors import (DiacatError, DimensionMismatch,
                           InvalidCrossedModule, SearchSpaceTooLarge)
from diacat.fields import GF, QQ
from diacat.functors import (FUNCTOR_TAGS, apply_functor, check_parallelepiped,
                             check_square,
                             cokernel_of_mu, embed, enumerate_generated_homs,
                             enumerate_homs, enumerate_xmod_homs,
                             find_algebra_isomorphism, find_xmod_isomorphism,
                             project, square_fixture_kind, square_flavors,
                             square_ids, verify_adjunction_chain,
                             verify_adjunction_ud, verify_adjunction_xud)
from diacat.lifts import (inc_xas_to_xdias, inc_xlie_to_xlb, xas_of_xdias,
                          xlb_of_xdias, xliea_of_xas, xliel_of_xlb)
from diacat.linalg import Matrix

F2 = GF(2)
F3 = GF(3)


def test_functor_tag_registry_is_closed():
    assert len(FUNCTOR_TAGS) == 36
    cats = {"Dias", "Lb", "As", "Lie", "XDias", "XLb", "XAs", "XLie"}
    for tag, (src, dst, _build, _truncated) in FUNCTOR_TAGS.items():
        assert src in cats and dst in cats, tag


def test_algebra_functors_flavor_contract():
    d = fixtures.get("free-dias-1-2-f2")
    assert apply_functor("LB", d).flavor == "lb"
    assert apply_functor("AS", d).flavor == "as"
    a = apply_functor("AS", d)
    assert apply_functor("Liea", a).flavor == "lie"
    g = apply_functor("LB", d)
    assert apply_functor("Liel", g).flavor == "lie"
    lie = apply_functor("Liel", g)
    assert apply_functor("IncLieLb", lie).flavor == "lb"
    assert apply_functor("IncAsDias", a).flavor == "dias"


def test_leibnization_bracket_values():
    d = fixtures.get("free-dias-1-2-f2")
    g = apply_functor("LB", d)
    # [x, x] = x -| x - x |- x: components on basis {x, x-|x, x|-x}
    out = dict(g.bracket.pair(0, 0))
    assert out == {1: F2.one(), 2: F2.one()}


def test_crossed_leibnization_matches_algebra_level():
    xm = fixtures.get("xdias-ideal-incl-f2")
    xlb = xlb_of_xdias(xm)
    assert xlb.flavor == "lb"
    assert xlb.actor.same_structure(apply_functor("LB", xm.actor))
    assert xlb.check().passed


def test_crossed_associativization_is_a_quotient():
    xm = fixtures.get("xdias-ideal-incl-f2")
    out, projs = xas_of_xdias(xm)
    assert out.flavor == "as"
    assert projs.check().passed
    assert out.actor.dim <= xm.actor.dim


def _failing_check(self):
    report = AxiomReport("forced crossed-module morphism")
    report.add("forced to fail", False, None)
    return report


def test_a_failing_projection_pair_raises_a_diacat_error(monkeypatch):
    # the projections of a universal quotient are certified; a failing
    # certificate raises the package's own error, also under python -O
    monkeypatch.setattr(XmodMorphism, "check", _failing_check)
    with pytest.raises(DiacatError, match="forced to fail at None"):
        xas_of_xdias(fixtures.get("xdias-ideal-incl-f2"))


LIFT_SOURCES = {xlb_of_xdias: "dias", xas_of_xdias: "dias",
                xliel_of_xlb: "lb", xliea_of_xas: "as",
                inc_xas_to_xdias: "as", inc_xlie_to_xlb: "lie"}


@pytest.mark.parametrize("lift", LIFT_SOURCES, ids=lambda f: f.__name__)
def test_a_lift_refuses_an_algebra_and_another_flavor(lift):
    """Each crossed lift checks its input before it reads an action: an
    algebra, or a crossed module of another flavor, raises
    InvalidCrossedModule."""
    with pytest.raises(InvalidCrossedModule, match="expects a"):
        lift(fixtures.get("leibniz-ff-e-f2"))
    others = {xm.flavor: xm for _, xm in fixtures.by_kind("xmod")
              if xm.flavor != LIFT_SOURCES[lift]}
    assert len(others) == 3
    for xm in others.values():
        with pytest.raises(InvalidCrossedModule, match="expects a"):
            lift(xm)


def test_crossed_lie_quotient_returns_its_projection_pair():
    xm = fixtures.get("xlb-ideal-e-f2")
    out, projs = xliel_of_xlb(xm)
    assert out.flavor == "lie"
    assert projs.source is xm
    assert projs.target.same_structure(inc_xlie_to_xlb(out))
    assert projs.check().passed


def test_crossed_lie_functors():
    xm = fixtures.get("xlb-ideal-e-f2")
    xlie = xliel_of_xlb(xm)[0]
    assert xlie.flavor == "lie"
    assert xlie.check().passed
    xa = fixtures.get("xas-ident-nilp2-f2")
    assert xliea_of_xas(xa).flavor == "lie"
    assert inc_xas_to_xdias(xa).flavor == "dias"
    assert inc_xlie_to_xlb(xlie).flavor == "lb"


def test_embed_project_round_trips():
    g = fixtures.get("leibniz-ff-e-f2")
    j1 = embed("J1'", g)
    assert j1.actee.dim == j1.actor.dim == 2
    assert project("U1'", j1).same_structure(g)
    assert project("U2'", j1).same_structure(g)
    j0 = embed("J0'", g)
    assert j0.actee.dim == 0
    assert project("U1'", j0).same_structure(g)
    coker, proj = cokernel_of_mu(fixtures.get("xlb-ideal-e-f2"))
    assert coker.dim == 1
    assert proj.check().passed


def test_enumerate_homs_frozen_count():
    g = fixtures.get("leibniz-ff-e-f2")
    homs = enumerate_homs(g, g, 2 ** 20)
    assert len(homs) == 4
    from diacat.envelope import ud
    env = ud(g, 2)
    d = fixtures.get("free-dias-1-2-f2")
    gen = enumerate_generated_homs(env, d, 2 ** 20)
    full = enumerate_homs(env.algebra, d, 2 ** 20)
    assert {m.matrix for m in gen} == {m.matrix for m in full}


def test_enumerate_homs_cap():
    g = fixtures.get("leibniz-ff-e-f2")
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_homs(g, g, 3)


def test_cap_counts_the_candidates_the_search_tests():
    """3^9 matrices, but the bracket fixes the image of z = [x, y] once
    those of x and y are chosen: 27 + 729 + 729 candidates are tested."""
    h = make_algebra("lie", F3, [BilinearMap.from_triples(
        F3, 3, 3, 3, [(0, 1, 2, 1), (1, 0, 2, -1)])])
    assert len(enumerate_homs(h, h, 10_000)) == 729
    assert len(enumerate_homs(h, h, 1485)) == 729
    with pytest.raises(SearchSpaceTooLarge) as exc:
        enumerate_homs(h, h, 1484)
    assert (exc.value.cardinality, exc.value.cap) == (1485, 1484)


def test_cap_counts_every_column_an_unconstrained_search_tests():
    """With no equation to cut the search, the one-column prefixes count
    too: 4 + 16 candidates for the 16 maps of an abelian F2^2, so a cap
    of 16, which let the parent scan all 16 matrices, now refuses."""
    ab = abelian_algebra("lie", F2, 2)
    assert len(enumerate_homs(ab, ab, 20)) == 16
    with pytest.raises(SearchSpaceTooLarge) as exc:
        enumerate_homs(ab, ab, 16)
    assert (exc.value.cardinality, exc.value.cap) == (17, 16)


def test_a_refused_search_builds_at_most_cap_plus_one_points():
    """2^18 points in the one column of an abelian F2 -> F2^18 search: a
    cap of 1000 stops it at the 1001st point tried, and the list the search
    keeps for reuse holds only points it tried, so memory stays small."""
    src, tgt = abelian_algebra("lie", F2, 1), abelian_algebra("lie", F2, 18)
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge) as exc:
            enumerate_homs(src, tgt, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (exc.value.cardinality, exc.value.cap) == (1001, 1000)
    assert peak < 8 * 2 ** 20, peak


def test_one_plan_per_hom_set(monkeypatch):
    """``verify adjunction:chain:1`` lists 8 crossed-module hom-sets, whose
    actor maps take 8 of its 24 algebra hom-sets.  Each hom-set builds one
    search plan, 32 in all, and each plan classifies its equations and
    looks for a determining one once per depth, however many actor maps
    beta its run is repeated for.  Searched afresh for every beta, the same
    battery made 60 searches and 120 such look-ups."""
    calls = {"_determining": 0, "enumerate_homs": 0,
             "enumerate_xmod_homs": 0}
    depths = []
    for name in calls:
        module = equations if name == "_determining" else functors
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    class CountedPlan(equations._Plan):
        def __init__(self, f, widths, *args):
            depths.append(len(widths))
            super().__init__(f, widths, *args)
    monkeypatch.setattr(equations, "_Plan", CountedPlan)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["verify", "adjunction:chain:1"]) == 0, err.getvalue()
    assert (calls["enumerate_homs"], calls["enumerate_xmod_homs"]) == (24, 8)
    assert len(depths) == 24 + 8
    assert calls["_determining"] == sum(depths) == 62


def test_a_finished_search_leaves_no_cyclic_garbage():
    """With the cycle collector off, every object a hom search made is
    freed by reference counting once the hom-set is listed: nothing is
    left for ``gc.collect``."""
    a = make_algebra("as", F3, [BilinearMap.from_triples(
        F3, 4, 4, 4, [(0, 0, 1, 1), (0, 1, 2, 1), (1, 0, 2, 1)])])
    x = fixtures.get("xlb-ideal-e-f2")
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_homs(a, a)) == 1215
        assert gc.collect() == 0
        assert len(enumerate_xmod_homs(x, x)) > 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_matrices_are_built_unchecked_and_public_ones_checked(
        monkeypatch):
    """A search fixes its column lengths once, so each morphism's matrix
    comes from ``Matrix._prechecked_cols`` and none from the checking
    ``from_cols``, which still refuses ragged columns."""
    built = {"from_cols": 0, "_prechecked_cols": 0}
    for name in built:
        real = getattr(Matrix, name).__func__

        def counted(cls, *args, name=name, real=real):
            built[name] += 1
            return real(cls, *args)
        monkeypatch.setattr(Matrix, name, classmethod(counted))
    ab2, ab3 = abelian_algebra("lie", F3, 2), abelian_algebra("lie", F3, 3)
    homs = enumerate_homs(ab2, ab3)
    assert len(homs) == 3 ** 6
    assert built == {"from_cols": 0, "_prechecked_cols": 3 ** 6}
    monkeypatch.undo()
    for h in homs[::50]:
        cols = [h.matrix.col(j) for j in range(2)]
        assert Matrix.from_cols(F3, cols, 3) == h.matrix
    with pytest.raises(DimensionMismatch):
        Matrix.from_cols(F3, [[0, 1, 2], [1, 2]], 3)


@pytest.mark.parametrize("m,n", [(0, 2), (2, 0)])
def test_hom_matrices_at_a_zero_dim_end(m, n):
    """The one morphism out of or into the 0-dim algebra has the shape and
    entries ``Matrix.from_cols`` gives its columns: 2 empty rows for
    0 -> 2, and no rows for 2 -> 0."""
    f = GF(3)
    (h,) = enumerate_homs(abelian_algebra("lie", f, m),
                          abelian_algebra("lie", f, n))
    want = Matrix.from_cols(f, [(f.zero(),) * n] * m, n)
    assert (h.matrix.rows, h.matrix.cols) == (want.rows, want.cols) == (n, m)
    assert h.matrix.entries == want.entries
    assert want.entries == {(0, 2): ((), ()), (2, 0): ()}[m, n]


def test_enumerate_homs_rejects_infinite_field():
    g = fixtures.get("leibniz-ff-e")
    with pytest.raises(DiacatError):
        enumerate_homs(g, g, 2 ** 20)


def test_enumerate_xmod_homs_frozen_count():
    j1 = fixtures.get("xlb-ident-abelian-1-f2")
    homs = enumerate_xmod_homs(j1, j1, 2 ** 20)
    assert len(homs) == 2
    for m in homs:
        assert m.check().passed


def test_verify_adjunction_ud_frozen():
    rep = verify_adjunction_ud(fixtures.get("lb-abelian-1-f2"),
                               fixtures.get("free-dias-1-2-f2"), 2)
    assert rep.passed and len(rep.left) == 4
    rep2 = verify_adjunction_ud(fixtures.get("leibniz-ff-e-f2"),
                                fixtures.get("free-dias-1-2-f2"), 2)
    assert rep2.passed and len(rep2.left) == 8


def test_verify_adjunction_xud_frozen():
    cases = [("xlb-zero-ff-e-f2", "xdias-zero-f2", 8),
             ("xlb-ident-abelian-1-f2", "xdias-ideal-incl-f2", 4),
             ("xlb-ideal-e-f2", "xdias-ideal-incl-f2", 8)]
    for xname, dname, count in cases:
        rep = verify_adjunction_xud(fixtures.get(xname),
                                    fixtures.get(dname), 2)
        assert rep.passed, (xname, rep.items.first_failure())
        assert len(rep.left) == count, (xname, len(rep.left))


def test_adjunction_chain_all_pairs():
    batteries = {
        "dias": ([(fixtures.get("xdias-ideal-incl-f2"),
                   fixtures.get("dias-abelian-2-f2"))],
                 ("U", "J", "")),
        "lb": ([(fixtures.get("xlb-ideal-e-f2"),
                 fixtures.get("leibniz-ff-e-f2"))],
               ("U", "J", "'")),
        "as": ([(fixtures.get("xas-ident-nilp2-f2"),
                 fixtures.get("as-nilp-2-f2"))],
               ("G", "I", "")),
        "lie": ([(fixtures.get("xlie-abelian-pair-f2"),
                  fixtures.get("lie-abelian-1-f2"))],
                ("G", "I", "'")),
    }
    for flavor, (fix, (p, e, sfx)) in batteries.items():
        for i in (0, 1):
            for pair in ((f"{p}{i}{sfx}", f"{e}{i}{sfx}"),
                         (f"{e}{i}{sfx}", f"{p}{i + 1}{sfx}")):
                rep = verify_adjunction_chain(pair, fix)
                assert rep.passed, (flavor, pair, rep.first_failure())


def test_naturality_is_checked_along_a_non_identity_endomorphism():
    # each chain battery's algebra has one, the zero map at least
    for _, name in _CHAIN_PAIRS:
        alg = fixtures.get(name)
        ident = Matrix.identity(alg.field, alg.dim)
        assert any(m.matrix != ident for m in enumerate_homs(alg, alg)), name
        assert adjunctions._pick_endo(alg, None).matrix != ident, name


def test_adjunction_chain_rejects_bad_pair():
    with pytest.raises(DiacatError):
        verify_adjunction_chain(("U2", "J2"), [])
    with pytest.raises(DiacatError):
        verify_adjunction_chain(("U0", "J0'"), [])


def test_square_registry_surface():
    ids = square_ids()
    for sq in ("2.8-outer", "2.8-inner", "LbDias-J0", "LbDias-XUd-J1",
               "AsLie-I0", "AsDias-I1", "LieLb-I0", "base-XLiea",
               "base-XUd-XU"):
        assert sq in ids
    assert square_fixture_kind("base-XLiea") == "xmod"
    assert square_fixture_kind("2.8-outer") == "algebra"
    assert "dias" in square_flavors("2.8-outer")


def test_square_verdicts_frozen():
    d = fixtures.get("free-dias-1-2")
    rep = check_square("2.8-outer", d)
    assert rep.passed and rep.verdict in ("EQUAL", "ISOMORPHIC")
    g = fixtures.get("leibniz-ff-e-f2")
    assert check_square("LbDias-XUd-J0", g).verdict == "EQUAL"
    assert check_square("LbDias-XUd-J1", g).passed
    lie = fixtures.get("lie-abelian-1-f2")
    assert check_square("AsLie-I1", lie).passed
    xm = fixtures.get("xlb-ideal-e-f2")
    assert check_square("base-XUd-XU", xm).verdict == "EQUAL"


def test_square_rejects_wrong_flavor_fixture():
    with pytest.raises(DiacatError):
        check_square("2.8-outer", fixtures.get("leibniz-ff-e-f2"))


def test_parallelepiped_all_faces():
    rep = check_parallelepiped(fixtures.get("xlb-ideal-e-f2"))
    assert rep.passed
    assert len(rep.items) == 16
    faces = {it.name.split(":", 1)[0] for it in rep.items}
    assert faces == {"top", "base", "lateral-LbDias", "lateral-AsDias",
                     "lateral-AsLie", "lateral-LieLb"}


def test_parallelepiped_from_lie_fixture():
    rep = check_parallelepiped(fixtures.get("xlie-abelian-pair-f2"))
    assert rep.passed


@pytest.mark.parametrize("name", ["xdias-ideal-incl-f2", "xas-ident-nilp2-f2"])
def test_parallelepiped_takes_only_lb_or_lie(name):
    xm = fixtures.get(name)
    assert xm.flavor in ("dias", "as")
    with pytest.raises(InvalidCrossedModule, match="lb or lie"):
        check_parallelepiped(xm)


def test_iso_search_positive_and_negative():
    g = fixtures.get("leibniz-ff-e-f2")
    assert find_algebra_isomorphism(g, g) is not None
    ab2 = abelian_algebra("lb", F2, 2)
    assert find_algebra_isomorphism(g, ab2) is None
    xm = fixtures.get("xlb-ideal-e-f2")
    assert find_xmod_isomorphism(xm, xm) is not None
    assert find_xmod_isomorphism(xm, fixtures.get("xlb-ident-ff-e-f2")) is None


def test_apply_xmod_functor_tags():
    xm = fixtures.get("xdias-ideal-incl-f2")
    assert apply_functor("XLB", xm).flavor == "lb"
    assert apply_functor("XAS", xm).flavor == "as"
    xlb = fixtures.get("xlb-ideal-e-f2")
    assert apply_functor("XLiel", xlb).flavor == "lie"
    assert apply_functor("XUd", xlb, 2).flavor == "dias"
    xlie = fixtures.get("xlie-abelian-pair-f2")
    assert apply_functor("XU", xlie, 2).flavor == "as"
    with pytest.raises(DiacatError):
        apply_functor("XUd", xlb)  # missing bound
