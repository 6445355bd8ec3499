"""The square table: every row is two composable paths of registered functor
tags, and every bundled fixture gives EQUAL.

A square passes EQUAL when its composites are tensor-identical.  Otherwise
an ISOMORPHIC row passes only through a searched isomorphism, re-checked as
a bijective morphism.  The search refuses Q, so over Q such a row can pass
only as EQUAL, and its FAIL detail names the refusal.  The search tests
make the comparison answer "different"; with ``--cap 0`` the refused
search makes ``verify`` exit 3.  The envelope squares are also EQUAL on
every two-dim Leibniz algebra over F2 and F3, and the bar-unit dialgebra
is an input on which 2.8-outer fails.
"""

import json

import pytest

from diacat import cli, documents, fixtures, functors
from diacat.actions import CrossedModule, identity_xmod, zero_xmod
from diacat.algebra import (Algebra, AlgebraMorphism, BilinearMap,
                            make_algebra)
from diacat.errors import InvalidAlgebra, NotWellDefined, SearchSpaceTooLarge
from diacat.fields import GF, QQ
from diacat.functors import (FUNCTOR_TAGS, _SQUARES, _verdict, apply_functor,
                             check_square, square_fixture_kind, square_flavors,
                             square_ids)
from diacat.linalg import Matrix, inverse

import oracles

F2 = GF(2)


def _compose(path, obj, bound=2):
    for tag in path:
        obj = apply_functor(tag, obj, bound)
    return obj


def _bundled(kind, flavor):
    return [(name, obj) for name, obj in fixtures.by_kind(kind)
            if obj.flavor == flavor]


@pytest.mark.parametrize("square_id", square_ids())
def test_every_square_row_is_two_composable_tag_paths(square_id):
    kind = square_fixture_kind(square_id)
    for flavor in square_flavors(square_id):
        row = _SQUARES[square_id][flavor]
        assert len(row.first) == len(row.second) == 2
        for path in (row.first, row.second):
            functors_ = [FUNCTOR_TAGS[tag] for tag in path]
            for a, b in zip(functors_, functors_[1:]):
                assert a.target == b.source, (flavor, path)
        source = FUNCTOR_TAGS[row.first[0]].source
        assert source in (flavor.capitalize(), "X" + flavor.capitalize())
        assert source.startswith("X") == (kind == "xmod")
        assert FUNCTOR_TAGS[row.second[0]].source == source
        assert (FUNCTOR_TAGS[row.first[-1]].target
                == FUNCTOR_TAGS[row.second[-1]].target)
        assert row.expected in ("EQUAL", "ISOMORPHIC")
        battery = _bundled(kind, flavor)
        assert battery, (square_id, flavor)
        for name, obj in battery:
            rep = check_square(square_id, obj)
            assert (rep.verdict, rep.passed) == ("EQUAL", True), name


# the rows registered ISOMORPHIC on algebra fixtures, and the size of the
# F2 and Q parts of their battery
ISOMORPHIC_ROWS = [("2.8-outer", "dias", 3, 1), ("LbDias-XUd-J1", "lb", 3, 1),
                   ("AsLie-I1", "lie", 1, 1)]


@pytest.mark.parametrize("square_id,flavor,n_f2,n_q", ISOMORPHIC_ROWS,
                         ids=[r[0] for r in ISOMORPHIC_ROWS])
def test_differing_composites_pass_only_by_a_verified_search(
        monkeypatch, square_id, flavor, n_f2, n_q):
    row = _SQUARES[square_id][flavor]
    assert row.expected == "ISOMORPHIC"
    battery = _bundled("algebra", flavor)
    assert sorted(obj.field.name for _, obj in battery) == \
        sorted([F2.name] * n_f2 + [QQ.name] * n_q)
    with monkeypatch.context() as mp:
        mp.setattr(Algebra, "same_structure", lambda self, other: False)
        mp.setattr(CrossedModule, "same_structure", lambda self, other: False)
        reps = {name: check_square(square_id, obj) for name, obj in battery}
    xmod = flavor in ("lb", "lie")
    for name, obj in battery:
        rep = reps[name]
        if obj.field != F2:
            # the search refuses Q, and the detail says so
            assert (rep.verdict, rep.passed, rep.detail) == (
                "FAIL", False, " isomorphism search failed: Q is not finite"
            ), name
            continue
        assert (rep.verdict, rep.passed) == ("ISOMORPHIC", True), name
        w = rep.witness
        assert w.source.same_structure(_compose(row.first, obj)), name
        assert w.target.same_structure(_compose(row.second, obj)), name
        assert w.check().passed, name
        for m in (w.alpha, w.beta) if xmod else (w,):
            assert inverse(m.matrix) is not None, name


def _lb(triples, field=F2):
    return make_algebra("lb", field, [
        BilinearMap.from_triples(field, 2, 2, 2, triples)])


def test_verdict_helper_reaches_every_outcome(monkeypatch):
    # [e0, e0] = e1 and [e1, e1] = e0: isomorphic by the swap, not equal
    a, b = _lb([(0, 0, 1, 1)]), _lb([(1, 1, 0, 1)])
    ab = _lb([])

    rep = _verdict("t", "ISOMORPHIC", a, a)
    assert (rep.verdict, rep.witness, rep.detail) == ("EQUAL", None, "")

    rep = _verdict("t", "ISOMORPHIC", a, b)
    assert (rep.verdict, rep.passed, rep.detail) == ("ISOMORPHIC", True, "")
    assert rep.witness.is_morphism() and rep.witness.is_bijective()

    rep = _verdict("t", "ISOMORPHIC", a, ab)
    assert (rep.verdict, rep.passed) == ("FAIL", False)
    assert rep.detail == " no isomorphism witness found"

    # a refused search is no verdict
    with pytest.raises(SearchSpaceTooLarge):
        _verdict("t", "ISOMORPHIC", a, b, 0)

    def broken(*args):
        raise NotWellDefined("a search that fails")

    monkeypatch.setattr(functors, "find_algebra_isomorphism", broken)
    # an EQUAL row never searches
    rep = _verdict("t", "EQUAL", a, b)
    assert (rep.verdict, rep.passed) == ("FAIL", False)
    assert rep.detail == " composites are not tensor-identical"
    # a search that fails is a FAIL that names the failure
    rep = _verdict("t", "ISOMORPHIC", a, b)
    assert (rep.verdict, rep.passed, rep.witness, rep.detail) == (
        "FAIL", False, None, " isomorphism search failed: a search that fails")

    # what the search returns is re-checked: the zero map is a morphism
    # but not bijective, the identity matrix bijective but no morphism
    for found in (AlgebraMorphism.zero(a, b),
                  AlgebraMorphism(a, b, Matrix.identity(F2, 2))):
        monkeypatch.setattr(functors, "find_algebra_isomorphism",
                            lambda *args, found=found: found)
        rep = _verdict("t", "ISOMORPHIC", a, b)
        assert (rep.verdict, rep.detail) == ("FAIL",
                                             " no isomorphism witness found")

    # a search's own failure is a DiacatError; anything else is a bug
    def asserting(*args):
        raise AssertionError("a search with a bug")

    monkeypatch.setattr(functors, "find_algebra_isomorphism", asserting)
    with pytest.raises(AssertionError, match="with a bug"):
        _verdict("t", "ISOMORPHIC", a, b)


def test_a_refused_search_in_a_square_exits_3(monkeypatch, capsys):
    # differing composites send the square to its search, which --cap 0
    # refuses: a cap error, as from a round trip, not a failed square
    monkeypatch.setattr(Algebra, "same_structure", lambda self, other: False)
    monkeypatch.setattr(CrossedModule, "same_structure",
                        lambda self, other: False)
    rc = cli.main(["verify", "square:base-XUd-XU", "xlb-ideal-e-f2",
                   "--cap", "0"])
    out, err = capsys.readouterr()
    assert (rc, out) == (cli.EXIT_CAP, ""), err
    assert err.startswith("resource cap exceeded: ")


# D = <a, b> over F2 with x -| y = phi(y) x and x |- y = phi(x) y, where
# phi(a) = 0 and phi(b) = 1: a dialgebra whose bar unit b is no unit of AS
BAR_UNIT = {"basis": ["a", "b"], "dim": 2, "field": "Fp", "p": 2,
            "flavor": "dias", "left": [[0, 1, 0, "1"], [1, 1, 1, "1"]],
            "right": [[1, 0, 0, "1"], [1, 1, 1, "1"]]}


def test_bar_unit_dialgebra_fails_the_mixed_square(tmp_path, capsys):
    # the composites of 2.8-outer differ in dimension, so no witness exists
    path = tmp_path / "bar-unit.json"
    path.write_text(json.dumps(BAR_UNIT))
    assert cli.main(["check", str(path)]) == 0
    d = documents.algebra_from_document(BAR_UNIT)
    assert _compose(("AS", "Liea"), d).dim == 1
    assert _compose(("LB", "Liel"), d).dim == 2
    capsys.readouterr()
    assert cli.main(["verify", "square:2.8-outer", str(path)]) == 1
    [result] = json.loads(capsys.readouterr().out)["results"]
    assert (result["verdict"], result["detail"]) == (
        "FAIL", "no isomorphism witness found")


def _lb_algebras(p):
    """Every valid two-dim Leibniz bracket table over F_p."""
    field = GF(p)
    for table in oracles.all_tensors(p, 2):
        try:
            yield _lb([(i, j, k, c) for i in range(2) for j in range(2)
                       for k, c in enumerate(table[i][j]) if c], field)
        except InvalidAlgebra:
            continue


def test_envelope_squares_are_equal_beyond_the_fixtures():
    small = [g for p in (2, 3) for g in _lb_algebras(p)]
    assert len(small) == 13 + 41
    # leibniz-ff-e in the basis (f, e + f): every bracket is e = -f + (e + f)
    rebased = _lb([(i, j, k, c) for i in range(2) for j in range(2)
                   for k, c in ((0, -1), (1, 1))], QQ)
    heis = fixtures.get("lie-heis-3-q")
    cases = [case for g in small + [rebased] for case in (
        ("LbDias-XUd-J0", g), ("LbDias-XUd-J1", g),
        ("base-XUd-XU", identity_xmod(g)), ("base-XUd-XU", zero_xmod(g)))]
    cases += [("AsLie-I0", heis), ("AsLie-I1", heis)]
    cases += [("base-XUd-XU", apply_functor("IncXLieXLb", xm))
              for xm in (identity_xmod(heis), zero_xmod(heis))]
    for n, (square_id, obj) in enumerate(cases):
        assert check_square(square_id, obj).verdict == "EQUAL", (n, square_id)
