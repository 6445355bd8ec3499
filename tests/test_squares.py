"""The square table: every row is two composable paths of registered functor
tags, every bundled fixture gives EQUAL, and every canonical witness is a
verified isomorphism between the two composites.

The composites agree on every bundled fixture, so ``check_square`` never
reaches a witness there.  The witness test makes the comparison answer
"different" and the search answer "nothing", so only the row's canonical
witness can give ISOMORPHIC.  With the comparison answering "different",
a search that ``--cap`` refuses makes ``verify`` exit 3.
"""

import pytest

from diacat import cli, fixtures, functors
from diacat.actions import CrossedModule
from diacat.algebra import (Algebra, AlgebraMorphism, BilinearMap,
                            make_algebra)
from diacat.errors import NotWellDefined
from diacat.fields import GF
from diacat.functors import (FUNCTOR_TAGS, _SQUARES, _verdict, apply_functor,
                             check_square, find_algebra_isomorphism,
                             square_fixture_kind, square_flavors, square_ids)
from diacat.linalg import inverse

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
        assert row.witness is None or row.expected == "ISOMORPHIC"
        battery = _bundled(kind, flavor)
        assert battery, (square_id, flavor)
        for name, obj in battery:
            rep = check_square(square_id, obj)
            assert (rep.verdict, rep.passed) == ("EQUAL", True), name


# the rows with a canonical witness, and the size of their battery
WITNESSED = [("2.8-outer", "dias", 4), ("LbDias-XUd-J1", "lb", 4),
             ("AsLie-I1", "lie", 2)]


@pytest.mark.parametrize("square_id,flavor,count", WITNESSED,
                         ids=[w[0] for w in WITNESSED])
def test_canonical_witness_is_a_verified_isomorphism(monkeypatch, square_id,
                                                     flavor, count):
    row = _SQUARES[square_id][flavor]
    assert row.witness is not None
    battery = _bundled("algebra", flavor)
    assert len(battery) == count
    composites = {name: (_compose(row.first, obj),
                         _compose(row.second, obj))
                  for name, obj in battery}
    reps, searches = {}, []
    with monkeypatch.context() as mp:
        mp.setattr(Algebra, "same_structure", lambda self, other: False)
        mp.setattr(CrossedModule, "same_structure", lambda self, other: False)
        for find in ("find_algebra_isomorphism", "find_xmod_isomorphism"):
            mp.setattr(functors, find, lambda *args: searches.append(args))
        for name, obj in battery:
            reps[name] = check_square(square_id, obj)
        # the canonical witness answered before any search
        assert searches == []
        # without the canonical witness, the differing composites fail
        mp.setitem(_SQUARES[square_id], flavor, row._replace(witness=None))
        rep = check_square(square_id, battery[0][1])
        assert (rep.verdict, rep.detail) == ("FAIL",
                                             " no isomorphism witness found")
    xmod = flavor in ("lb", "lie")
    for name, rep in reps.items():
        assert (rep.verdict, rep.passed) == ("ISOMORPHIC", True), name
        w, (o1, o2) = rep.witness, composites[name]
        assert w.source.same_structure(o1), name
        assert w.target.same_structure(o2), name
        assert w.check().passed, name
        for m in (w.alpha, w.beta) if xmod else (w,):
            assert inverse(m.matrix) is not None, name


def _lb(triples):
    return make_algebra("lb", F2, [BilinearMap.from_triples(F2, 2, 2, 2,
                                                            triples)])


def test_verdict_helper_reaches_every_outcome():
    # [e0, e0] = e1 and [e1, e1] = e0: isomorphic by the swap, not equal
    a, b = _lb([(0, 0, 1, 1)]), _lb([(1, 1, 0, 1)])
    ab = _lb([])
    search = (lambda: find_algebra_isomorphism(a, b))
    not_bijective = (lambda: AlgebraMorphism.zero(a, b))

    rep = _verdict("t", "ISOMORPHIC", a, a, [])
    assert (rep.verdict, rep.witness, rep.detail) == ("EQUAL", None, "")

    def broken():
        raise NotWellDefined("a witness builder that fails")

    rep = _verdict("t", "ISOMORPHIC", a, b,
                   [broken, lambda: None, not_bijective, search])
    assert (rep.verdict, rep.passed, rep.detail) == ("ISOMORPHIC", True, "")
    assert rep.witness.is_morphism() and rep.witness.is_bijective()

    rep = _verdict("t", "ISOMORPHIC", a, ab,
                   [lambda: find_algebra_isomorphism(a, ab),
                    lambda: AlgebraMorphism.zero(a, ab)])
    assert (rep.verdict, rep.passed) == ("FAIL", False)
    assert rep.detail == " no isomorphism witness found"

    # an EQUAL row never tries its witnesses
    rep = _verdict("t", "EQUAL", a, b, [broken])
    assert (rep.verdict, rep.passed) == ("FAIL", False)
    assert rep.detail == " composites are not tensor-identical"

    # a builder's own failure is a DiacatError; anything else is a bug
    def asserting():
        raise AssertionError("a witness builder with a bug")

    with pytest.raises(AssertionError, match="with a bug"):
        _verdict("t", "ISOMORPHIC", a, b, [asserting, search])


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
