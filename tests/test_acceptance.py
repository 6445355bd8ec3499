"""Acceptance battery: one test per criterion, one pass/fail line each
under ``pytest -v``.  Expected values come from the independent oracles in
``oracles.py`` or are exact structural identities; nothing here is tuned.
"""

import contextlib
import io
import random
import time
from functools import lru_cache

from diacat import cli, documents, fixtures
from diacat.actions import (CrossedModule, XmodMorphism, _crossed_equations,
                            lemma_crossed_checks, self_action,
                            semidirect_homomorphism_checks, trivial_action,
                            xmod_from_ideal)
from diacat.algebra import (AlgebraMorphism, BilinearMap, Dialgebra,
                            check_dialgebra, check_leibniz, ideal_closure,
                            kernel_of)
from diacat.batteries import _BATTERIES, _battery
from diacat.cat1 import (cat1_decomposition_iso, cat1_isomorphism_report,
                         cat1_of_xmod, check_internal_category,
                         xdias_to_internal, xmod_of_cat1)
from diacat.envelope import ud, xu, xud, xud_full
from diacat.fields import GF
from diacat.functors import (apply_functor, check_parallelepiped,
                             check_square, find_xmod_isomorphism,
                             square_ids, verify_adjunction_chain,
                             verify_adjunction_ud, verify_adjunction_xud)
from diacat.lifts import _as_dias_or_lb
from diacat.linalg import Matrix, Subspace
from diacat.tags import _CONSTRUCTIONS, FUNCTOR_TAGS

import oracles

F2 = GF(2)
SEED = 20260824

XMOD_NAMES = [n for n, _ in fixtures.by_kind("xmod")]
LB_ALGEBRA_NAMES = [n for n, a in fixtures.by_kind("algebra")
                    if a.flavor == "lb"]


def _bm(n, table):
    trip = [(i, j, k, F2.one()) for i in range(n) for j in range(n)
            for k in range(n) if table[i][j][k] % 2]
    return BilinearMap.from_triples(F2, n, n, n, trip)


@lru_cache(maxsize=None)
def _dias_scan(n):
    """Exhaustive mod-2 tensor-pair scan at dimension n.

    Returns (agreement count, total, valid pair list, elapsed seconds)."""
    tables = list(oracles.all_tensors(2, n))
    bms = [_bm(n, t) for t in tables]
    exts = [oracles.bilinear_ext(2, n, t) for t in tables]
    t0 = time.monotonic()
    agree, valid = 0, []
    for a, ba in enumerate(bms):
        for b, bb in enumerate(bms):
            lib = check_dialgebra(ba, bb).passed
            orc = oracles.dias_ext_ok(2, n, exts[a], exts[b])
            if lib == orc:
                agree += 1
            if lib:
                valid.append((a, b))
    return agree, len(bms) ** 2, valid, time.monotonic() - t0


def test_criterion_01_axiom_checker_matches_direct_expansion_oracle():
    total_elapsed = 0.0
    for n in (1, 2):
        agree, total, valid, elapsed = _dias_scan(n)
        assert agree == total, f"dim {n}: {total - agree} disagreements"
        assert valid, f"dim {n}: scan found no dialgebras"
        total_elapsed += elapsed
    assert _dias_scan(2)[1] == 2 ** 8 * 2 ** 8
    assert total_elapsed < 60.0, f"scan took {total_elapsed:.1f}s"


def test_criterion_02_leibnization_always_leibniz():
    for n in (1, 2):
        tables = list(oracles.all_tensors(2, n))
        _, _, valid, _ = _dias_scan(n)
        for a, b in valid:
            d = Dialgebra(F2, _bm(n, tables[a]), _bm(n, tables[b]),
                          check=False)
            g = apply_functor("LB", d)
            assert check_leibniz(g.bracket).passed, (n, a, b)
            lb_table = oracles.leibnization_table(2, n, tables[a], tables[b])
            assert oracles.leibniz_table_ok(2, n, lb_table), (n, a, b)


def _valid_action_pool(rng):
    """Valid actions over F2 at dims <= 2: trivial, self, ideal restriction.

    The characterization being tested presupposes an action; the random
    part of each candidate is the structural morphism."""
    pool = {}
    for n in (1, 2):
        tables = list(oracles.all_tensors(2, n))
        _, _, valid, _ = _dias_scan(n)
        picks = rng.sample(valid, min(12, len(valid)))
        pool[n] = [Dialgebra(F2, _bm(n, tables[a]), _bm(n, tables[b]),
                             check=False) for a, b in picks]
    algebras = pool[1] + pool[2]
    actions = []
    for d in algebras:
        actions.append(trivial_action(d, rng.choice(algebras), check=False))
        actions.append(self_action(d, check=False))
    for d in pool[2]:
        ideal = ideal_closure(
            d, Subspace.span(F2, [[F2.one(), F2.zero()]], 2))
        actions.append(xmod_from_ideal(d, ideal).action)
    for act in actions:
        assert act.check().passed
    return actions


def test_criterion_03_crossed_axioms_iff_semidirect_maps():
    rng = random.Random(SEED)
    actions = _valid_action_pool(rng)
    rand_true = rand_false = 0
    for _ in range(1000):
        act = rng.choice(actions)
        L, D = act.actee, act.actor
        mu = AlgebraMorphism(L, D, Matrix(F2, [
            [rng.choice((F2.zero(), F2.one())) for _ in range(L.dim)]
            for _ in range(D.dim)]))
        eq = _crossed_equations(mu.check(), mu, act).passed
        maps = semidirect_homomorphism_checks(mu, act)
        maps_ok = maps.items[0].passed and maps.items[1].passed
        assert eq == maps_ok
        xm = CrossedModule(mu, act, check=False)
        assert xm.check().passed == maps_ok
        if maps_ok:
            rand_true += 1
        else:
            rand_false += 1
    assert rand_true > 0 and rand_false > 0, (rand_true, rand_false)

    for name in XMOD_NAMES:
        xm = _as_dias_or_lb(fixtures.get(name))
        maps = semidirect_homomorphism_checks(xm)
        assert xm.check().passed and maps.passed, name


def _normalized_xmods():
    out = []
    for name in XMOD_NAMES:
        xm = _as_dias_or_lb(fixtures.get(name))
        out.append((name, xm))
    return out


def test_criterion_04_cat1_equivalence_round_trips():
    t0 = time.monotonic()
    battery = _normalized_xmods()
    assert len(battery) >= 8
    for name, xm in battery:
        c = cat1_of_xmod(xm)
        back = xmod_of_cat1(c)
        if xm.same_structure(back):
            wit = XmodMorphism(xm, back, AlgebraMorphism.identity(xm.actee),
                               AlgebraMorphism.identity(xm.actor))
        else:
            wit = find_xmod_isomorphism(xm, back)
            assert wit is not None, name
        assert wit.check().passed and wit.is_bijective(), name
        c2 = cat1_of_xmod(back)
        h = cat1_decomposition_iso(c, c2)
        assert cat1_isomorphism_report(c, c2, h).passed, name
        if xm.flavor == "dias":
            ic = xdias_to_internal(xm)
            assert check_internal_category(ic).passed, name
            back2 = xmod_of_cat1(ic.cat1)
            assert xm.same_structure(back2) or \
                find_xmod_isomorphism(xm, back2) is not None, name
    assert time.monotonic() - t0 < 30.0


_UD_PAIRS = [
    ("lb-abelian-1-f2", "free-dias-1-2-f2"),
    ("lb-abelian-1-f2", "dias-abelian-2-f2"),
    ("lb-abelian-2-f2", "dias-abelian-2-f2"),
    ("lb-abelian-2-f2", "dias-assoc-tri-2-f2"),
    ("leibniz-ff-e-f2", "free-dias-1-2-f2"),
    ("leibniz-ff-e-f2", "dias-assoc-tri-2-f2"),
]


def test_criterion_05_enveloping_adjunction_at_truncation():
    assert len(_UD_PAIRS) >= 5
    for gname, dname in _UD_PAIRS:
        g, d = fixtures.get(gname), fixtures.get(dname)
        assert g.dim <= 3 and d.dim <= 3
        rep = verify_adjunction_ud(g, d, 2)
        assert rep.passed, (gname, dname, rep.items.first_failure())
        assert len(rep.left) == len(rep.right)


def test_criterion_06_crossed_enveloping_adjunction():
    cases = [("xlb-zero-ff-e-f2", "xdias-zero-f2"),
             ("xlb-ident-abelian-1-f2", "xdias-ideal-incl-f2"),
             ("xlb-ideal-e-f2", "xdias-ideal-incl-f2")]
    for xname, dname in cases:
        rep = verify_adjunction_xud(fixtures.get(xname),
                                    fixtures.get(dname), 2)
        assert rep.passed, (xname, dname, rep.items.first_failure())
        assert len(rep.left) == len(rep.right)


def test_criterion_07_envelope_commutes_with_zero_and_identity_embeddings():
    for name in LB_ALGEBRA_NAMES:
        g = fixtures.get(name)
        rep0 = check_square("LbDias-XUd-J0", g, bound=2)
        assert rep0.verdict == "EQUAL", (name, rep0.verdict)
        rep1 = check_square("LbDias-XUd-J1", g, bound=2)
        assert rep1.passed, (name, rep1.verdict)
        # the isomorphism: t-bar restricted to Ker s-bar, and the identity
        # of the base, whose coordinates are the envelope's own
        r = xud_full(apply_functor("J1'", g), 2)
        left = r.xmod
        right = apply_functor("J1", ud(g, 2).algebra)
        kers = kernel_of(r.cat1.s)
        t_restr = r.cat1.t.matrix.mul(
            Matrix.from_cols(g.field, [list(v) for v in kers.basis],
                             r.cat1.E.dim))
        alpha = AlgebraMorphism(left.actee, right.actee, t_restr)
        beta = AlgebraMorphism(left.actor, right.actor,
                               Matrix.identity(g.field, left.actor.dim))
        wit = XmodMorphism(left, right, alpha, beta)
        rep = wit.check()
        assert rep.passed and wit.is_bijective(), (name, rep.first_failure())


def test_criterion_08_flavor_squares_and_parallelepiped():
    t0 = time.monotonic()
    for sq, flavors in (("AsLie-I0", ("as", "lie")),
                        ("AsLie-I1", ("as", "lie")),
                        ("AsDias-I0", ("dias", "as")),
                        ("AsDias-I1", ("dias", "as")),
                        ("LieLb-I0", ("lb", "lie")),
                        ("LieLb-I1", ("lb", "lie"))):
        for name, alg in fixtures.by_kind("algebra"):
            if alg.flavor not in flavors or alg.field != F2:
                continue
            rep = check_square(sq, alg, bound=2)
            assert rep.passed, (sq, name, rep.verdict, rep.detail)

    prism_fixtures = [n for n, x in fixtures.by_kind("xmod")
                      if x.flavor in ("lb", "lie")]
    assert prism_fixtures
    for name in prism_fixtures:
        rep = check_parallelepiped(fixtures.get(name), bound=2)
        assert rep.passed, (name, rep.first_failure())

    # base face with an explicit witness on every Leibniz crossed module
    for name, xm in fixtures.by_kind("xmod"):
        if xm.flavor != "lb":
            continue
        o1 = apply_functor("XAS", xud(xm, 2))
        o2 = xu(apply_functor("XLiel", xm), 2)
        if o1.same_structure(o2):
            wit = XmodMorphism(o1, o2, AlgebraMorphism.identity(o1.actee),
                               AlgebraMorphism.identity(o1.actor))
        else:
            wit = find_xmod_isomorphism(o1, o2)
            assert wit is not None, name
        assert wit.check().passed and wit.is_bijective(), name
    assert time.monotonic() - t0 < 300.0


def test_criterion_09_embedding_projection_adjunction_chains():
    batteries = {
        "dias": ((apply_functor("J1", fixtures.get("dias-assoc-tri-2-f2")),
                  fixtures.get("dias-abelian-2-f2")), ("U", "J", "")),
        "lb": ((fixtures.get("xlb-ideal-e-f2"),
                fixtures.get("leibniz-ff-e-f2")), ("U", "J", "'")),
        "as": ((fixtures.get("xas-ident-nilp2-f2"),
                fixtures.get("as-nilp-2-f2")), ("G", "I", "")),
        "lie": ((fixtures.get("xlie-abelian-pair-f2"),
                 fixtures.get("lie-abelian-1-f2")), ("G", "I", "'")),
    }
    for flavor, ((xm, alg), (p, e, sfx)) in batteries.items():
        assert xm.actee.dim <= 2 and xm.actor.dim <= 2 and alg.dim <= 2
        for i in (0, 1):
            for pair in ((f"{p}{i}{sfx}", f"{e}{i}{sfx}"),
                         (f"{e}{i}{sfx}", f"{p}{i + 1}{sfx}")):
                rep = verify_adjunction_chain(pair, [(xm, alg)])
                assert rep.passed, (flavor, pair, rep.first_failure())


def _command_lines():
    """Every ``verify`` battery on its bundled inputs, and every
    ``construct`` kind on every bundled fixture, read off the command
    line's tables: a battery that reads ``--trunc`` runs at 1, 2 and 3, and
    a kind that needs ``--trunc`` gets 2."""
    for what in ([f"square:{i}" for i in square_ids()]
                 + list(_BATTERIES)):
        for trunc in ((1, 2, 3) if _battery(what).trunc else (None,)):
            yield ["verify", what] + (["--trunc", str(trunc)] if trunc else [])
    for kind in sorted(FUNCTOR_TAGS) + sorted(_CONSTRUCTIONS):
        trunc = (["--trunc", "2"] if getattr(FUNCTOR_TAGS.get(kind),
                                              "truncated", False) else [])
        for name in fixtures.names():
            yield ["construct", kind, name, *trunc]


def test_criterion_10_structure_lemma_enforced_globally(monkeypatch):
    """Ker mu lies in the annihilator of the actee, Im mu is an ideal of
    the actor and the cokernel acts on Ker mu, on every distinct crossed
    module that the command line certifies, and on every bundled one (the
    fixture cache built those before this test)."""
    certified = [xm for _, xm in fixtures.by_kind("xmod")]
    certify = CrossedModule.certify

    def collect(self):
        report = certify(self)
        certified.append(self)
        return report

    monkeypatch.setattr(CrossedModule, "certify", collect)
    for argv in _command_lines():
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            cli.main(argv)

    distinct = {documents.canonical_json(documents.xmod_to_document(xm)): xm
                for xm in certified}
    print(f"{len(distinct)} distinct crossed modules of {len(certified)} "
          "certified")
    assert len(distinct) >= 199, len(distinct)
    for xm in distinct.values():
        rep = lemma_crossed_checks(xm)
        assert rep.passed, (xm, rep.first_failure())
