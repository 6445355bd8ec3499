"""Hom enumeration, adjunction verifiers and diagram checks.

``tags.FUNCTOR_TAGS`` registers all 36 functors, and this module applies
them by tag, through ``apply_functor``; the one builder it keeps is
``cokernel_of_mu``, the U/G projection at index 0.  Every hom-set over a
finite field comes from one column-by-column search in one canonical
order, lexicographic in the columns: an ``equations._Plan``, built once
per hom-set from its compiled equations, and run once per prefix of fixed
columns.  Each adjunction is an explicit map between two enumerated
hom-sets that ``adjunctions._bijection`` certifies, and the
embedding/projection ones are rows of ``adjunctions._CHAIN_ROWS``.
``_SQUARES`` holds each commuting square of the prism, per fixture
flavor, as two paths of registered tags whose composites ``check_square``
compares, with EQUAL / ISOMORPHIC verdicts.

Every job compiles the modules it loads, so ``equations``, ``envelope``,
``cat1``, ``lifts`` and ``adjunctions`` are imported inside the functions
that run them: a square whose composites agree compiles no search, and
only the adjunction verifiers compile ``adjunctions``.  The entry points
that the benchmark's tracer rebinds by name stay here: the enumerators,
the isomorphism searches, ``check_square``, the ``verify_adjunction_*``
verifiers and ``check_parallelepiped``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .actions import CrossedModule, XmodMorphism, action_slots
from .algebra import (Algebra, AlgebraMorphism, AxiomReport,
                      derived_tower_nilpotent, image_of, quotient_algebra)
from .errors import (DiacatError, FieldMismatch, InvalidCrossedModule,
                     NotWellDefined, ResourceCapExceeded, SearchSpaceTooLarge)
from .linalg import Matrix
from .tags import FUNCTOR_TAGS, _chain_tag, apply_functor

if TYPE_CHECKING:
    from .adjunctions import BijectionReport
    from .envelope import Envelope

# ---------------------------------------------------------------------------
# the U/G projection at index 0


def cokernel_of_mu(xm: CrossedModule):
    """Quotient of the actor by the image of the structural morphism."""
    return quotient_algebra(xm.actor, image_of(xm.mu))


# ---------------------------------------------------------------------------
# hom-set enumeration


def enumerate_homs(a: Algebra, b: Algebra, cap=None) -> list:
    """All flavor morphisms a -> b over a finite field, in canonical order:
    lexicographic in the columns of the matrix, first column first.

    One ``_Plan`` over the columns, under the product equations
    ``phi(e_i e_j) = phi(e_i) phi(e_j)``, run once.
    """
    from .equations import _intertwined, _Plan
    if a.flavor != b.flavor:
        raise DiacatError("hom enumeration needs algebras of one flavor")
    if a.field != b.field:
        raise FieldMismatch("hom enumeration needs a common field")
    cols = range(a.dim)
    equations = [eq for sp, tp in zip(a.products(), b.products())
                 for eq in _intertwined(sp, tp, cols, cols, cols, b.dim)]
    f, n = a.field, b.dim
    # every column has n entries, so each matrix is n x a.dim
    of_cols, morphism = Matrix._prechecked_cols, AlgebraMorphism._prechecked
    return [morphism(a, b, of_cols(f, c, n))
            for c in _Plan(f, [n] * a.dim, equations).run(cap)]


def enumerate_generated_homs(env: Envelope, target: Algebra, cap=None) -> list:
    """All morphisms out of an envelope, by scanning generator images.

    One ``_Plan`` over the generator images with no equations, so every
    matrix is scanned in the canonical order of ``enumerate_homs``; each is
    kept when ``envelope_transpose`` extends it.  Complete because a
    morphism out of the envelope is determined by its values on generators
    (every word is an iterated product of them), and independent of the
    bracket-morphism condition the adjunction checks it against.
    """
    from .envelope import envelope_transpose
    from .equations import _Plan
    f = env.algebra.field
    n = target.dim
    found = []
    for c in _Plan(f, [n] * env.source.dim, []).run(cap):
        try:
            found.append(envelope_transpose(
                env, target, Matrix._prechecked_cols(f, c, n)))
        except NotWellDefined:
            continue
    return found


def enumerate_xmod_homs(x: CrossedModule, y: CrossedModule, cap=None) -> list:
    """All crossed-module morphisms x -> y over a finite field, in the
    lexicographic order of (beta, alpha).

    One ``_Plan`` over the columns of alpha, after those of beta, under the
    actee products, the square ``mu' alpha = beta mu`` and the
    equivariances, run once for each actor map beta from
    ``enumerate_homs``.
    """
    from .equations import (_Equation, _intertwined, _Plan, _scaled_eye,
                            _triples)
    if x.flavor != y.flavor:
        raise InvalidCrossedModule("crossed modules of different flavors")
    f = x.actee.field
    nd, m = x.actor.dim, x.actee.dim
    wd, wl = y.actor.dim, y.actee.dim
    betas, alphas = range(nd), range(nd, nd + m)
    equations = [eq for sp, tp in zip(x.actee.products(), y.actee.products())
                 for eq in _intertwined(sp, tp, alphas, alphas, alphas, wl)]
    mu, mu2 = x.mu.matrix, _triples(f, y.mu.matrix)
    for j in range(m):
        lin = {s: _scaled_eye(f, f.neg(c), wd) for s, c in enumerate(mu.col(j))}
        lin[nd + j] = mu2
        equations.append(_Equation(lin, None, wd))
    for _, pidx, side in action_slots(x.flavor):
        src, tgt = x.action.cross(pidx, side), y.action.cross(pidx, side)
        lefts, rights = (betas, alphas) if side == "DL" else (alphas, betas)
        equations.extend(_intertwined(src, tgt, lefts, rights, alphas, wl))
    found = []
    # enumerate_homs checks the actors' field, which each actee shares
    beta_homs = enumerate_homs(x.actor, y.actor, cap)
    plan = _Plan(f, [wl] * m, equations, nd)
    for beta in beta_homs:
        prefix = [beta.matrix.col(i) for i in range(nd)]
        for c in plan.run(cap, prefix):
            alpha = AlgebraMorphism._prechecked(
                x.actee, y.actee, Matrix._prechecked_cols(f, c, wl))
            found.append(XmodMorphism(x, y, alpha, beta))
    return found


# ---------------------------------------------------------------------------
# adjunction verification


def verify_adjunction_ud(g, d, bound: int, cap=None) -> BijectionReport:
    """Bijection between morphisms out of the envelope and bracket
    morphisms into LB of the target, by restriction to generators."""
    from .adjunctions import BijectionReport, _bijection, _splits
    from .envelope import ud
    if not derived_tower_nilpotent(d, bound):
        raise NotWellDefined("target dialgebra is not nilpotent within the bound")
    env = ud(g, bound)
    lbd = apply_functor("LB", d)
    right = enumerate_homs(g, lbd, cap)
    left = enumerate_generated_homs(env, d, cap)
    report = AxiomReport("envelope adjunction")
    _bijection(report, left, right, [F.matrix.mul(env.eta) for F in left],
               {m.matrix for m in right},
               ("restriction to generators is a bracket morphism",
                "restriction map injective", "restriction map surjective"))
    report.add("transpose splits the restriction",
               all(_splits(env, d, psi.matrix) for psi in right))
    return BijectionReport(left, right, report)


def verify_adjunction_xud(xlb: CrossedModule, xdias: CrossedModule,
                          bound: int, cap=None) -> BijectionReport:
    """Crossed-module envelope adjunction, verified against enumeration."""
    from .adjunctions import (BijectionReport, _bijection, _pair_key,
                              xud_transpose, xud_unit_maps)
    from .cat1 import cat1_of_xmod
    from .envelope import xud_full
    from .lifts import _expect_xm
    _expect_xm(xlb, "lb", "verify_adjunction_xud")
    _expect_xm(xdias, "dias", "verify_adjunction_xud")
    c_t = cat1_of_xmod(xdias)
    if not derived_tower_nilpotent(c_t.E, bound):
        raise NotWellDefined(
            "target semidirect algebra is not nilpotent within the bound")
    r = xud_full(xlb, bound)
    xlb_t = apply_functor("XLB", xdias)
    right = enumerate_xmod_homs(xlb, xlb_t, cap)
    left = enumerate_xmod_homs(r.xmod, xdias, cap)
    report = AxiomReport("crossed envelope adjunction")

    def transpose(m):
        return xud_transpose(r, xdias, m.alpha.matrix, m.beta.matrix)

    _bijection(report, left, right, [_pair_key(transpose(m)) for m in right],
               {_pair_key(m) for m in left},
               ("transpose lands in the enumerated morphisms",
                "transpose injective", "transpose surjective"))
    unit_actee, unit_actor = xud_unit_maps(r)
    report.add("precomposition with the units recovers the original",
               all(_pair_key(m) == (out.alpha.matrix.mul(unit_actee),
                                    out.beta.matrix.mul(unit_actor))
                   for m, out in zip(right, map(transpose, right))))
    return BijectionReport(left, right, report)


def verify_adjunction_chain(tagpair, fixtures, cap=None) -> AxiomReport:
    """Hom-set bijections for the embedding/projection adjunctions.

    ``tagpair`` is (left adjoint, right adjoint); fixtures are (crossed
    module, algebra) pairs of the matching flavor.  For each fixture both
    hom-sets are enumerated, left first, the explicit bijection is applied
    elementwise, and one naturality square is spot-checked.
    """
    from .adjunctions import (_CHAIN_ROWS, _bijection, _chain_kind, _pair_key,
                              _pick_endo)
    flavor, kind, i = _chain_kind(tagpair)
    algebra_side, restrict = _CHAIN_ROWS[kind, i]
    report = AxiomReport(f"adjunction {tagpair[0]} -| {tagpair[1]}")
    for n, (xm, alg) in enumerate(fixtures):
        if xm.flavor != flavor or alg.flavor != flavor:
            raise InvalidCrossedModule(
                f"fixture {n} does not match flavor {flavor!r}")
        prefix = f"[{n}] "
        emb = apply_functor(_chain_tag(flavor, 1, i), alg)
        # naturality in the algebra argument is checked along u
        u = _pick_endo(alg, cap)
        emb_u = XmodMorphism(
            emb, emb,
            AlgebraMorphism.identity(emb.actee) if i == 0
            else AlgebraMorphism(emb.actee, emb.actee, u.matrix),
            u)
        if restrict is None:  # Hom(P xm, a) -> Hom(xm, J a) by lifting
            left, lift = algebra_side(xm, alg, emb, cap)
            right = enumerate_xmod_homs(xm, emb, cap)
            lifts = [lift(h) for h in left]
            valid = all([m.check().passed for m in lifts])
            _bijection(report, left, right, [_pair_key(m) for m in lifts],
                       {_pair_key(m) for m in right},
                       "bijection onto the enumerated hom-set", prefix,
                       [("transposes are valid crossed morphisms", valid)])
            natural = all(_pair_key(lift(u.compose(h)))
                          == _pair_key(emb_u.compose(m))
                          for h, m in zip(left, lifts))
        else:  # Hom(J a, xm) -> Hom(a, P xm) by restriction
            left = enumerate_xmod_homs(emb, xm, cap)
            right, lift = algebra_side(xm, alg, emb, cap)
            _bijection(report, left, right,
                       [restrict(m).matrix for m in left],
                       {h.matrix for h in right},
                       "restriction is a bijection", prefix)
            report.add(prefix + "section by the explicit inverse",
                       all(m.check().passed and restrict(m).matrix == h.matrix
                           for h, m in zip(right, map(lift, right))))
            natural = all(restrict(m.compose(emb_u)).matrix
                          == restrict(m).matrix.mul(u.matrix) for m in left)
        report.add(prefix + "naturality square", natural)
    return report


# ---------------------------------------------------------------------------
# commuting squares


def find_algebra_isomorphism(a, b, cap=None):
    if a.dim != b.dim:
        return None
    for m in enumerate_homs(a, b, cap):
        if m.is_bijective():
            return m
    return None


def find_xmod_isomorphism(x, y, cap=None):
    if x.actee.dim != y.actee.dim or x.actor.dim != y.actor.dim:
        return None
    for m in enumerate_xmod_homs(x, y, cap):
        if m.is_bijective():
            return m
    return None


class CommutativityReport(NamedTuple):
    square_id: str
    expected: str
    verdict: str
    witness: object = None
    detail: str = ""

    @property
    def passed(self):
        if self.verdict == "EQUAL":
            return True
        return self.expected == "ISOMORPHIC" and self.verdict == "ISOMORPHIC"


def _verdict(square_id, expected, o1, o2, cap=None):
    """The square's report on composites o1, o2: EQUAL when they are
    tensor-identical, else, on an ISOMORPHIC row, ISOMORPHIC when the
    search finds an isomorphism that is re-checked as a bijective morphism.
    A search that fails with a DiacatError (over Q: "Q is not finite") is
    a FAIL whose detail names that failure, but a refused search is no
    verdict: its cap error propagates, as it does from a round trip."""
    if o1.same_structure(o2):
        return CommutativityReport(square_id, expected, "EQUAL")
    if expected == "EQUAL":
        return CommutativityReport(square_id, expected, "FAIL", None,
                                   " composites are not tensor-identical")
    find = find_xmod_isomorphism if isinstance(o1, CrossedModule) \
        else find_algebra_isomorphism
    try:
        w = find(o1, o2, cap)
    except (ResourceCapExceeded, SearchSpaceTooLarge):
        raise
    except DiacatError as exc:
        return CommutativityReport(square_id, expected, "FAIL", None,
                                   f" isomorphism search failed: {exc}")
    if w is not None and w.is_morphism() and w.is_bijective():
        return CommutativityReport(square_id, expected, "ISOMORPHIC", w)
    return CommutativityReport(square_id, expected, "FAIL", None,
                               " no isomorphism witness found")


class Square(NamedTuple):
    """One row of a commuting square, for fixtures of one flavor: the
    expected verdict and the two composites as paths of ``FUNCTOR_TAGS``
    tags, applied left to right."""

    expected: str
    first: tuple
    second: tuple


def _square_table():
    eq, iso = "EQUAL", "ISOMORPHIC"
    table = {
        "2.8-outer": {"dias": Square(iso, ("AS", "Liea"), ("LB", "Liel"))},
        "2.8-inner": {"as": Square(eq, ("IncAsDias", "LB"),
                                   ("Liea", "IncLieLb"))},
        # the base faces, on crossed modules
        "base-XLiea": {"as": Square(eq, ("XLiea", "IncXLieXLb"),
                                    ("IncXAsXDias", "XLB"))},
        "base-XUd-XU": {"lb": Square(iso, ("XUd", "XAS"), ("XLiel", "XU"))},
    }
    for i in (0, 1):
        J, Jp, I, Ip = f"J{i}", f"J{i}'", f"I{i}", f"I{i}'"
        # the envelope squares are registered up to isomorphism on J1'/I1'
        env = iso if i else eq
        table[f"LbDias-J{i}"] = {"dias": Square(eq, (J, "XLB"), ("LB", Jp))}
        table[f"LbDias-XUd-J{i}"] = {
            "lb": Square(env, (Jp, "XUd"), ("Ud", J))}
        table[f"AsLie-I{i}"] = {
            "as": Square(eq, (I, "XLiea"), ("Liea", Ip)),
            "lie": Square(env, (Ip, "XU"), ("U", I))}
        table[f"AsDias-I{i}"] = {
            "dias": Square(eq, (J, "XAS"), ("AS", I)),
            "as": Square(eq, (I, "IncXAsXDias"), ("IncAsDias", J))}
        table[f"LieLb-I{i}"] = {
            "lb": Square(eq, (Jp, "XLiel"), ("Liel", Ip)),
            "lie": Square(eq, (Ip, "IncXLieXLb"), ("IncLieLb", Jp))}
    return table


# every square: for each fixture flavor it takes, its one row
_SQUARES = _square_table()


def _rows(square_id):
    if square_id not in _SQUARES:
        raise DiacatError(f"unknown square id {square_id!r}")
    return _SQUARES[square_id]


def square_ids():
    return sorted(_SQUARES)


def square_flavors(square_id):
    return sorted(_rows(square_id))


def square_fixture_kind(square_id):
    row = next(iter(_rows(square_id).values()))
    source = FUNCTOR_TAGS[row.first[0]].source
    return "xmod" if source.startswith("X") else "algebra"


def check_square(square_id, fixture, bound: int = 2, cap=None) -> CommutativityReport:
    """Evaluate both composite images of a registered square on a fixture.

    Verdicts: EQUAL for tensor-identical composites, ISOMORPHIC when the
    search finds a verified isomorphism, FAIL otherwise.  ``passed``
    demands the registered strength (EQUAL satisfies an ISOMORPHIC
    expectation)."""
    rows = _rows(square_id)
    if fixture.flavor not in rows:
        raise DiacatError(
            f"square {square_id} takes fixtures of flavor "
            f"{sorted(rows)}, got {fixture.flavor!r}")
    row = rows[fixture.flavor]
    o1, o2 = fixture, fixture
    for tag in row.first:
        o1 = apply_functor(tag, o1, bound)
    for tag in row.second:
        o2 = apply_functor(tag, o2, bound)
    return _verdict(square_id, row.expected, o1, o2, cap)


# ---------------------------------------------------------------------------
# the full prism


def check_parallelepiped(xm: CrossedModule, bound: int = 2, cap=None) -> AxiomReport:
    """Evaluate all six faces of the two-level functor prism on one lb or
    lie crossed module.

    A lie fixture is viewed as a Leibniz crossed module.  The faces that
    need a dialgebra or an associative crossed module take its envelope
    XUd and that envelope's associative quotient; each face is one or two
    registered squares."""
    from .envelope import xud
    from .lifts import _as_dias_or_lb
    if xm.flavor not in ("lb", "lie"):
        raise InvalidCrossedModule(f"the prism takes an lb or lie crossed "
                                   f"module, not {xm.flavor!r}")
    xlb = _as_dias_or_lb(xm)
    xdias = xud(xlb, bound)
    xas = apply_functor("XAS", xdias)
    d_top = xdias.actor
    a_top = apply_functor("AS", d_top)
    g_lb = xlb.actor
    p_lie = apply_functor("Liel", g_lb)
    report = AxiomReport("parallelepiped")

    def face(name, square_id, fixture):
        rep = check_square(square_id, fixture, bound, cap)
        report.add(f"{name}: {square_id} on {fixture.flavor} [{rep.verdict}]",
                   rep.passed, None, rep.detail or None)

    face("top", "2.8-outer", d_top)
    face("top", "2.8-inner", a_top)
    face("base", "base-XLiea", xas)
    face("base", "base-XUd-XU", xlb)
    for i in (0, 1):
        face("lateral-LbDias", f"LbDias-J{i}", d_top)
        face("lateral-AsDias", f"AsDias-I{i}", d_top)
        face("lateral-AsLie", f"AsLie-I{i}", a_top)
        face("lateral-LieLb", f"LieLb-I{i}", g_lb)
        face("lateral-LbDias", f"LbDias-XUd-J{i}", g_lb)
        face("lateral-AsLie", f"AsLie-I{i}", p_lie)
    return report
