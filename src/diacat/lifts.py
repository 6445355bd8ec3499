"""The crossed-module lifts of the algebra functors.

Leibnization (XLB), the associative and Lie quotients (XAS, XLiel), the
commutator bracket (XLiea) and the two inclusions (IncXAsXDias,
IncXLieXLb), each on both levels of a crossed module and on its cross
products.  Each lift is its algebra functor, written once in ``algebra``
as a row keyed by the algebra tag, plus one rule for the cross products,
and ``tags.FUNCTOR_TAGS`` registers the lift of each row under its
crossed tag.  ``crossed_levelwise`` lifts a row of ``algebra.LEVELWISE``:
the functor on both levels, and the row's rule on the cross products.
``crossed_quotient`` lifts a row of ``algebra.QUOTIENTS``: the actor's
algebra quotient, and the actee divided by the ideal that the same seeds
generate in the semidirect product; it returns the crossed module and
its projection pair, as ``universal_quotient`` returns a ``Quotient``.
``_as_dias_or_lb`` views an associative or Lie crossed module as one of
dialgebras or Leibniz algebras, for the cat-1 equivalences, the prism and
the quotients' projection pairs.

Only what applies them loads this module: the builders of their tags,
``functors`` where the XUd adjunction and the prism need them, and the
``equivalence`` batteries, which so compile neither ``functors`` nor
``tags``.  The traced ``quotient_algebra`` and ``ideal_closure`` are
called through ``algebra``, where the benchmark's tracer rebinds them.
"""

from __future__ import annotations

from . import algebra
from .actions import (Action, CrossedModule, XmodMorphism, induced_action,
                      semidirect)
from .algebra import (LEVELWISE, QUOTIENTS, AlgebraMorphism, levelwise,
                      retyped, sp_cols, universal_quotient)
from .errors import InvalidCrossedModule, LemmaViolation, NotWellDefined
from .linalg import Subspace, _assert_killed, sp_from_dense


def _expect_xm(xm, flavor, what):
    if not isinstance(xm, CrossedModule) or xm.flavor != flavor:
        raise InvalidCrossedModule(f"{what} expects a {flavor} crossed module")


def crossed_levelwise(tag, xm: CrossedModule) -> CrossedModule:
    """The lift of the functor ``LEVELWISE[tag]``: the functor on both
    levels, mu unchanged, and its rule on the cross products.  The input
    is validated before the action is read."""
    source, _, rule = LEVELWISE[tag]
    _expect_xm(xm, source, f"the lift of {tag}")
    L, D = levelwise(tag, xm.actee), levelwise(tag, xm.actor)
    cross = xm.action.cross
    act = Action.from_cross(D, L, lambda pidx, side: rule(cross, side)[pidx])
    return CrossedModule(AlgebraMorphism(L, D, xm.mu.matrix), act)


def crossed_quotient(tag, xm: CrossedModule):
    """The lift of the universal quotient ``QUOTIENTS[tag]``.

    The actor is divided by its algebra quotient.  The actee is divided by
    the ideal of the semidirect product that the quotient's seeds on every
    basis pair with an actee element generate: the smallest actor-stable
    ideal of the actee containing its own seeds and the mixed ones.  The
    cross products and mu pass to the quotients.  Returns the crossed
    module, of the quotient actor's flavor, and the projection pair, as a
    crossed-module morphism into its re-inclusion.
    """
    source, target, seeds = QUOTIENTS[tag]
    _expect_xm(xm, source, f"the lift of {tag}")
    f = xm.actee.field
    L, D, act = xm.actee, xm.actor, xm.action
    nl = L.dim
    D_q, proj_D = q_D = universal_quotient(tag, D)
    semi = semidirect(act, check=False)
    closed = algebra.ideal_closure(semi, Subspace.span(
        f, (w for i, j, w in seeds(semi).cells() if min(i, j) < nl),
        semi.dim))
    ideal = Subspace.span(f, closed.rows, nl)
    q_L = algebra.quotient_algebra(L, ideal)
    L_q, proj_L = retyped(q_L[0], target), q_L[1]
    qm_D, qm_L = q_D.qmap, q_L.qmap
    # representative independence on the actor side
    dl, ld = act.cross(0, "DL"), act.cross(0, "LD")
    if not all(ideal.contains(w) for side in (dl, ld.transpose_args())
               for r in q_D.ideal.rows for w in side.with_basis(r).values()):
        raise NotWellDefined("cross products are not constant on actor classes")

    mu_mat = proj_D.matrix.mul(xm.mu.matrix)
    _assert_killed(f, mu_mat, ideal, "the induced structural morphism")
    act_q = induced_action(D_q, L_q, act.cross,
                           sp_cols(qm_D.section), sp_cols(qm_L.section),
                           lambda w: sp_from_dense(f, proj_L.matrix.mul_vec(w)))
    out = CrossedModule(AlgebraMorphism(L_q, D_q, mu_mat.mul(qm_L.section)),
                        act_q)
    inc = _as_dias_or_lb(out)
    projs = XmodMorphism(xm, inc, AlgebraMorphism(L, inc.actee, proj_L.matrix),
                         AlgebraMorphism(D, inc.actor, proj_D.matrix))
    rep = projs.check()
    if not rep.passed:
        bad = rep.first_failure()
        raise LemmaViolation("the projection pair is not a crossed-module "
                             f"morphism: {bad.name} at {bad.where}", rep)
    return out, projs


def _as_dias_or_lb(xm: CrossedModule) -> CrossedModule:
    """An as or lie crossed module viewed as a dias or lb one; dias and lb
    ones as they are."""
    tag = {"as": "IncAsDias", "lie": "IncLieLb"}.get(xm.flavor)
    return xm if tag is None else crossed_levelwise(tag, xm)
