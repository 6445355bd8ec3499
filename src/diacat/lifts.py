"""The crossed-module lifts of the algebra functors.

Leibnization (XLB), the associative and Lie quotients (XAS, XLiel), the
commutator bracket (XLiea) and the two inclusions (IncXAsXDias,
IncXLieXLb), each on both levels of a crossed module and on its cross
products; ``tags.FUNCTOR_TAGS`` registers them.  Each lift is its algebra
functor, written once in ``algebra``, plus one rule for the cross
products.  The four levelwise lifts share ``_levelwise``: the functor on
both levels, and its ``algebra.LEVELWISE`` rule on the cross products.
The two universal quotients share ``_crossed_quotient``: the actor's
algebra quotient, and the actee divided by the ideal that the same seeds
(``algebra.QUOTIENTS``) generate in the semidirect product.  Both return
the crossed module and its projection pair, as ``universal_quotient``
returns a ``Quotient``.  ``_as_dias_or_lb`` views an associative or Lie
crossed module as one of dialgebras or Leibniz algebras, for the cat-1
equivalences, the prism and the quotients' projection pairs.

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


def _levelwise(tag, xm: CrossedModule) -> CrossedModule:
    """The lift of the functor ``LEVELWISE[tag]``: the functor on both
    levels, mu unchanged, and its rule on the cross products.  The input
    is validated before the action is read."""
    source, _, rule = LEVELWISE[tag]
    _expect_xm(xm, source, f"the lift of {tag}")
    L, D = levelwise(tag, xm.actee), levelwise(tag, xm.actor)
    cross = xm.action.cross
    act = Action.from_cross(D, L, lambda pidx, side: rule(cross, side)[pidx])
    return CrossedModule(AlgebraMorphism(L, D, xm.mu.matrix), act)


def _crossed_quotient(tag, xm: CrossedModule):
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
    semi = semidirect(act, check=False)[0]
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


def xlb_of_xdias(xm: CrossedModule) -> CrossedModule:
    """Leibniz crossed module of a dialgebra one: bracket both levels,
    cross brackets [x,l] = x -| l - l |- x and [l,x] = l -| x - x |- l."""
    return _levelwise("LB", xm)


def xas_of_xdias(xm: CrossedModule):
    """Associative crossed module: merge -| and |- by the universal
    quotients, the actee's seeds being the differences of the two
    products, internal and mixed.  Returns (crossed module, projection
    pair)."""
    return _crossed_quotient("AS", xm)


def xliel_of_xlb(xm: CrossedModule):
    """Lie crossed module of a Leibniz one by the square-killing
    quotients, the actee's seeds being the polarized squares and the mixed
    symmetrizers [q,x] + [x,q].  Returns (crossed module, projection
    pair)."""
    return _crossed_quotient("Liel", xm)


def xliea_of_xas(xm: CrossedModule) -> CrossedModule:
    """Lie crossed module of an associative one: commutators both levels,
    cross bracket [a,r] = ar - ra."""
    return _levelwise("Liea", xm)


def inc_xas_to_xdias(xm: CrossedModule) -> CrossedModule:
    """View an associative crossed module as one of dialgebras."""
    return _levelwise("IncAsDias", xm)


def inc_xlie_to_xlb(xm: CrossedModule) -> CrossedModule:
    """View a Lie crossed module as a Leibniz one."""
    return _levelwise("IncLieLb", xm)


def _as_dias_or_lb(xm: CrossedModule) -> CrossedModule:
    """An as or lie crossed module viewed as a dias or lb one; dias and lb
    ones as they are."""
    if xm.flavor == "as":
        return inc_xas_to_xdias(xm)
    if xm.flavor == "lie":
        return inc_xlie_to_xlb(xm)
    return xm
