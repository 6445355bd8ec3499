"""The crossed-module lifts of the algebra functors.

Leibnization (XLB), the associative and Lie quotients (XAS, XLiel), the
commutator bracket (XLiea) and the two inclusions (IncXAsXDias,
IncXLieXLb), each on both levels of a crossed module and on its cross
products; ``tags.FUNCTOR_TAGS`` registers them.  The two universal
quotients share ``_crossed_quotient``.  ``_as_dias_or_lb`` views an
associative or Lie crossed module as one of dialgebras or Leibniz
algebras, for the cat-1 equivalences and the prism.

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
from .algebra import (AlgebraMorphism, associative_quotient, commutator_lie,
                      dialgebra_of_associative, leibnization, leibniz_of_lie,
                      lie_quotient, make_algebra, merge_seeds, sp_add, sp_cols,
                      sp_sub, square_seeds)
from .errors import (InvalidAlgebra, InvalidCrossedModule, LemmaViolation,
                     NotWellDefined)
from .linalg import Subspace, _assert_killed, sp_from_dense


def _expect_xm(xm, flavor, what):
    if not isinstance(xm, CrossedModule) or xm.flavor != flavor:
        raise InvalidCrossedModule(f"{what} expects a {flavor} crossed module")


def xlb_of_xdias(xm: CrossedModule) -> CrossedModule:
    """Leibniz crossed module of a dialgebra one: bracket both levels,
    cross brackets [x,l] = x -| l - l |- x and [l,x] = l -| x - x |- l."""
    _expect_xm(xm, "dias", "xlb_of_xdias")
    act = xm.action
    L = leibnization(xm.actee)
    D = leibnization(xm.actor)
    gq = act.cross(0, "DL").subtract(act.cross(1, "LD").transpose_args())
    qg = act.cross(0, "LD").subtract(act.cross(1, "DL").transpose_args())
    cross = {"DL": gq, "LD": qg}
    new_act = Action.from_cross(D, L, lambda pidx, side: cross[side])
    return CrossedModule(AlgebraMorphism(L, D, xm.mu.matrix), new_act)


def _action_closed_ideal(act: Action, seeds) -> Subspace:
    """Smallest ideal of the actee that contains the sparse ``seeds`` and
    is stable under every cross product with the actor: the ideal they
    generate in the semidirect product, which lies in the actee block."""
    f, nl = act.field, act.actee.dim
    semi = semidirect(act, check=False)[0]
    closed = algebra.ideal_closure(semi, Subspace.span(f, seeds, semi.dim))
    return Subspace.span(f, closed.rows, nl)


def _crossed_quotient(xm: CrossedModule, actor_quotient, seeds, inclusion):
    """Lift a universal quotient of algebras to crossed modules.

    The actor is divided by ``actor_quotient``, the actee by the smallest
    actor-stable ideal containing the sparse ``seeds``; the cross products
    and mu pass to the quotients.  Returns the crossed module, of the
    quotient actor's flavor, together with the projection pair, packaged
    as a crossed-module morphism into its re-inclusion ``inclusion(out)``.
    """
    f = xm.actee.field
    L, D, act = xm.actee, xm.actor, xm.action
    D_q, proj_D = q_D = actor_quotient(D)
    ideal = _action_closed_ideal(act, seeds)
    quot, proj_L = q_L = algebra.quotient_algebra(L, ideal)
    prods = quot.products()
    if any(p != prods[0] for p in prods):
        raise InvalidAlgebra("the quotient failed to merge the products")
    L_q = make_algebra(D_q.flavor, f, prods[:1], list(quot.labels))
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
    inc = inclusion(out)
    projs = XmodMorphism(xm, inc, AlgebraMorphism(L, inc.actee, proj_L.matrix),
                         AlgebraMorphism(D, inc.actor, proj_D.matrix))
    rep = projs.check()
    if not rep.passed:
        bad = rep.first_failure()
        raise LemmaViolation("the projection pair is not a crossed-module "
                             f"morphism: {bad.name} at {bad.where}", rep)
    return out, projs


def xas_of_xdias(xm: CrossedModule):
    """Associative crossed module: merge -| and |- by the universal quotients.

    The actee is divided by the smallest actor-stable ideal containing all
    differences of the two products, internal and mixed.  Returns the new
    crossed module together with the projection pair, packaged as a
    crossed-module morphism into the dialgebra re-inclusion of the result.
    """
    _expect_xm(xm, "dias", "xas_of_xdias")
    f, act = xm.actee.field, xm.action
    dl_l, dl_r = act.cross(0, "DL"), act.cross(1, "DL")
    ld_l, ld_r = act.cross(0, "LD"), act.cross(1, "LD")
    seeds = merge_seeds(xm.actee)
    for a in range(xm.actor.dim):
        for q in range(xm.actee.dim):
            seeds.append(sp_sub(f, dl_l.pair(a, q), dl_r.pair(a, q)))
            seeds.append(sp_sub(f, ld_l.pair(q, a), ld_r.pair(q, a)))
    return _crossed_quotient(xm, associative_quotient, seeds,
                             inc_xas_to_xdias)


def xliel_of_xlb(xm: CrossedModule) -> CrossedModule:
    """Lie crossed module of a Leibniz one by the square-killing quotients.

    Actor: quotient by polarized squares.  Actee: quotient by the
    actor-stable ideal of polarized squares plus the mixed symmetrizers
    [q,x] + [x,q]."""
    _expect_xm(xm, "lb", "xliel_of_xlb")
    f, act = xm.actee.field, xm.action
    gq, qg = act.cross(0, "DL"), act.cross(0, "LD")
    seeds = square_seeds(xm.actee)
    for q in range(xm.actee.dim):
        for a in range(xm.actor.dim):
            seeds.append(sp_add(f, qg.pair(q, a), gq.pair(a, q)))
    return _crossed_quotient(xm, lie_quotient, seeds, inc_xlie_to_xlb)[0]


def xliea_of_xas(xm: CrossedModule) -> CrossedModule:
    """Lie crossed module of an associative one: commutators both levels,
    cross bracket [a,r] = ar - ra."""
    _expect_xm(xm, "as", "xliea_of_xas")
    R = commutator_lie(xm.actee)
    A = commutator_lie(xm.actor)
    ar, ra = xm.action.cross(0, "DL"), xm.action.cross(0, "LD")
    pm = ar.subtract(ra.transpose_args())
    return CrossedModule(AlgebraMorphism(R, A, xm.mu.matrix),
                         Action.from_cross(A, R, lambda pidx, side: pm))


def inc_xas_to_xdias(xm: CrossedModule) -> CrossedModule:
    """View an associative crossed module as one of dialgebras."""
    _expect_xm(xm, "as", "inc_xas_to_xdias")
    L = dialgebra_of_associative(xm.actee)
    D = dialgebra_of_associative(xm.actor)
    act = Action.from_cross(D, L, lambda pidx, side: xm.action.cross(0, side))
    return CrossedModule(AlgebraMorphism(L, D, xm.mu.matrix), act)


def inc_xlie_to_xlb(xm: CrossedModule) -> CrossedModule:
    """View a Lie crossed module as a Leibniz one."""
    _expect_xm(xm, "lie", "inc_xlie_to_xlb")
    Q = leibniz_of_lie(xm.actee)
    G = leibniz_of_lie(xm.actor)
    act = Action.from_cross(G, Q, xm.action.cross)
    return CrossedModule(AlgebraMorphism(Q, G, xm.mu.matrix), act)


def _as_dias_or_lb(xm: CrossedModule) -> CrossedModule:
    """An as or lie crossed module viewed as a dias or lb one; dias and lb
    ones as they are."""
    if xm.flavor == "as":
        return inc_xas_to_xdias(xm)
    if xm.flavor == "lie":
        return inc_xlie_to_xlb(xm)
    return xm
