"""Functors between the four flavors, hom enumeration, and diagram checks.

The algebra-level functors (leibnization, associative and Lie quotients,
commutator bracket, inclusions, envelopes) are lifted here to crossed
modules, together with the embeddings J/I of algebras as degenerate crossed
modules and the projections U/G back down; ``tags.FUNCTOR_TAGS``
registers all 36 of them, and its builders call the ones here when they
run.  The two universal quotients (XAS, XLiel) share ``_crossed_quotient``,
as the two envelopes share ``envelope._crossed_envelope``.  Every hom-set
over a finite field comes from one column-by-column search in one
canonical order, lexicographic in the columns: a ``_Plan``, built once
per hom-set from its equations (compiled and solved by ``equations``),
and run once per prefix of fixed columns.  Each adjunction is an
explicit map between two enumerated hom-sets that ``_bijection``
certifies, and the embedding/projection ones are rows of ``_CHAIN_ROWS``.
``_SQUARES`` holds each commuting square of the prism, per fixture flavor,
as two paths of registered tags whose composites ``check_square``
compares, with EQUAL / ISOMORPHIC verdicts.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from .actions import (Action, CrossedModule, XmodMorphism, action_slots,
                      identity_xmod, induced_action, semidirect, zero_xmod)
from .algebra import (Algebra, AlgebraMorphism, AxiomReport,
                      associative_quotient, commutator_lie,
                      derived_tower_nilpotent, dialgebra_of_associative,
                      ideal_closure, image_of, kernel_of, leibnization,
                      leibniz_of_lie, lie_quotient, make_algebra, merge_seeds,
                      quotient_algebra, sp_add, sp_cols, sp_sub,
                      square_seeds)
from .cat1 import cat1_of_xmod
from .config import DEFAULT_SEARCH_CAP
from .envelope import (Envelope, XudResult, _assert_killed, envelope_transpose,
                       ud, xu_full, xud, xud_full)
from .equations import (_add_triples, _affine_points, _affine_set, _dense,
                        _Equation, _intertwined, _residual, _scaled_eye,
                        _triples)
from .errors import (DiacatError, FieldMismatch, InvalidAlgebra,
                     InvalidCrossedModule, LemmaViolation, NotWellDefined,
                     ResourceCapExceeded, SearchSpaceTooLarge)
from .linalg import (Matrix, Subspace, inverse, sp_from_dense, vec_is_zero,
                     vec_scale, vec_zero)
from .tags import (_CHAIN_LETTERS, FUNCTOR_TAGS, _chain_tag, _functor,
                   apply_functor, chain_pairs)

# ---------------------------------------------------------------------------
# crossed-module-level functors


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
    closed = ideal_closure(semi, Subspace.span(f, seeds, semi.dim))
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
    quot, proj_L = q_L = quotient_algebra(L, ideal)
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


# ---------------------------------------------------------------------------
# embeddings and projections


def embed(tag, a: Algebra) -> CrossedModule:
    """J/I embeddings: index 0 is the zero-source crossed module, index 1
    the identity crossed module with the self action."""
    fn = _functor(tag, a)
    if fn.target != "X" + fn.source:
        raise DiacatError(f"{tag} is not an embedding")
    return identity_xmod(a) if tag[1] == "1" else zero_xmod(a)


def cokernel_of_mu(xm: CrossedModule):
    """Quotient of the actor by the image of the structural morphism."""
    return quotient_algebra(xm.actor, image_of(xm.mu))


def project(tag, xm: CrossedModule) -> Algebra:
    """U/G projections: index 0 the cokernel, 1 the actor, 2 the actee."""
    fn = _functor(tag, xm)
    if fn.source != "X" + fn.target:
        raise DiacatError(f"{tag} is not a projection")
    idx = tag[1]
    if idx == "0":
        return cokernel_of_mu(xm)[0]
    if idx == "1":
        return xm.actor
    return xm.actee


# ---------------------------------------------------------------------------
# hom-set enumeration


def _holds(f, equations, cols):
    """Whether every one of ``equations`` holds at the columns ``cols``."""
    for eq in equations:
        if not vec_is_zero(f, _residual(f, eq, cols)):
            return False
    return True


def _determined(f, neg_inv, eq, others, cols):
    """The affine set of ``_affine_set`` where the equation ``eq`` alone
    fixes the next column: it reads that column only through ``lin[k]``,
    and ``neg_inv`` holds the triples of minus the inverse of ``lin[k]``.
    The one candidate is ``neg_inv`` times the residual at zero; it is
    ``(point, [])`` if every equation of ``others`` holds there, else
    None."""
    at = cols + [vec_zero(f, eq.rows)]
    point = vec_zero(f, eq.rows)
    _add_triples(f, point, neg_inv, _residual(f, eq, at))
    at[-1] = point
    return (point, []) if _holds(f, others, at) else None


def _determining(f, linear, k, width):
    """``(neg_inv, eq, others)`` for ``_determined`` from the first of the
    equations ``linear`` of column k, of length ``width``, that reads it
    only through an invertible ``lin[k]``, or None if there is none."""
    for i, eq in enumerate(linear):
        if k in eq.lin and k not in (eq.u, eq.v):
            inv = inverse(_dense(f, eq.lin[k], eq.rows, width))
            if inv is not None:
                return (_triples(f, inv.neg()), eq,
                        linear[:i] + linear[i + 1:])
    return None


class _Plan:
    """The search of one hom-set: every assignment of the unknown columns
    c_k in F^widths[k] that satisfies the compiled equations, after ``n0``
    prefix columns, which are fixed and numbered first.

    What depends only on the hom-set is done here, once.  Each equation
    is filed at the last column it involves, which must follow the prefix,
    as linear in it (all but ``map(c_k, c_k)``) or quadratic; a quadratic
    one whose map and triples are all zero, such as ``[c, c] = 0`` into a
    Lie algebra, holds everywhere and is dropped.  A depth ``reads`` the
    earlier columns its linear equations read.  It is ``determined`` when
    one of them reads its column only through an invertible ``lin[k]``
    (``_determining``): ``c I``, c nonzero, where the source's product
    makes the column a product of earlier ones, or an invertible mu' in the
    square of ``enumerate_xmod_homs``.  ``run`` then walks the columns from
    a prefix, as often as the caller needs: once for a hom-set of algebras,
    once per actor map beta for the alpha columns of crossed modules.
    """

    def __init__(self, f, widths, equations, n0=0):
        try:
            self.elems = list(f.elements())
        except NotImplementedError as exc:
            raise DiacatError(str(exc)) from exc
        self.field, self.widths, self.n0 = f, widths, n0
        self.linear = [[] for _ in widths]
        self.quadratic = [[] for _ in widths]
        reads = [set() for _ in widths]
        for eq in equations:
            k = eq.k - n0
            if eq.map is None or not eq.u == eq.v == eq.k:
                self.linear[k].append(eq)
                reads[k] |= eq.reads
            elif not eq.map.is_zero() or any(eq.lin.values()):
                self.quadratic[k].append(eq)
        self.reads = [sorted(r) for r in reads]
        self.determined = [_determining(f, eqs, n0 + k, widths[k])
                           for k, eqs in enumerate(self.linear)]

    def _visit(self, k, cols, slots):
        """An iterator over the points of depth k under the columns
        ``cols[:n0 + k]``.  The affine set at depth k depends only on the
        columns it reads, so each depth keeps one slot: the key is their
        values, the value the set's points in lexicographic order, listed
        as they are tried (``equations._affine_points``).  A visit with the
        slot's key scans the list again; any other solves afresh
        (``_determined`` or ``_affine_set``) and replaces it, so a depth
        that reads nothing (every column between abelian algebras) builds
        its points once per run."""
        key = [cols[i] for i in self.reads[k]]
        if slots[k] is not None and slots[k][0] == key:
            return iter(slots[k][1])
        listed = []
        slots[k] = (key, listed)
        f, prefix, det = self.field, cols[:self.n0 + k], self.determined[k]
        affine = (_determined(f, *det, prefix) if det
                  else _affine_set(f, self.widths[k], self.linear[k], prefix))
        if affine is None:
            return iter(())
        part, basis = affine
        scaled = [[vec_scale(f, t, b) for t in self.elems] for b in basis]
        return _affine_points(f, part, scaled, listed)

    def run(self, cap=None, prefix=()):
        """The solutions after the columns ``prefix``, as tuples of the
        unknown columns, in lexicographic order.

        The columns are fixed one at a time, depth first, with one
        iterator of points per depth on an explicit stack, so a finished
        run leaves nothing for the cycle collector.  Only the quadratic
        equations are evaluated per point.  The last depth hands each
        solution on as the tuple of the earlier unknown columns, taken once
        per visit, plus its point.  The slots hold only points the run has
        tried, so a run the cap refuses has built at most ``cap + 1``: the
        ``cap + 1``-th point tried raises ``SearchSpaceTooLarge``.
        """
        cap = DEFAULT_SEARCH_CAP if cap is None else cap
        f, n0, last = self.field, self.n0, len(self.widths) - 1
        if last < 0:
            yield ()
            return
        cols = [tuple(c) for c in prefix] + [None] * (last + 1)
        slots, points = [None] * (last + 1), [None] * (last + 1)
        points[0], head = self._visit(0, cols, slots), ()
        scanned, k = 0, 0
        while k >= 0:
            quad = self.quadratic[k]
            for c in points[k]:
                scanned += 1
                if scanned > cap:
                    raise SearchSpaceTooLarge(scanned, cap)
                cols[n0 + k] = c
                if quad and not _holds(f, quad, cols):
                    continue
                if k == last:
                    yield head + (c,)
                    continue
                k += 1
                points[k] = self._visit(k, cols, slots)
                if k == last:
                    head = tuple(cols[n0:n0 + k])
                break
            else:
                k -= 1


def enumerate_homs(a: Algebra, b: Algebra, cap=None) -> list:
    """All flavor morphisms a -> b over a finite field, in canonical order:
    lexicographic in the columns of the matrix, first column first.

    One ``_Plan`` over the columns, under the product equations
    ``phi(e_i e_j) = phi(e_i) phi(e_j)``, run once.
    """
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


class BijectionReport(NamedTuple):
    left: list
    right: list
    items: AxiomReport

    @property
    def passed(self):
        return self.items.passed

    def summary(self):
        return self.items.summary()


def _pair_key(m: XmodMorphism):
    return m.alpha.matrix, m.beta.matrix


def _bijection(report, left, right, images, keys, names, prefix="",
               also=()):
    """Add the items certifying a map between the enumerated hom-sets
    ``left`` = Hom(Fa, b) and ``right`` = Hom(a, Gb) as a bijection.

    ``images`` holds the key of each image, in the order of the map's
    domain (either hom-set), and ``keys`` those of the other hom-set.
    After the cardinality item and the ``also`` items come "lands in",
    "injective" and "surjective" (every key is hit) under the three
    ``names``, or their conjunction when ``names`` is one string.
    """
    report.add(prefix + f"cardinalities equal ({len(left)} = {len(right)})",
               len(left) == len(right))
    for name, ok in also:
        report.add(prefix + name, ok)
    hit = set(images)
    checks = (hit <= keys, len(hit) == len(images), keys <= hit)
    if isinstance(names, str):
        report.add(prefix + names, all(checks))
    else:
        for name, ok in zip(names, checks):
            report.add(prefix + name, ok)


def verify_adjunction_ud(g, d, bound: int, cap=None) -> BijectionReport:
    """Bijection between morphisms out of the envelope and bracket
    morphisms into the leibnization, by restriction to generators."""
    if not derived_tower_nilpotent(d, bound):
        raise NotWellDefined("target dialgebra is not nilpotent within the bound")
    env = ud(g, bound)
    lbd = leibnization(d)
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


def _splits(env, d, psi: Matrix) -> bool:
    """Whether the transpose of ``psi`` restricts back to ``psi`` on the
    generators; a transpose that is not well defined does not."""
    try:
        return envelope_transpose(env, d, psi).matrix.mul(env.eta) == psi
    except NotWellDefined:
        return False


def _block_diag(f, a: Matrix, b: Matrix) -> Matrix:
    top = a.hstack(Matrix.zero(f, a.rows, b.cols))
    bottom = Matrix.zero(f, b.rows, a.cols).hstack(b)
    return top.vstack(bottom)


def xud_transpose(r: XudResult, target: CrossedModule,
                  alpha: Matrix, beta: Matrix) -> XmodMorphism:
    """The crossed morphism out of the enveloping crossed module determined
    by a crossed morphism (alpha, beta) into the bracket image of ``target``.

    The pair acts blockwise on the semidirect model, envelopes, factors
    through the kernel-product quotient, and restricts to both levels.
    """
    c_t = cat1_of_xmod(target)
    f = c_t.E.field
    h = _block_diag(f, alpha, beta)
    k = envelope_transpose(r.env_big, c_t.E, h)
    _assert_killed(f, k.matrix, r.qmap.sub, "the enveloped block map")
    kbar = k.matrix.mul(r.qmap.section)
    nl, nd = target.actee.dim, target.actor.dim
    # Ker s-bar lands in the actee block, the base in the actor block
    a_imgs = [kbar.mul_vec(v) for v in kernel_of(r.cat1.s).rows]
    b_imgs = [kbar.mul_vec(v) for v in r.cat1.d_sub.rows]
    if not (all(vec_is_zero(f, w[nl:]) for w in a_imgs)
            and all(vec_is_zero(f, w[:nl]) for w in b_imgs)):
        raise NotWellDefined("the enveloped block map mixes the two blocks")
    a_cols, b_cols = [w[:nl] for w in a_imgs], [w[nl:] for w in b_imgs]
    alpha_out = AlgebraMorphism(r.xmod.actee, target.actee,
                                Matrix.from_cols(f, a_cols, nl))
    beta_out = AlgebraMorphism(r.xmod.actor, target.actor,
                               Matrix.from_cols(f, b_cols, nd))
    return XmodMorphism(r.xmod, target, alpha_out, beta_out)


def xud_unit_maps(r: XudResult):
    """(actee unit, actor unit) of the crossed-module envelope adjunction."""
    unit_actor = r.base_bridge.mul(r.env_base.eta)
    return r.unit_actee, unit_actor


def verify_adjunction_xud(xlb: CrossedModule, xdias: CrossedModule,
                          bound: int, cap=None) -> BijectionReport:
    """Crossed-module envelope adjunction, verified against enumeration."""
    _expect_xm(xlb, "lb", "verify_adjunction_xud")
    _expect_xm(xdias, "dias", "verify_adjunction_xud")
    c_t = cat1_of_xmod(xdias)
    if not derived_tower_nilpotent(c_t.E, bound):
        raise NotWellDefined(
            "target semidirect algebra is not nilpotent within the bound")
    r = xud_full(xlb, bound)
    xlb_t = xlb_of_xdias(xdias)
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


# ---------------------------------------------------------------------------
# adjunction chains for the embeddings and projections


def _chain_kind(tagpair):
    """(flavor, which adjoint is the projection, index) of a chain pair."""
    for flavor in _CHAIN_LETTERS:
        for i in (0, 1):
            proj_left, emb_left = chain_pairs(flavor, i)
            if tuple(tagpair) == proj_left:
                return flavor, "proj-left", i
            if tuple(tagpair) == emb_left:
                return flavor, "emb-left", i
    raise DiacatError(f"unknown adjunction pair {tagpair!r}")


# The algebra side of a chain row takes (xm, a, emb), emb the embedding of
# a at the row's index, to the algebra hom-set and the lift of its
# morphisms to crossed ones: out of Coker mu or the actor for U_i -| J_i,
# into the actor or the actee for J_i -| U_{i+1}.
def _lift_from_coker(xm, alg, emb, cap):
    coker, proj = cokernel_of_mu(xm)
    zero = AlgebraMorphism.zero(xm.actee, emb.actee)
    return enumerate_homs(coker, alg, cap), lambda h: XmodMorphism(
        xm, emb, zero,
        AlgebraMorphism(xm.actor, alg, h.matrix.mul(proj.matrix)))


def _lift_from_actor(xm, alg, emb, cap):
    return enumerate_homs(xm.actor, alg, cap), lambda h: XmodMorphism(
        xm, emb,
        AlgebraMorphism(xm.actee, emb.actee, h.matrix.mul(xm.mu.matrix)),
        AlgebraMorphism(xm.actor, alg, h.matrix))


def _lift_into_actor(xm, alg, emb, cap):
    zero = AlgebraMorphism.zero(emb.actee, xm.actee)
    return enumerate_homs(alg, xm.actor, cap), lambda h: XmodMorphism(
        emb, xm, zero, AlgebraMorphism(alg, xm.actor, h.matrix))


def _lift_into_actee(xm, alg, emb, cap):
    return enumerate_homs(alg, xm.actee, cap), lambda h: XmodMorphism(
        emb, xm, AlgebraMorphism(alg, xm.actee, h.matrix),
        AlgebraMorphism(alg, xm.actor, xm.mu.matrix.mul(h.matrix)))


# (kind, index) -> (algebra side, restriction of a crossed morphism out of
# emb back to the algebra, None where the projection is the left adjoint)
_CHAIN_ROWS = {
    ("proj-left", 0): (_lift_from_coker, None),
    ("proj-left", 1): (_lift_from_actor, None),
    ("emb-left", 0): (_lift_into_actor, lambda m: m.beta),
    ("emb-left", 1): (_lift_into_actee, lambda m: m.alpha),
}


def verify_adjunction_chain(tagpair, fixtures, cap=None) -> AxiomReport:
    """Hom-set bijections for the embedding/projection adjunctions.

    ``tagpair`` is (left adjoint, right adjoint); fixtures are (crossed
    module, algebra) pairs of the matching flavor.  For each fixture both
    hom-sets are enumerated, left first, the explicit bijection is applied
    elementwise, and one naturality square is spot-checked.
    """
    flavor, kind, i = _chain_kind(tagpair)
    algebra_side, restrict = _CHAIN_ROWS[kind, i]
    report = AxiomReport(f"adjunction {tagpair[0]} -| {tagpair[1]}")
    for n, (xm, alg) in enumerate(fixtures):
        if xm.flavor != flavor or alg.flavor != flavor:
            raise InvalidCrossedModule(
                f"fixture {n} does not match flavor {flavor!r}")
        prefix = f"[{n}] "
        emb = embed(_chain_tag(flavor, 1, i), alg)
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


def _pick_endo(alg, cap):
    endos = enumerate_homs(alg, alg, cap)
    for m in endos:
        if m.matrix != Matrix.identity(alg.field, alg.dim):
            return m
    return endos[0]


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


def _verdict(square_id, expected, o1, o2, witnesses):
    """The square's report on composites o1, o2: the first witness that
    builds and is an isomorphism makes it ISOMORPHIC.  A witness whose
    build raises a DiacatError is skipped, but a refused search is no
    verdict: its cap error propagates, as it does from a round trip."""
    if o1.same_structure(o2):
        return CommutativityReport(square_id, expected, "EQUAL")
    if expected == "EQUAL":
        return CommutativityReport(square_id, expected, "FAIL", None,
                                   " composites are not tensor-identical")
    for build in witnesses:
        try:
            w = build()
        except (ResourceCapExceeded, SearchSpaceTooLarge):
            raise
        except DiacatError:
            continue
        if w is None:
            continue
        if w.is_morphism() and w.is_bijective():
            return CommutativityReport(square_id, expected, "ISOMORPHIC", w)
    return CommutativityReport(square_id, expected, "FAIL", None,
                               " no isomorphism witness found")


def _quotient_witness(d, bound, o1, o2):
    """Map classes of the associative quotient of d to classes of the Lie
    quotient of its leibnization."""
    sec = associative_quotient(d).qmap.section
    p_to = lie_quotient(leibnization(d))[1]
    return AlgebraMorphism(o1, o2, p_to.matrix.mul(sec))


def _envelope_witness(alg, bound, o1, o2):
    """The identity crossed module of alg (J1' or I1') sent through the
    crossed envelope, mapped by the inverse of its base bridge onto the
    identity crossed module of alg's envelope."""
    full = xu_full if alg.flavor == "lie" else xud_full
    r = full(embed(_chain_tag(alg.flavor, 1, 1), alg), bound)
    inv_bridge = inverse(r.base_bridge)
    if inv_bridge is None:
        raise LemmaViolation("the base bridge is not invertible")
    alpha = AlgebraMorphism(o1.actee, o2.actee, inv_bridge.mul(o1.mu.matrix))
    beta = AlgebraMorphism(o1.actor, o2.actor, inv_bridge)
    return XmodMorphism(o1, o2, alpha, beta)


class Square(NamedTuple):
    """One row of a commuting square, for fixtures of one flavor: the
    expected verdict and the two composites as paths of ``FUNCTOR_TAGS``
    tags, applied left to right.  ``witness(fixture, bound, o1, o2)``
    builds the canonical isomorphism from the first composite to the
    second, tried before the search when they differ."""

    expected: str
    first: tuple
    second: tuple
    witness: Callable = None


def _square_table():
    eq, iso = "EQUAL", "ISOMORPHIC"
    table = {
        "2.8-outer": {"dias": Square(iso, ("AS", "Liea"), ("LB", "Liel"),
                                     _quotient_witness)},
        "2.8-inner": {"as": Square(eq, ("IncAsDias", "LB"),
                                   ("Liea", "IncLieLb"))},
        # the base faces, on crossed modules
        "base-XLiea": {"as": Square(eq, ("XLiea", "IncXLieXLb"),
                                    ("IncXAsXDias", "XLB"))},
        "base-XUd-XU": {"lb": Square(iso, ("XUd", "XAS"), ("XLiel", "XU"))},
    }
    for i in (0, 1):
        J, Jp, I, Ip = f"J{i}", f"J{i}'", f"I{i}", f"I{i}'"
        # the envelope squares hold up to isomorphism on J1'/I1' only
        env, witness = (iso, _envelope_witness) if i else (eq, None)
        table[f"LbDias-J{i}"] = {"dias": Square(eq, (J, "XLB"), ("LB", Jp))}
        table[f"LbDias-XUd-J{i}"] = {
            "lb": Square(env, (Jp, "XUd"), ("Ud", J), witness)}
        table[f"AsLie-I{i}"] = {
            "as": Square(eq, (I, "XLiea"), ("Liea", Ip)),
            "lie": Square(env, (Ip, "XU"), ("U", I), witness)}
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

    Verdicts: EQUAL for tensor-identical composites, ISOMORPHIC when a
    verified witness exists (the row's canonical one, then a search), FAIL
    otherwise.  ``passed`` demands the registered strength (EQUAL satisfies
    an ISOMORPHIC expectation)."""
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
    find = find_xmod_isomorphism if isinstance(o1, CrossedModule) \
        else find_algebra_isomorphism
    witnesses = [partial(find, o1, o2, cap)]
    if row.witness is not None:
        witnesses.insert(0, partial(row.witness, fixture, bound, o1, o2))
    return _verdict(square_id, row.expected, o1, o2, witnesses)


# ---------------------------------------------------------------------------
# the full prism


def check_parallelepiped(xm: CrossedModule, bound: int = 2, cap=None) -> AxiomReport:
    """Evaluate all six faces of the two-level functor prism on one fixture.

    The fixture is normalized to a Leibniz crossed module (and, for the
    faces that need one, to a dialgebra crossed module through the
    envelope); each face is one or two registered squares."""
    base = _as_dias_or_lb(xm)
    if base.flavor == "dias":
        xdias, xlb = base, xlb_of_xdias(base)
    else:
        xlb, xdias = base, xud(base, bound)
    xas = xm if xm.flavor == "as" else xas_of_xdias(xdias)[0]
    d_top = xdias.actor
    a_top = associative_quotient(d_top)[0]
    g_lb = xlb.actor
    p_lie = lie_quotient(g_lb)[0]
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
