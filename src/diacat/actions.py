"""Actions, semidirect products, and crossed modules, in all four flavors.

An action of an algebra D on an algebra L of the same flavor is a family of
cross products D (x) L -> L and L (x) D -> L satisfying every mixed-variable
instance of the flavor's axioms.  Those instances are the mixed-sort basis
triples of the semidirect product L (+) D: the same axiom templates that
certify the algebras run over its product tensors, with each variable
ranging over the actee block or the actor block.  Hand-listing the 30
dialgebra instances would invite a transcription slip; generating them
cannot.  A Lie action has the two equations of the Jacobi identity with
mixed sorts, run the same way.  ``semidirect`` returns that product as an
algebra, certified by its own axiom check and nothing more: its inclusion,
projection and splitting are unit blocks, which callers write themselves.

``Action`` is one class for all four flavors; its flavor is the actor's.
Its tensor slots, their shapes and ``cross`` come from ``algebra.FLAVORS``:
each product has an actor-on-actee slot and, except for Lie, an
actee-on-actor slot; where that slot is missing, the reverse cross product
is the negated transpose.  ``Action.from_cross`` fills the slots from a
``cross(pidx, side)`` callback, and ``induced_action`` carries cross
products along linear maps with it, whether they come from an ambient
algebra (an ideal, a split extension, the kernel of a cat-1 structure) or
pass to quotients.

A crossed module bundles a morphism mu: L -> D with an action of D on L,
subject to equivariance of mu and Peiffer-style identities; the equation
of a missing slot is skipped.  The checker reports every equation
separately, and ``semidirect_homomorphism_checks`` confirms the equivalent
characterization through maps between semidirect products.
"""

from __future__ import annotations

from itertools import chain, product as iter_product

from .algebra import (AXIOMS, FLAVORS, Algebra, AlgebraMorphism,
                      AxiomReport, BilinearMap, Certified, _check_templates,
                      abelian_algebra, basis_products, first_unintertwined,
                      image_of, induced_bilinear, induced_subalgebra,
                      is_ideal, kernel_of, make_algebra, product_arity,
                      quotient_algebra, sp_cols)
from .errors import (DimensionMismatch, FieldMismatch, InvalidAction,
                     InvalidCrossedModule, LemmaViolation, NotAnIdeal)
from .linalg import Matrix, Subspace, sp_from_dense, unit_vector

ACTOR = "D"
ACTEE = "L"


def action_slots(flavor):
    """(slot name, product index, side) of every action tensor of the
    flavor, in ``FLAVORS`` order; side "DL" has the actor on the left."""
    return [(name, pidx, side)
            for pidx, p in enumerate(FLAVORS[flavor])
            for name, side in zip(p.slots, ("DL", "LD")) if name]


def tensor_shape(side, actor: Algebra, actee: Algebra) -> tuple:
    """(left, right, out) dimensions of an action tensor on ``side``."""
    if side == "DL":
        return actor.dim, actee.dim, actee.dim
    return actee.dim, actor.dim, actee.dim


# ---------------------------------------------------------------------------
# actions


class Action(Certified):
    """Cross products of one algebra on another of the same flavor.

    ``tensors`` maps the flavor's action slots (``action_slots``) to
    tensors.  ``cross(pidx, side)`` returns the tensor for product ``pidx``
    with the actor on the left (side "DL") or on the right (side "LD"); a
    product without an actee-on-actor slot takes the negated transpose of
    its actor-on-actee tensor there.
    """

    invalid = InvalidAction
    failure = "not a {self.flavor} action: {bad.name} fails at {bad.where}"

    def __init__(self, actor: Algebra, actee: Algebra, tensors, check=True):
        if actor.flavor != actee.flavor:
            raise InvalidAction(f"actor and actee of different flavors "
                                f"{actor.flavor}/{actee.flavor}")
        if actor.field != actee.field:
            raise FieldMismatch("actor and actee over different fields")
        self.actor = actor
        self.actee = actee
        self.tensors = {}
        for name, _, side in action_slots(actor.flavor):
            t = tensors.get(name)
            if t is None:
                raise DimensionMismatch(f"missing action tensor {name!r}")
            want = tensor_shape(side, actor, actee)
            if (t.left_dim, t.right_dim, t.out_dim) != want:
                raise DimensionMismatch(
                    f"tensor {name!r} has shape "
                    f"{(t.left_dim, t.right_dim, t.out_dim)}, "
                    f"expected {want}")
            if t.field != actor.field:
                raise FieldMismatch(f"tensor {name!r} over the wrong field")
            self.tensors[name] = t
        self._cross = {"DL": [], "LD": []}
        for p in FLAVORS[actor.flavor]:
            dl = self.tensors[p.slots[0]]
            self._cross["DL"].append(dl)
            self._cross["LD"].append(self.tensors[p.slots[1]] if p.slots[1]
                                     else dl.transpose_args().negate())
        if check:
            self.certify()

    @classmethod
    def from_cross(cls, actor: Algebra, actee: Algebra, cross,
                   check=True) -> "Action":
        """The action whose tensor for product ``pidx`` on ``side`` is
        ``cross(pidx, side)``, asked only for the flavor's slots."""
        return cls(actor, actee, {name: cross(pidx, side) for name, pidx, side
                                  in action_slots(actor.flavor)}, check=check)

    @property
    def flavor(self):
        return self.actor.flavor

    @property
    def field(self):
        return self.actor.field

    def cross(self, pidx, side) -> BilinearMap:
        return self._cross[side][pidx]

    def check(self) -> AxiomReport:
        return ACTION_CHECKERS[self.flavor](self)

    def same_tensors(self, other: "Action") -> bool:
        return self.flavor == other.flavor and self.tensors == other.tensors

    def __repr__(self):
        return (f"<Action {self.flavor} {self.actor.dim}-dim actor on "
                f"{self.actee.dim}-dim actee>")


def trivial_action(actor: Algebra, actee: Algebra, check=True) -> Action:
    return Action.from_cross(
        actor, actee, lambda pidx, side: BilinearMap.zero(
            actor.field, *tensor_shape(side, actor, actee)), check=check)


def self_action(alg: Algebra, check=True) -> Action:
    """An algebra acting on itself by its own products."""
    prods = alg.products()
    return Action.from_cross(alg, alg, lambda pidx, side: prods[pidx],
                             check=check)


def induced_action(actor: Algebra, actee: Algebra, cross, actor_vecs,
                   actee_vecs, back, check=True) -> Action:
    """The action of ``actor`` on ``actee`` carried along linear maps:
    actor basis element x stands for the sparse vector ``actor_vecs[x]``,
    actee basis element l for ``actee_vecs[l]``, they are multiplied by
    ``cross(pidx, "DL"/"LD")``, and ``back`` expresses each product in
    actee coordinates (see ``algebra.induced_bilinear``)."""
    vecs = {"DL": (actor_vecs, actee_vecs), "LD": (actee_vecs, actor_vecs)}
    return Action.from_cross(
        actor, actee, lambda pidx, side: induced_bilinear(
            cross(pidx, side), *vecs[side], actee.dim, back), check=check)


# ---------------------------------------------------------------------------
# mixed axiom instances

_MIXED_PATTERNS = tuple(p for p in iter_product((ACTOR, ACTEE), repeat=3)
                        if len(set(p)) == 2)


def mixed_instances(flavor):
    """All instances of the flavor's axioms (``algebra.AXIOMS``) with
    variables of both sorts, as (name, fn, sorts)."""
    return tuple((f"{name.split(':')[0]} @ ({','.join(pat)})", fn, pat)
                 for name, fn in AXIOMS[flavor]
                 for pat in _MIXED_PATTERNS)


# placement enumeration must reproduce the axiom counts of the definitions
assert len(_MIXED_PATTERNS) == 6
assert len(mixed_instances("dias")) == 30
assert len(mixed_instances("lb")) == 6
assert len(mixed_instances("as")) == 6


# the two equations of a Lie action, as (name, template, sorts); the
# templates can only subtract, so the second is run as
# [p,[m,m']] - [m,[p,m']] = [[p,m],m']
LIE_ACTION_INSTANCES = (
    ("[[p,p'],m] = [p,[p',m]] - [p',[p,m]]",
     lambda m, s, x, y, z: (m(0, m(0, x, y), z),
                            s(m(0, x, m(0, y, z)), m(0, y, m(0, x, z)))),
     (ACTOR, ACTOR, ACTEE)),
    ("[p,[m,m']] = [[p,m],m'] + [m,[p,m']]",
     lambda m, s, x, y, z: (s(m(0, x, m(0, y, z)), m(0, y, m(0, x, z))),
                            m(0, m(0, x, y), z)),
     (ACTOR, ACTEE, ACTEE)),
)


def _check_on_semidirect(subject, act: Action, instances) -> AxiomReport:
    """Two-sorted (name, fn, sorts) instances as basis triples of the
    semidirect product: actee block [0, nl), actor block [nl, nl + nd)."""
    nl = act.actee.dim
    block = {ACTEE: range(nl), ACTOR: range(nl, nl + act.actor.dim)}
    ranged = [(name, fn, tuple(block[srt] for srt in pat))
              for name, fn, pat in instances]
    return _check_templates(AxiomReport(subject), _semidirect_products(act),
                            ranged)


def check_dialgebra_action(act: Action) -> AxiomReport:
    return _check_on_semidirect("dialgebra action", act,
                                mixed_instances("dias"))


def check_leibniz_action(act: Action) -> AxiomReport:
    return _check_on_semidirect("leibniz action", act, mixed_instances("lb"))


def check_assoc_action(act: Action) -> AxiomReport:
    return _check_on_semidirect("associative action", act,
                                mixed_instances("as"))


def check_lie_action(act: Action) -> AxiomReport:
    return _check_on_semidirect("lie action", act, LIE_ACTION_INSTANCES)


ACTION_CHECKERS = {"dias": check_dialgebra_action, "lb": check_leibniz_action,
                   "lie": check_lie_action, "as": check_assoc_action}


# ---------------------------------------------------------------------------
# semidirect products


def _semidirect_products(act: Action) -> list:
    """Product tensors on actee (+) actor; no validity assumption."""
    nl, n = act.actee.dim, act.actee.dim + act.actor.dim
    return [BilinearMap.from_triples(act.field, n, n, n, chain(
        act.actee.products()[pidx].triples(),
        act.cross(pidx, "LD").shifted(0, nl, 0),
        act.cross(pidx, "DL").shifted(nl, 0, 0),
        act.actor.products()[pidx].shifted(nl, nl, nl)))
        for pidx in range(product_arity(act.flavor))]


def semidirect(act: Action, check=True) -> Algebra:
    """The semidirect product on actee (+) actor, the actee block first,
    its axioms certified when ``check`` is set.  The maps of the split
    sequence actee -> E -> actor are unit blocks: the inclusion
    [I | 0]^T, the projection [0 | I] and the splitting [0 | I]^T."""
    labels = ([f"l.{x}" for x in act.actee.labels]
              + [f"d.{x}" for x in act.actor.labels])
    return make_algebra(act.flavor, act.field, _semidirect_products(act),
                        labels, check=check)


# ---------------------------------------------------------------------------
# crossed modules


class CrossedModule(Certified):
    """A morphism mu: L -> D with an action of D on L, axioms certified."""

    invalid = InvalidCrossedModule
    failure = "crossed module axioms fail: {bad.name} at {bad.where}"

    def __init__(self, mu: AlgebraMorphism, action: Action, check=True):
        if mu.source.flavor != action.flavor:
            raise InvalidCrossedModule(
                f"morphism flavor {mu.source.flavor!r} does not match "
                f"action flavor {action.flavor!r}")
        if not (mu.source is action.actee
                or mu.source.same_structure(action.actee)):
            raise InvalidCrossedModule("mu does not start at the actee")
        if not (mu.target is action.actor
                or mu.target.same_structure(action.actor)):
            raise InvalidCrossedModule("mu does not land in the actor")
        self.mu = mu
        self.action = action
        if check:
            self.certify()

    @property
    def flavor(self):
        return self.action.flavor

    @property
    def actee(self):
        return self.mu.source

    @property
    def actor(self):
        return self.mu.target

    def check(self) -> AxiomReport:
        return crossed_module_report(self.mu, self.action)

    def same_structure(self, other: "CrossedModule") -> bool:
        """Tensor-level equality: actee, actor, mu and action."""
        return (self.actee.same_structure(other.actee)
                and self.actor.same_structure(other.actor)
                and self.mu.matrix == other.mu.matrix
                and self.action.same_tensors(other.action))

    def __repr__(self):
        return (f"<CrossedModule {self.flavor} {self.actee.dim}->"
                f"{self.actor.dim}>")


def _crossed_equations(report: AxiomReport, mu: AlgebraMorphism, act: Action):
    f = mu.source.field
    L, D = mu.source, mu.target
    mu_cols = [mu.matrix.col(j) for j in range(L.dim)]
    d_units = [unit_vector(f, D.dim, x) for x in range(D.dim)]
    l_units = [unit_vector(f, L.dim, l) for l in range(L.dim)]
    lp_sym = "l'"
    for pidx, p in enumerate(FLAVORS[act.flavor]):
        dl = act.cross(pidx, "DL")
        ld = act.cross(pidx, "LD")
        lprod = L.products()[pidx]
        dprod = D.products()[pidx]
        fmt = p.form.format

        # (name, src, tgt, left, right, out): out(src(e_i, e_j)) = tgt(left_i, right_j)
        equations = [(f"equivariance: mu({fmt('x', 'l')}) = {fmt('x', 'mu(l)')}",
                      dl, dprod, d_units, mu_cols, mu.matrix)]
        if p.slots[1]:
            equations.append(
                (f"equivariance: mu({fmt('l', 'x')}) = {fmt('mu(l)', 'x')}",
                 ld, dprod, mu_cols, d_units, mu.matrix))
        equations += [
            (f"peiffer: {fmt('mu(l)', lp_sym)} = {fmt('l', lp_sym)}",
             lprod, dl, mu_cols, l_units, None),
            (f"peiffer: {fmt('l', lp_sym)} = {fmt('l', 'mu(' + lp_sym + ')')}",
             lprod, ld, l_units, mu_cols, None)]
        for name, src, tgt, left, right, out in equations:
            bad = first_unintertwined(src, tgt, left, right, out)
            report.add(name, bad is None, bad)
    return report


def crossed_module_report(mu: AlgebraMorphism, act: Action) -> AxiomReport:
    report = AxiomReport(f"{act.flavor} crossed module")
    report.extend(mu.check(), "mu ")
    report.extend(act.check(), "action ")
    return _crossed_equations(report, mu, act)


# ---------------------------------------------------------------------------
# morphisms of crossed modules


class XmodMorphism:
    """A pair (alpha on actees, beta on actors) between crossed modules."""

    def __init__(self, source: CrossedModule, target: CrossedModule,
                 alpha: AlgebraMorphism, beta: AlgebraMorphism):
        if source.flavor != target.flavor:
            raise InvalidCrossedModule("crossed modules of different flavors")
        for f_, dom, cod, tag in ((alpha, source.actee, target.actee, "alpha"),
                                  (beta, source.actor, target.actor, "beta")):
            if not (f_.source is dom or f_.source.same_structure(dom)):
                raise DimensionMismatch(f"{tag} has the wrong source")
            if not (f_.target is cod or f_.target.same_structure(cod)):
                raise DimensionMismatch(f"{tag} has the wrong target")
        self.source = source
        self.target = target
        self.alpha = alpha
        self.beta = beta

    def check(self) -> AxiomReport:
        report = AxiomReport("crossed-module morphism")
        report.extend(self.alpha.check(), "alpha ")
        report.extend(self.beta.check(), "beta ")
        square = (self.target.mu.matrix.mul(self.alpha.matrix)
                  == self.beta.matrix.mul(self.source.mu.matrix))
        report.add("square: mu' . alpha = beta . mu", square, None)

        act, act2 = self.source.action, self.target.action
        a_cols = [self.alpha.matrix.col(j) for j in range(self.source.actee.dim)]
        b_cols = [self.beta.matrix.col(j) for j in range(self.source.actor.dim)]
        for pidx, p in enumerate(FLAVORS[act.flavor]):
            dl, dl2 = act.cross(pidx, "DL"), act2.cross(pidx, "DL")
            ld, ld2 = act.cross(pidx, "LD"), act2.cross(pidx, "LD")
            fmt = p.form.format

            equations = [(f"equivariant: alpha({fmt('x', 'l')}) = "
                          f"{fmt('beta(x)', 'alpha(l)')}", dl, dl2, b_cols, a_cols)]
            if p.slots[1]:
                equations.append((f"equivariant: alpha({fmt('l', 'x')}) = "
                                  f"{fmt('alpha(l)', 'beta(x)')}",
                                  ld, ld2, a_cols, b_cols))
            for name, src, tgt, left, right in equations:
                bad = first_unintertwined(src, tgt, left, right,
                                          self.alpha.matrix)
                report.add(name, bad is None, bad)
        return report

    def is_morphism(self) -> bool:
        return self.check().passed

    def is_bijective(self):
        return self.alpha.is_bijective() and self.beta.is_bijective()

    @classmethod
    def identity(cls, xm: CrossedModule) -> "XmodMorphism":
        return cls(xm, xm, AlgebraMorphism.identity(xm.actee),
                   AlgebraMorphism.identity(xm.actor))

    def compose(self, other: "XmodMorphism") -> "XmodMorphism":
        return XmodMorphism(other.source, self.target,
                            self.alpha.compose(other.alpha),
                            self.beta.compose(other.beta))


# ---------------------------------------------------------------------------
# the semidirect characterization of the crossed-module equations


def _matrix_preserves(src_products, tgt_products, mat: Matrix):
    cols = [mat.col(j) for j in range(mat.cols)]
    for pidx, (ps, pt) in enumerate(zip(src_products, tgt_products)):
        bad = first_unintertwined(ps, pt, cols, cols, mat)
        if bad is not None:
            return False, (pidx, *bad)
    return True, None


def semidirect_homomorphism_checks(xm, action=None) -> AxiomReport:
    """Verify the three canonical maps between semidirect products.

    Accepts a CrossedModule or a raw ``(mu, action)`` pair.  The raw form
    assumes nothing, so the verdicts of the first two maps can be compared
    against the morphism, equivariance and Peiffer items of
    ``crossed_module_report`` on arbitrary candidates: a map
    ``(mu,id)`` from the actee semidirect actor into the actor acting on
    itself, a map ``(id,mu)`` into it from the actee acting on itself, and
    the involution-style map (l,x) -> (-l, mu(l)+x).
    """
    if isinstance(xm, CrossedModule):
        mu, act = xm.mu, xm.action
    else:
        mu, act = xm, action
    L, D = mu.source, mu.target
    f = L.field
    nl, nd = L.dim, D.dim
    e_ld = _semidirect_products(act)
    e_dd = _semidirect_products(self_action(D, check=False))
    e_ll = _semidirect_products(self_action(L, check=False))

    map1 = (mu.matrix.hstack(Matrix.zero(f, nd, nd))
            .vstack(Matrix.zero(f, nd, nl).hstack(Matrix.identity(f, nd))))
    map2 = (Matrix.identity(f, nl).hstack(Matrix.zero(f, nl, nl))
            .vstack(Matrix.zero(f, nd, nl).hstack(mu.matrix)))
    map3 = (Matrix.identity(f, nl).neg().hstack(Matrix.zero(f, nl, nd))
            .vstack(mu.matrix.hstack(Matrix.identity(f, nd))))

    report = AxiomReport("semidirect homomorphisms")
    for name, mat, src, tgt in (
            ("(mu,id) : LxD -> DxD preserves products", map1, e_ld, e_dd),
            ("(id,mu) : LxL -> LxD preserves products", map2, e_ll, e_ld),
            ("(l,x) -> (-l, mu(l)+x) : LxD -> LxD preserves products",
             map3, e_ld, e_ld)):
        ok, where = _matrix_preserves(src, tgt, mat)
        report.add(name, ok, where)
    return report


# ---------------------------------------------------------------------------
# structural consequences


def lemma_crossed_checks(xm: CrossedModule) -> AxiomReport:
    """Consequences every certified crossed module must satisfy.

    Checks Ker mu inside the annihilator of the actee, Im mu an ideal of the
    actor, triviality of the image's action on the kernel, and validity of
    the induced bimodule of actor/Im mu on Ker mu, and returns the report.
    The one raise is a LemmaViolation when the action does not preserve
    Ker mu, so that no induced bimodule exists to check.
    """
    mu, act = xm.mu, xm.action
    L, D = xm.actee, xm.actor
    f = L.field
    flavor = xm.flavor
    report = AxiomReport(f"{flavor} crossed module structure")

    ker = kernel_of(mu)
    report.add("Ker mu lies in the annihilator of the actee",
               not any(basis_products(L, ker.rows)), None)
    im = image_of(mu)
    # the ideal Im mu generates: one closure pass, which adds nothing
    # exactly when Im mu is already an ideal
    q = quotient_algebra(D, im)
    report.add("Im mu is an ideal of the actor", q.ideal.dim == im.dim, None)

    zero = BilinearMap.zero(f, im.dim, ker.dim, L.dim)
    bad = None
    for pidx in range(product_arity(flavor)):
        hits = [first_unintertwined(zero, tgt, im.basis, ker.basis)
                for tgt in (act.cross(pidx, "DL"),
                            act.cross(pidx, "LD").transpose_args())]
        hits = [h for h in hits if h is not None]
        if hits:
            bad = (pidx, *min(hits))
            break
    report.add("Im mu acts trivially on Ker mu", bad is None, bad)

    if report.passed:
        def into_kernel(u):
            c = ker.coords(u)
            if c is None:
                raise LemmaViolation("action does not preserve Ker mu", report)
            return sp_from_dense(f, c)

        induced = induced_action(
            q[0], abelian_algebra(flavor, f, ker.dim), act.cross,
            sp_cols(q.qmap.section), ker.rows, into_kernel,
            check=False)
        report.extend(induced.check(), "induced bimodule: ")
    return report


# ---------------------------------------------------------------------------
# action builders


def xmod_from_ideal(ambient: Algebra, ideal: Subspace) -> CrossedModule:
    """Inclusion of an ideal with the ambient action as a crossed module."""
    if not is_ideal(ambient, ideal):
        raise NotAnIdeal("the designated actee subspace is not an ideal")
    _, l_incl = induced_subalgebra(ambient, ideal)
    act = action_by_ambient_products(AlgebraMorphism.identity(ambient), l_incl)
    return CrossedModule(l_incl, act)


def identity_xmod(alg: Algebra) -> CrossedModule:
    """The identity crossed module of ``alg`` with the self action: the
    embedding J1/I1."""
    return CrossedModule(AlgebraMorphism.identity(alg), self_action(alg))


def zero_xmod(alg: Algebra) -> CrossedModule:
    """The zero-source crossed module over ``alg``: the embedding J0/I0."""
    zero = abelian_algebra(alg.flavor, alg.field, 0)
    mu = AlgebraMorphism(zero, alg, Matrix.zero(alg.field, alg.dim, 0))
    return CrossedModule(mu, trivial_action(alg, zero))


def action_by_ambient_products(actor_incl: AlgebraMorphism,
                               actee_incl: AlgebraMorphism,
                               check=True) -> Action:
    """Action through two embeddings into a common ambient algebra.

    The actee image must absorb products with the actor image.  Each cross
    product is computed in the ambient and pulled back to the canonical
    coordinates of the actee image, so the actee embedding's columns must
    be that basis, as for ``induced_subalgebra``'s inclusion.
    """
    E = actor_incl.target
    if not (actee_incl.target is E or actee_incl.target.same_structure(E)):
        raise DimensionMismatch("embeddings land in different ambients")
    f = E.field
    actee_image = image_of(actee_incl)
    m = actee_incl.matrix
    if actee_image.basis != tuple(tuple(m.col(j)) for j in range(m.cols)):
        raise InvalidAction("the actee embedding's columns are not the "
                            "canonical basis of its image")

    def back(w):
        c = actee_image.coords(w)
        if c is None:
            raise InvalidAction("ambient product leaves the actee image")
        return sp_from_dense(f, c)

    return induced_action(actor_incl.source, actee_incl.source,
                          lambda pidx, side: E.products()[pidx],
                          sp_cols(actor_incl.matrix),
                          sp_cols(actee_incl.matrix), back, check=check)
