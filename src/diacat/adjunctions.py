"""What only the adjunction verifiers run.

The verifiers, ``verify_adjunction_ud``, ``verify_adjunction_xud`` and
``verify_adjunction_chain``, stay in ``functors`` and import this module
when they first run, so no square, equivalence or parallelepiped job
compiles it.  Each adjunction is an explicit map between two enumerated
hom-sets that ``_bijection`` certifies as a bijection: restriction to
generators for Ud, ``xud_transpose`` with the units of ``xud_unit_maps``
for XUd, and for each embedding/projection adjunction a row of
``_CHAIN_ROWS``.

Traced functions are called through their modules when they run
(``functors.enumerate_homs``, ``cat1.cat1_of_xmod``), where the
benchmark's tracer rebinds them.
"""

from __future__ import annotations

from typing import NamedTuple

from . import envelope, functors
from .actions import CrossedModule, XmodMorphism
from .algebra import AlgebraMorphism, AxiomReport, kernel_of
from .errors import DiacatError, NotWellDefined
from .linalg import Matrix, _assert_killed, vec_is_zero
from .tags import _CHAIN_LETTERS, chain_pairs

class BijectionReport(NamedTuple):
    left: list
    right: list
    items: AxiomReport

    @property
    def passed(self):
        return self.items.passed


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


def _splits(env, d, psi: Matrix) -> bool:
    """Whether the transpose of ``psi`` restricts back to ``psi`` on the
    generators; a transpose that is not well defined does not."""
    try:
        induced = envelope.envelope_transpose(env, d, psi)
    except NotWellDefined:
        return False
    return induced.matrix.mul(env.eta) == psi


def _block_diag(f, a: Matrix, b: Matrix) -> Matrix:
    top = a.hstack(Matrix.zero(f, a.rows, b.cols))
    bottom = Matrix.zero(f, b.rows, a.cols).hstack(b)
    return top.vstack(bottom)


def xud_transpose(r: envelope.XudResult, target: CrossedModule,
                  alpha: Matrix, beta: Matrix) -> XmodMorphism:
    """The crossed morphism out of the enveloping crossed module determined
    by a crossed morphism (alpha, beta) into the bracket image of ``target``.

    The pair acts blockwise on the semidirect model, envelopes, factors
    through the kernel-product quotient, and restricts to both levels.
    """
    from .cat1 import cat1_of_xmod
    c_t = cat1_of_xmod(target)
    f = c_t.E.field
    h = _block_diag(f, alpha, beta)
    k = envelope.envelope_transpose(r.env_big, c_t.E, h)
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


def xud_unit_maps(r: envelope.XudResult):
    """(actee unit, actor unit) of the crossed-module envelope adjunction."""
    unit_actor = r.base_bridge.mul(r.env_base.eta)
    return r.unit_actee, unit_actor


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
    coker, proj = functors.cokernel_of_mu(xm)
    zero = AlgebraMorphism.zero(xm.actee, emb.actee)
    homs = functors.enumerate_homs(coker, alg, cap)
    return homs, lambda h: XmodMorphism(
        xm, emb, zero,
        AlgebraMorphism(xm.actor, alg, h.matrix.mul(proj.matrix)))


def _lift_from_actor(xm, alg, emb, cap):
    homs = functors.enumerate_homs(xm.actor, alg, cap)
    return homs, lambda h: XmodMorphism(
        xm, emb,
        AlgebraMorphism(xm.actee, emb.actee, h.matrix.mul(xm.mu.matrix)),
        AlgebraMorphism(xm.actor, alg, h.matrix))


def _lift_into_actor(xm, alg, emb, cap):
    zero = AlgebraMorphism.zero(emb.actee, xm.actee)
    homs = functors.enumerate_homs(alg, xm.actor, cap)
    return homs, lambda h: XmodMorphism(
        emb, xm, zero, AlgebraMorphism(alg, xm.actor, h.matrix))


def _lift_into_actee(xm, alg, emb, cap):
    homs = functors.enumerate_homs(alg, xm.actee, cap)
    return homs, lambda h: XmodMorphism(
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


def _pick_endo(alg, cap):
    endos = functors.enumerate_homs(alg, alg, cap)
    for m in endos:
        if m.matrix != Matrix.identity(alg.field, alg.dim):
            return m
    return endos[0]
