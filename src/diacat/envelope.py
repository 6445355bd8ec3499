"""Truncated free objects and enveloping functors.

The free dialgebra on g generators has as basis the words "letters with one
distinguished center"; the two products either extend the right tail of the
first factor or shift the center into the second factor.  All objects here
are truncated at a length bound N: any product whose result would exceed N
is zero.  Truncation is exact for every purpose below, because a morphism
into an algebra whose (N+1)-fold products vanish factors uniquely through it.

On top of the free objects sit the enveloping quotients (one bracket
relation per generator pair), their universal transposes against nilpotent
targets, functoriality on morphisms, and the crossed-module-level enveloping
pipeline through the semidirect model and its kernel-product quotient,
which is an ideal as it stands (see ``_crossed_envelope``).  Only that
pipeline loads ``actions`` and ``cat1``, when it runs.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .algebra import (Algebra, AlgebraMorphism, AssociativeAlgebra,
                      BilinearMap, Dialgebra, LeibnizAlgebra, kernel_of,
                      multiply_subspaces, quotient_algebra, sp_sub)
from .config import max_dim
from .errors import (DimensionMismatch, InvalidCrossedModule, LemmaViolation,
                     NotWellDefined, ResourceCapExceeded)
from .linalg import Matrix, QuotientMap, Subspace, _assert_killed, image

if TYPE_CHECKING:
    from .actions import CrossedModule
    from .cat1 import Cat1


class Word(NamedTuple):
    """Free-dialgebra basis word: letter tuples around a distinguished center."""

    left: tuple
    center: int
    right: tuple

    def letters(self):
        return self.left + (self.center,) + self.right


def _build_free(obj, field, generators, bound, spell, rules, split):
    """Spell the words of length <= ``bound`` on ``generators`` letters and
    fill one product per rule.  Sets ``generators``, ``bound``, ``words``,
    ``word_index`` and ``factors`` on ``obj`` and returns the products.

    Words come by length, then letters, then ``spell``'s order of the words
    over one letter string, so generator i is word i.  A rule maps a pair of
    words to their product word; it is filled only on the pairs whose
    lengths sum to at most ``bound``, the rest of the product being zero.
    ``split`` gives each word past the generators as ``(p, a, b)``, product
    p of the two shorter words a and b; ``obj.factors`` records those
    factorizations by index, in word order.  The dimension cap is applied
    to the word count length by length, before the words are spelled.
    """
    if generators < 0 or bound < 1:
        raise DimensionMismatch(
            "need a nonnegative generator count and length bound >= 1")
    cap = max_dim(field)
    ends = [0]  # ends[n]: the number of words of length <= n
    lengths = range(1, bound + 1) if generators else ()  # no letters, no words
    for n in lengths:
        ends.append(ends[-1] + generators ** n * len(spell((0,) * n)))
        if ends[-1] > cap:
            raise ResourceCapExceeded(
                ends[-1] if n == bound else f"at least {ends[-1]}", cap,
                field.name)
    words = tuple(w for n in range(1, len(ends))
                  for letters in product(range(generators), repeat=n)
                  for w in spell(letters))
    index = {w: i for i, w in enumerate(words)}
    dim, one = len(words), field.one()
    obj.generators, obj.bound = generators, bound
    obj.words, obj.word_index = words, index
    obj.factors = tuple((p, index[a], index[b])
                        for p, a, b in map(split, words[generators:]))
    return [BilinearMap.from_triples(
        field, dim, dim, dim,
        [(i, j, index[rule(words[i], words[j])], one)
         for n in range(1, len(ends) - 1)
         for i in range(ends[n - 1], ends[n])
         for j in range(ends[bound - n])])
        for rule in rules]


def _centers(letters):
    return [Word(letters[:pos], letters[pos], letters[pos + 1:])
            for pos in range(len(letters))]


def _dias_split(w: Word):
    # canonical bracketing l1 |- (l2 |- ... ((center -| r1) -| r2) ...)
    if w.left:
        return 1, Word((), w.left[0], ()), w._replace(left=w.left[1:])
    return 0, w._replace(right=w.right[:-1]), Word((), w.right[-1], ())


def _word_label(w: Word):
    parts = [f"v{a}" for a in w.left]
    parts.append(f"v{w.center}^")
    parts.extend(f"v{a}" for a in w.right)
    return ".".join(parts)


class FreeDialgebra(Dialgebra):
    """Truncated free dialgebra on ``generators`` letters: a -| b extends
    the right tail of a by the letters of b, a |- b shifts the center into
    b."""

    def __init__(self, field, generators: int, bound: int):
        left, right = _build_free(
            self, field, generators, bound, _centers,
            (lambda a, b: a._replace(right=a.right + b.letters()),
             lambda a, b: b._replace(left=a.letters() + b.left)),
            _dias_split)
        super().__init__(field, left, right, list(map(_word_label, self.words)))


class TensorAlgebra(AssociativeAlgebra):
    """Truncated tensor algebra: nonempty words, concatenation, overflow 0."""

    def __init__(self, field, generators: int, bound: int):
        prod, = _build_free(self, field, generators, bound,
                            lambda letters: [letters], (tuple.__add__,),
                            lambda w: (0, w[:-1], w[-1:]))
        super().__init__(field, prod,
                         [".".join(f"v{a}" for a in w) for w in self.words])


@cache
def _free(cls, field, generators: int, bound: int):
    return cls(field, generators, bound)


def free_dialgebra(field, generators: int, bound: int) -> FreeDialgebra:
    return _free(FreeDialgebra, field, generators, bound)


def tensor_algebra(field, generators: int, bound: int) -> TensorAlgebra:
    return _free(TensorAlgebra, field, generators, bound)


# ---------------------------------------------------------------------------
# enveloping quotients


class Envelope(NamedTuple):
    """A truncated enveloping algebra with its defining data.

    ``eta`` maps generators to classes of length-1 words; ``proj`` is the
    projection from the free object; ``qmap`` is the ``QuotientMap`` of the
    ideal divided out, ``relations``; its section lifts envelope
    coordinates to the free object.
    """

    source: Algebra
    bound: int
    algebra: Algebra
    eta: Matrix
    proj: AlgebraMorphism
    qmap: QuotientMap

    @property
    def free(self):
        return self.proj.source

    @property
    def relations(self) -> Subspace:
        return self.qmap.sub


def ud(g: LeibnizAlgebra, bound: int) -> Envelope:
    """Truncated enveloping dialgebra: [x,y] = x -| y - y |- x on
    generators."""
    return _envelope(g, bound, free_dialgebra(g.field, g.dim, bound))


def u_lie(p: Algebra, bound: int) -> Envelope:
    """Truncated enveloping associative algebra of a Lie algebra:
    commutators of generators are identified with their brackets."""
    return _envelope(p, bound, tensor_algebra(p.field, p.dim, bound))


def _envelope(source: Algebra, bound: int, free: Algebra) -> Envelope:
    """``free`` divided by the ideal of the relations
    [e_i,e_j] - (e_i * e_j - e_j *' e_i), one per generator pair, where
    * is the first and *' the last product of ``free``.  Generator i is
    basis word i of either free object."""
    f = free.field
    first, last = free.products()[0], free.products()[-1]
    bracket = source.products()[0]
    n = source.dim
    rels = [sp_sub(f, bracket.pair(i, j),
                   sp_sub(f, first.pair(i, j), last.pair(j, i)))
            for i in range(n) for j in range(n)]
    alg, proj = quot = quotient_algebra(free, Subspace.span(f, rels, free.dim))
    eta = Matrix.from_cols(f, [proj.matrix.col(i) for i in range(n)], alg.dim)
    return Envelope(source, bound, alg, eta, proj, quot.qmap)


# ---------------------------------------------------------------------------
# universal transposes and functoriality


def envelope_transpose(env: Envelope, target: Algebra,
                       phi: Matrix) -> AlgebraMorphism:
    """The morphism out of the envelope determined by generator images.

    ``phi`` sends generators of the enveloped algebra into ``target``; each
    word goes to the product, in ``target``, of the images of its two
    factors in the free object's ``factors``.  The defining relations are
    verified to die and the induced map to be a morphism; failures raise
    NotWellDefined (they mean ``phi`` is not a bracket morphism, or the
    target is not nilpotent enough).
    """
    free = env.free
    f = free.field
    if phi.cols != env.source.dim or phi.rows != target.dim:
        raise DimensionMismatch("generator images have the wrong shape")
    cols = [phi.col(i) for i in range(phi.cols)]
    prods = target.products()
    for p, i, j in free.factors:
        cols.append(prods[p].apply(cols[i], cols[j]))
    on_free = Matrix.from_cols(f, cols, target.dim)
    _assert_killed(f, on_free, env.relations, "the map of generator images")
    induced = AlgebraMorphism(env.algebra, target,
                              on_free.mul(env.qmap.section))
    rep = induced.check()
    if not rep.passed:
        raise NotWellDefined(
            f"induced map is not a morphism: {rep.first_failure().name} "
            "(target must be nilpotent of class <= the bound)")
    if induced.matrix.mul(env.eta) != phi:
        raise NotWellDefined("induced map does not extend the generators")
    return induced


def envelope_functor_morphism(env_src: Envelope, env_tgt: Envelope,
                              f_mor: AlgebraMorphism) -> AlgebraMorphism:
    """Envelope of a morphism: substitute generator images letterwise.
    The transpose certifies that it is natural on the generators."""
    return envelope_transpose(env_src, env_tgt.algebra,
                              env_tgt.eta.mul(f_mor.matrix))


# ---------------------------------------------------------------------------
# crossed-module-level envelopes


class XudResult(NamedTuple):
    """Full record of the crossed-module enveloping pipeline.

    ``xmod`` is the resulting crossed module and ``cat1`` its retraction
    model on the quotient ``env_big``/X, whose base coordinates are those
    of ``env_base``; ``unit_actee`` sends the input actee to Ker s-bar
    coordinates of the classes of its length-1 words.  ``qmap`` is the
    ``QuotientMap`` of the kernel-product ideal that ``pi`` divides out,
    whose section embeds the quotient's coordinates back into ``env_big``.
    """

    xmod: CrossedModule
    cat1: Cat1
    env_big: Envelope
    env_base: Envelope
    pi: AlgebraMorphism
    unit_actee: Matrix
    qmap: QuotientMap


def _crossed_envelope(xm: CrossedModule, bound: int, env_of) -> XudResult:
    """The envelope of the semidirect model E = actee x actor, divided by
    the ideal X spanned by products of the kernels of the enveloped s and
    t, as a cat-1 algebra over the envelope of the base, read back as a
    crossed module.

    X = Ks.Kt + Kt.Ks is already a two-sided ideal, so the closure
    ``quotient_algebra`` runs adds nothing.  Both kernels are ideals, and
    associativity moves any outer factor e onto one of them:
    e(ab) = (ea)b with ea in Ks, and (ab)e = a(be) with be in Kt.  For
    dialgebras the axioms do the same for every pair of products:
    e-|(a-|b) and e-|(a|-b) are (e-|a)-|b by d2 and d1, e|-(a-|b) is
    (e|-a)-|b by d3 and e|-(a|-b) is (e|-a)|-b by d5; on the right,
    (a-|b)-|e, (a|-b)-|e, (a-|b)|-e and (a|-b)|-e are a-|(b-|e),
    a|-(b-|e), a|-(b|-e) and a|-(b|-e) by d2, d3, d4 and d5.

    The enveloped base inclusion ``incl_bar`` is certified to be the
    canonical basis of its image, column for column, so the cat-1 base
    takes ``env_base``'s coordinates as they are.  Why it holds:

    - E's basis is the actee block, then the actor block in the base's
      order, so letter i of the base is letter dim(actee) + i of E.  Words
      come by length, then letters, so this monotone renaming keeps the
      order of the words in base letters alone;
    - every defining relation of env_of(E) on two base letters is the
      base's relation renamed, and one with an actee letter lies on words
      with an actee letter, since the actee is an ideal of E.  A product
      of words has the letters of both, so the relation ideal splits into
      the base's ideal, renamed, and a part on words with an actee letter;
    - row reduction treats vectors on disjoint columns apart, and
      ``quotient_algebra`` keeps the non-pivot words as its basis, in
      order.  So the base's basis words are basis words of env_big, in
      order, and the enveloped inclusion sends each to its own unit
      vector;
    - s kills the actee and fixes the base, so the kernel of the enveloped
      s is spanned by the words with an actee letter.  Hence X and its
      closure lie on those words too, and dividing by them sends the unit
      vectors of base-only words to unit vectors, in order.

    So ``incl_bar``'s columns are unit vectors at rising positions, which
    is the canonical basis of their span; a ``LemmaViolation`` says a
    proviso failed.
    """
    from .actions import lemma_crossed_checks
    from .cat1 import Cat1, cat1_of_xmod, xmod_of_cat1
    c = cat1_of_xmod(xm)
    env_big = env_of(c.E, bound)
    env_base = env_of(c.base, bound)
    uds = envelope_functor_morphism(env_big, env_base, c.s)
    udt = envelope_functor_morphism(env_big, env_base, c.t)
    udsigma = envelope_functor_morphism(env_base, env_big, c.incl)
    big = env_big.algebra
    f = big.field
    ks = kernel_of(uds)
    kt = kernel_of(udt)
    x = multiply_subspaces(big, ks, kt).add(multiply_subspaces(big, kt, ks))
    quot, pi = q = quotient_algebra(big, x)
    xc = q.ideal
    # s and t must factor through the quotient
    _assert_killed(f, uds.matrix, xc, "the enveloped s")
    _assert_killed(f, udt.matrix, xc, "the enveloped t")
    section = q.qmap.section
    sbar = uds.matrix.mul(section)
    tbar = udt.matrix.mul(section)
    incl_bar = pi.matrix.mul(udsigma.matrix)
    d_sub = image(incl_bar)
    if d_sub.basis != tuple(tuple(incl_bar.col(i))
                            for i in range(incl_bar.cols)):
        raise LemmaViolation(
            "the enveloped base inclusion is not the canonical basis of its "
            "image")
    cat1 = Cat1(quot, d_sub, sbar, tbar)
    out = xmod_of_cat1(cat1)
    lemma = lemma_crossed_checks(out)
    if not lemma.passed:
        bad = lemma.first_failure()
        raise LemmaViolation(
            f"structure lemma failed: {bad.name} at {bad.where}", lemma)
    eta_classes = pi.matrix.mul(env_big.eta)
    unit_cols = [cat1.kers.coords(eta_classes.col(i))
                 for i in range(xm.actee.dim)]
    if None in unit_cols:
        raise LemmaViolation("an actee generator does not land in Ker s-bar")
    unit_actee = Matrix.from_cols(f, unit_cols, cat1.kers.dim)
    return XudResult(out, cat1, env_big, env_base, pi, unit_actee, q.qmap)


def xud_full(xlb: CrossedModule, bound: int) -> XudResult:
    """Enveloping crossed module of dialgebras of a Leibniz crossed module.

    Builds the semidirect retraction model, envelopes it and the base,
    quotients by the ideal spanned by products of the two structural
    kernels, and restricts the induced target map to Ker s-bar.
    """
    if xlb.flavor != "lb":
        raise InvalidCrossedModule("xud expects a Leibniz crossed module")
    return _crossed_envelope(xlb, bound, ud)


def xud(xlb: CrossedModule, bound: int) -> CrossedModule:
    return xud_full(xlb, bound).xmod


def xu_full(xlie: CrossedModule, bound: int) -> XudResult:
    """Lie-to-associative analog of xud_full."""
    if xlie.flavor != "lie":
        raise InvalidCrossedModule("xu expects a Lie crossed module")
    return _crossed_envelope(xlie, bound, u_lie)


def xu(xlie: CrossedModule, bound: int) -> CrossedModule:
    return xu_full(xlie, bound).xmod
