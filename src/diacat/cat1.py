"""cat-1 structures, internal categories, and their crossed-module avatars.

A cat-1 structure is an algebra E with a distinguished subalgebra and two
retractions s, t onto it whose kernels multiply to zero in every order.  Such
data is equivalent to a crossed module: one direction restricts t to Ker s
with the ambient action, the other rebuilds E as the semidirect product
that ``actions.semidirect`` certifies, with s(l,x) = x and
t(l,x) = mu(l) + x written as the block matrices [0 | I] and [mu | I];
``check_cat1`` then certifies both as morphisms.  A ``Cat1`` computes
Ker s once, as ``kers``, and the crossed module is read back from that
subspace by ``actions.action_by_ambient_products``.  Internal categories
refine the picture with a composition morphism on the pullback, whose unit
section is the base inclusion; both directions are implemented here along
with full axiom checkers and canonical round-trip isomorphisms.
"""

from __future__ import annotations

from .actions import CrossedModule, action_by_ambient_products, semidirect
from .algebra import (FLAVORS, Algebra, AlgebraMorphism, AxiomReport,
                      BilinearMap, Certified, direct_sum, first_unintertwined,
                      induced_subalgebra, kernel_of, multiply_subspaces)
from .errors import (DimensionMismatch, InvalidCat1, InvalidCrossedModule,
                     InvalidInternalCategory)
from .linalg import (Matrix, Subspace, kernel, unit_vector, vec_add, vec_eq,
                     vec_sub)


class Cat1(Certified):
    """An algebra with a retraction pair onto a subalgebra.

    ``base`` carries the induced structure of ``d_sub`` in its canonical
    coordinates and ``incl`` embeds it back; ``s`` and ``t`` are expressed in
    those coordinates.  ``kers``, the subspace Ker s of E, is computed once
    here, for every reader: the checkers, the crossed module restricted to
    it, the decomposition witness and the envelopes.
    """

    invalid = InvalidCat1
    failure = "cat-1 axioms fail: {bad.name} at {bad.where}"

    def __init__(self, E: Algebra, d_sub: Subspace, s_matrix: Matrix,
                 t_matrix: Matrix, check=True):
        self.E = E
        self.d_sub = d_sub
        self.base, self.incl = induced_subalgebra(E, d_sub)
        self.s = AlgebraMorphism(E, self.base, s_matrix)
        self.t = AlgebraMorphism(E, self.base, t_matrix)
        self.kers = kernel_of(self.s)
        if check:
            self.certify()

    @property
    def flavor(self):
        return self.E.flavor

    def check(self) -> AxiomReport:
        return check_cat1(self)

    def __repr__(self):
        return f"<Cat1 {self.flavor} dim {self.E.dim} over base {self.base.dim}>"


def check_cat1(c: Cat1) -> AxiomReport:
    """Subalgebra closure, both retraction identities, and the vanishing of
    all kernel cross products."""
    report = AxiomReport(f"{c.flavor} cat-1 structure")
    prod_span = multiply_subspaces(c.E, c.d_sub, c.d_sub)
    report.add("base subspace is closed under products",
               prod_span.is_subspace_of(c.d_sub), None)
    report.extend(c.incl.check(), "incl ")
    report.extend(c.s.check(), "s ")
    report.extend(c.t.check(), "t ")
    ident = Matrix.identity(c.E.field, c.base.dim)
    report.add("s restricts to the identity on the base",
               c.s.matrix.mul(c.incl.matrix) == ident, None)
    report.add("t restricts to the identity on the base",
               c.t.matrix.mul(c.incl.matrix) == ident, None)

    kers, kert = c.kers, kernel_of(c.t)
    for p, prod in zip(FLAVORS[c.flavor], c.E.products()):
        for a, b, aname, bname in ((kers, kert, "Ker s", "Ker t"),
                                   (kert, kers, "Ker t", "Ker s")):
            bad = first_unintertwined(
                BilinearMap.zero(c.E.field, a.dim, b.dim, c.E.dim), prod,
                a.rows, b.rows)
            report.add(f"{p.form.format(aname, bname)} = 0",
                       bad is None, bad)
    return report


# ---------------------------------------------------------------------------
# crossed module <-> cat-1


def cat1_of_xmod(xm: CrossedModule) -> Cat1:
    """Semidirect model: E = actee x actor, s(l,x) = x, t(l,x) = mu(l)+x,
    so s = [0 | I] and t = [mu | I] in E's blocks."""
    E = semidirect(xm.action)
    f = E.field
    nl, nd = xm.actee.dim, xm.actor.dim
    d_sub = Subspace.span(
        f, [unit_vector(f, nl + nd, nl + i) for i in range(nd)], nl + nd)
    ident = Matrix.identity(f, nd)
    s_matrix = Matrix.zero(f, nd, nl).hstack(ident)
    t_matrix = xm.mu.matrix.hstack(ident)
    return Cat1(E, d_sub, s_matrix, t_matrix)


def xmod_of_cat1(c: Cat1) -> CrossedModule:
    """Restrict t to Ker s; the base acts through its inclusion by the
    ambient products."""
    act, l_incl = action_by_ambient_products(c.incl, c.kers)
    return CrossedModule(c.t.compose(l_incl), act)


# ---------------------------------------------------------------------------
# round-trip witnesses


def cat1_decomposition_iso(c: Cat1, target: Cat1) -> AlgebraMorphism:
    """The splitting e = (e - incl(s(e))) + incl(s(e)) maps E isomorphically
    onto the semidirect model rebuilt from its crossed module.  Since
    s . incl = id, e - incl(s(e)) lies in Ker s, so its coordinates in the
    canonical basis ``c.kers`` are its entries at the pivots."""
    f = c.E.field
    cols = []
    for j in range(c.E.dim):
        e = unit_vector(f, c.E.dim, j)
        sval = c.s.matrix.col(j)
        resid = vec_sub(f, e, c.incl.matrix.mul_vec(sval))
        cols.append([resid[p] for p in c.kers.pivots] + list(sval))
    return AlgebraMorphism(c.E, target.E,
                           Matrix.from_cols(f, cols, target.E.dim))


def cat1_isomorphism_report(c1: Cat1, c2: Cat1, h: AlgebraMorphism) -> AxiomReport:
    """Verify h: E1 -> E2 as an isomorphism of cat-1 structures.

    The bases must be structurally equal; h has to fix them and to intertwine
    both retractions.
    """
    report = AxiomReport("cat-1 isomorphism")
    report.add("bases structurally equal", c1.base.same_structure(c2.base), None)
    report.extend(h.check(), "h ")
    report.add("h is bijective", h.is_bijective(), None)
    report.add("h fixes the base",
               h.matrix.mul(c1.incl.matrix) == c2.incl.matrix, None)
    report.add("s' . h = s", c2.s.matrix.mul(h.matrix) == c1.s.matrix, None)
    report.add("t' . h = t", c2.t.matrix.mul(h.matrix) == c1.t.matrix, None)
    return report


# ---------------------------------------------------------------------------
# internal categories


class InternalCategory(Certified):
    """A cat-1 structure with a composition morphism; its unit section is
    the base inclusion ``cat1.incl``.

    The object of composable pairs is the subalgebra of E (+) E where t of
    the first component equals s of the second; ``gamma`` is expressed in its
    canonical coordinates.
    """

    invalid = InvalidInternalCategory
    failure = "internal-category axioms fail: {bad.name} at {bad.where}"

    def __init__(self, cat1: Cat1, gamma_on_sum: Matrix):
        self.cat1 = cat1
        E = cat1.E
        self.EE = direct_sum(E, E)
        pairing = cat1.t.matrix.hstack(cat1.s.matrix.neg())
        self.pullback = kernel(pairing)
        self.pb_alg, self.pb_incl = induced_subalgebra(self.EE, self.pullback)
        if gamma_on_sum.cols != 2 * E.dim or gamma_on_sum.rows != E.dim:
            raise DimensionMismatch("gamma must be given on E (+) E")
        self.gamma = AlgebraMorphism(self.pb_alg, E,
                                     gamma_on_sum.mul(self.pb_incl.matrix))
        self.certify()

    @property
    def flavor(self):
        return self.cat1.flavor

    def compose(self, u, v):
        """gamma(u, v), or None when (u, v) is off the pullback."""
        w = self.pullback.coords(list(u) + list(v))
        return None if w is None else self.gamma.matrix.mul_vec(w)

    def check(self) -> AxiomReport:
        return check_internal_category(self)


def check_internal_category(ic: InternalCategory) -> AxiomReport:
    """The cat-1 structure's certificate (checked here only when it was
    built unchecked), the unit as a section of s and t, and gamma's
    morphism, unit, associativity and kernel laws."""
    report = AxiomReport(f"{ic.flavor} internal category")
    c = ic.cat1
    E = c.E
    f = E.field
    sigma = c.incl.matrix
    report.extend(c.certificate or check_cat1(c), "cat1 ")
    report.extend(c.incl.check(), "sigma ")
    ident = Matrix.identity(f, c.base.dim)
    report.add("s . sigma = id", c.s.matrix.mul(sigma) == ident, None)
    report.add("t . sigma = id", c.t.matrix.mul(sigma) == ident, None)

    closure = multiply_subspaces(ic.EE, ic.pullback, ic.pullback)
    report.add("pullback is closed under products",
               closure.is_subspace_of(ic.pullback), None)
    report.extend(ic.gamma.check(), "gamma ")

    # pr1 and pr2 on the pullback: the two halves of its inclusion
    n, pb = E.dim, ic.pb_incl.matrix
    pr1r = Matrix(f, pb.entries[:n], n, pb.cols)
    pr2r = Matrix(f, pb.entries[n:], n, pb.cols)
    report.add("s . gamma = s . pr1",
               c.s.matrix.mul(ic.gamma.matrix) == c.s.matrix.mul(pr1r), None)
    report.add("t . gamma = t . pr2",
               c.t.matrix.mul(ic.gamma.matrix) == c.t.matrix.mul(pr2r), None)

    # unit laws, one basis vector of E at a time, the unit on either side
    for name, end, right in (("gamma(x, sigma t(x)) = x", c.t, True),
                             ("gamma(sigma s(x), x) = x", c.s, False)):
        bad = None
        for j in range(E.dim):
            e = unit_vector(f, E.dim, j)
            ue = sigma.mul_vec(end.matrix.col(j))
            g = ic.compose(*((e, ue) if right else (ue, e)))
            if g is None or not vec_eq(f, g, e):
                bad = (j,)
                break
        report.add(name, bad is None, bad)

    # associativity over the object of composable triples
    zero_block = Matrix.zero(f, c.base.dim, n)
    top = c.t.matrix.hstack(c.s.matrix.neg()).hstack(zero_block)
    bottom = zero_block.hstack(c.t.matrix).hstack(c.s.matrix.neg())
    triple = kernel(top.vstack(bottom))
    bad = None
    for bi, w in enumerate(triple.basis):
        u, v, z = w[:n], w[n:2 * n], w[2 * n:]
        guv, gvz = ic.compose(u, v), ic.compose(v, z)
        left = None if guv is None else ic.compose(guv, z)
        right = None if gvz is None else ic.compose(u, gvz)
        if left is None or right is None or not vec_eq(f, left, right):
            bad = (bi,)
            break
    report.add("gamma is associative on composable triples", bad is None, bad)

    # composition of kernel elements reduces to addition
    bad = None
    for i, l in enumerate(c.kers.basis):
        unit_of_l = sigma.mul_vec(c.t.matrix.mul_vec(list(l)))
        for j, lp in enumerate(c.kers.basis):
            g = ic.compose(l, vec_add(f, unit_of_l, list(lp)))
            if g is None or not vec_eq(f, g, vec_add(f, list(l), list(lp))):
                bad = (i, j)
                break
        if bad:
            break
    report.add("gamma(l, sigma t(l) + l') = l + l'", bad is None, bad)
    return report


def xdias_to_internal(xm: CrossedModule) -> InternalCategory:
    """Augment the semidirect cat-1 model with the componentwise composition
    gamma((l,x),(l',x+mu(l))) = (l+l', x)."""
    if xm.flavor != "dias":
        raise InvalidCrossedModule("xdias_to_internal expects a dialgebra crossed module")
    c = cat1_of_xmod(xm)
    f = c.E.field
    nl, nd = xm.actee.dim, xm.actor.dim
    il = Matrix.identity(f, nl)
    idd = Matrix.identity(f, nd)
    top = il.hstack(Matrix.zero(f, nl, nd)).hstack(il).hstack(Matrix.zero(f, nl, nd))
    bottom = (Matrix.zero(f, nd, nl).hstack(idd)
              .hstack(Matrix.zero(f, nd, nl + nd)))
    return InternalCategory(c, top.vstack(bottom))
