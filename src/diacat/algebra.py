"""Finite-dimensional algebras given by structure constants.

Four flavors are supported:

* ``dias`` -- diassociative algebras (dialgebras): two products ``-|`` (left)
  and ``|-`` (right) subject to five axioms,
* ``lb``   -- (right) Leibniz algebras: one bracket and the derivation-style
  identity ``[x,[y,z]] = [[x,y],z] - [[x,z],y]``,
* ``as``   -- associative algebras,
* ``lie``  -- Lie algebras: alternating bracket plus the same identity.

``FLAVORS`` is the one place where a flavor is defined: for each of its
products the attribute and document key, the name and infix form used in
reports, and the pair of action slots.  ``Algebra`` stores its products
under those keys, and the four flavor classes only set ``flavor``.

Structure tensors are stored sparsely, because at desk scale they are
overwhelmingly zero: a ``BilinearMap`` keeps ``rows[i]``, the nonzero basis
products e_i e_j keyed by j, and builds ``cols``, the same cells keyed by
column, on first read.  Constructors check the axioms and attach the
report as a certificate; pass ``check=False`` only when the caller
re-certifies immediately afterwards.

Every basis triple is certified, but not one at a time: ``_check_templates``
evaluates each axiom once per slab ``x = e_i``, with y and z ranging over
all basis vectors at once, and multiplies only along the nonzero cells of
the products.  A free dialgebra, about 98% zero products, is checked at the
cost of its nonzero products rather than of its n^3 triples.  A failing
axiom is located at its row-major first violated triple, found in the first
slab where the two sides differ, and the later slabs are skipped.

Ideals are closed by one pass.  ``ideal_closure`` keeps a worklist: each
new direction is multiplied by the basis once, on both sides, reading only
the products' nonzero cells (``basis_products``), and the products that
escape the ideal found so far extend its sparse canonical basis by one
growth step, whose new rows are the next frontier; the old basis is never
reduced again.  ``is_ideal`` is the same pass over the whole basis of a
subspace, stopped at the first escape.  ``quotient_algebra`` divides by the
ideal its argument generates, so a seed is closed once and an ideal is
passed over once: the pass that builds ideals is also the one that
certifies them.

Only the functions that build matrices, subspaces or quotients import
``linalg``, when they run; the checker's sparse vectors come from
``fields``, so certifying an algebra loads no linear algebra.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, NamedTuple, Optional

from .config import guard_dim
from .errors import (DimensionMismatch, FieldMismatch, InvalidAlgebra,
                     NotClosed)
from .fields import Field, sp_add_into, sp_from_dense, sp_to_dense

if TYPE_CHECKING:
    from .linalg import Matrix, Subspace

# ---------------------------------------------------------------------------
# sparse vectors


def sp_add(field, a: dict, b: dict) -> dict:
    out = dict(a)
    sp_add_into(field, out, b)
    return out


def sp_sub(field, a: dict, b: dict) -> dict:
    out = dict(a)
    sp_add_into(field, out, b, field.neg(field.one()))
    return out


def sp_cols(m: Matrix) -> list:
    """The columns of ``m`` as sparse vectors."""
    return [sp_from_dense(m.field, m.col(j)) for j in range(m.cols)]


# ---------------------------------------------------------------------------
# bilinear maps


# the product of an absent cell, shared by every map and never mutated
_EMPTY: dict = {}


class BilinearMap:
    """Bilinear map field^l x field^r -> field^o via sparse basis products.

    ``rows[i]`` maps j to the product e_i e_j, a sparse vector, and holds
    only nonzero products, in insertion order rather than by j.
    """

    __slots__ = ("field", "left_dim", "right_dim", "out_dim", "rows", "_cols")

    def __init__(self, field: Field, left_dim: int, right_dim: int, out_dim: int,
                 rows=None):
        self.field = field
        self.left_dim = left_dim
        self.right_dim = right_dim
        self.out_dim = out_dim
        self.rows = tuple({} for _ in range(left_dim)) if rows is None else rows
        self._cols = None

    @property
    def cols(self):
        """The same cells keyed by column, ``cols[j][i]``, built on first
        read."""
        if self._cols is None:
            self._cols = tuple({} for _ in range(self.right_dim))
            for i, row in enumerate(self.rows):
                for j, cell in row.items():
                    self._cols[j][i] = cell
        return self._cols

    @classmethod
    def zero(cls, field, left_dim, right_dim=None, out_dim=None):
        return cls(field, left_dim, left_dim if right_dim is None else right_dim,
                   left_dim if out_dim is None else out_dim)

    @classmethod
    def from_triples(cls, field, left_dim, right_dim, out_dim, triples):
        """triples: iterable of (i, j, k, coeff); unlisted entries are zero."""
        rows = tuple({} for _ in range(left_dim))
        for (i, j, k, c) in triples:
            if not (0 <= i < left_dim and 0 <= j < right_dim and 0 <= k < out_dim):
                raise DimensionMismatch(f"triple index ({i},{j},{k}) out of range")
            c = field.of(c) if isinstance(c, int) else c
            cell = rows[i].setdefault(j, {})
            if k in cell:
                c = field.add(cell[k], c)
            if field.is_zero(c):
                cell.pop(k, None)
            else:
                cell[k] = c
        return cls(field, left_dim, right_dim, out_dim,
                   tuple({j: cell for j, cell in row.items() if cell}
                         for row in rows))

    def shifted(self, di, dj, dk):
        """The triples with i, j and k moved up by di, dj and dk: this map
        as a block of a larger one."""
        return ((i + di, j + dj, k + dk, c) for i, j, k, c in self.triples())

    def pair(self, i, j) -> dict:
        """Sparse product of basis elements (do not mutate the result)."""
        return self.rows[i].get(j, _EMPTY)

    def apply_sparse(self, u: dict, v: dict) -> dict:
        f = self.field
        out: dict = {}
        for i, a in u.items():
            row = self.rows[i]
            for j, b in v.items():
                cell = row.get(j)
                if cell:
                    sp_add_into(f, out, cell, f.mul(a, b))
        return out

    def with_basis(self, u: dict) -> dict:
        """The nonzero products u e_j of a sparse vector u, keyed by j: the
        rows at u's nonzero coordinates summed, so only nonzero cells are
        read.  ``transpose_args().with_basis(u)`` gives the e_j u."""
        f = self.field
        out: dict = {}
        for i, a in u.items():
            for j, cell in self.rows[i].items():
                sp_add_into(f, out.setdefault(j, {}), cell, a)
        return {j: w for j, w in out.items() if w}

    def apply(self, u, v) -> list:
        out = self.apply_sparse(sp_from_dense(self.field, u),
                                sp_from_dense(self.field, v))
        return sp_to_dense(self.field, out, self.out_dim)

    def triples(self):
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                for k in sorted(row[j]):
                    yield (i, j, k, row[j][k])

    def is_zero(self):
        return not any(self.rows)

    def transpose_args(self) -> "BilinearMap":
        """Swap the two arguments: (u,v) -> product(v,u)."""
        return BilinearMap(self.field, self.right_dim, self.left_dim,
                           self.out_dim, self.cols)

    def negate(self) -> "BilinearMap":
        f = self.field
        rows = tuple({j: {k: f.neg(c) for k, c in cell.items()}
                      for j, cell in row.items()} for row in self.rows)
        return BilinearMap(f, self.left_dim, self.right_dim, self.out_dim, rows)

    def subtract(self, other: "BilinearMap") -> "BilinearMap":
        f = self.field
        rows = tuple(dict(row) for row in self.rows)
        for row, theirs in zip(rows, other.rows):
            for j, cell in theirs.items():
                d = sp_sub(f, row.pop(j, _EMPTY), cell)
                if d:
                    row[j] = d
        return BilinearMap(f, self.left_dim, self.right_dim, self.out_dim, rows)

    def __eq__(self, other):
        if not isinstance(other, BilinearMap):
            return NotImplemented
        return (self.field == other.field
                and (self.left_dim, self.right_dim, self.out_dim)
                == (other.left_dim, other.right_dim, other.out_dim)
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.left_dim, self.right_dim, self.out_dim,
                     tuple(self.triples())))

    def __repr__(self):
        return (f"BilinearMap({self.field}, {self.left_dim}x{self.right_dim}"
                f"->{self.out_dim}, "
                f"{sum(len(c) for r in self.rows for c in r.values())} nz)")


def induced_bilinear(prod: BilinearMap, lefts, rights, out_dim,
                     back) -> BilinearMap:
    """The map (a, b) -> back(prod(lefts[a], rights[b])) on sparse vectors.

    ``lefts`` and ``rights`` are sparse vectors in the two arguments of
    ``prod``; ``back`` carries a sparse product to sparse ``out_dim``
    coordinates, raising when it has none.  It is linear, so it is called
    only on nonzero products.  Products pass to quotients and subspaces,
    and actions along embeddings, through this one map.
    """
    rows = []
    for u in lefts:
        prods = ((b, prod.apply_sparse(u, v)) for b, v in enumerate(rights))
        images = ((b, back(w)) for b, w in prods if w)
        rows.append({b: w for b, w in images if w})
    return BilinearMap(prod.field, len(lefts), len(rights), out_dim,
                       tuple(rows))


# ---------------------------------------------------------------------------
# axiom reports


class CheckItem:
    __slots__ = ("name", "passed", "where", "detail")

    def __init__(self, name, passed, where=None, detail=None):
        self.name = name
        self.passed = passed
        self.where = where
        self.detail = detail

    def __repr__(self):
        tag = "PASS" if self.passed else f"FAIL at {self.where}"
        return f"<{self.name}: {tag}>"


class AxiomReport:
    def __init__(self, subject: str, items=None):
        self.subject = subject
        self.items: list[CheckItem] = list(items or [])

    def add(self, name, passed, where=None, detail=None):
        self.items.append(CheckItem(name, passed, where, detail))

    def extend(self, sub: "AxiomReport", prefix=""):
        for it in sub.items:
            self.items.append(CheckItem(prefix + it.name, it.passed, it.where, it.detail))

    @property
    def passed(self):
        return all(it.passed for it in self.items)

    def first_failure(self) -> Optional[CheckItem]:
        for it in self.items:
            if not it.passed:
                return it
        return None

    def summary(self):
        if self.passed:
            return f"{self.subject}: PASS ({len(self.items)} checks)"
        bad = self.first_failure()
        return f"{self.subject}: FAIL [{bad.name} at {bad.where}]"

    def __repr__(self):
        return f"<AxiomReport {self.summary()}>"


# ---------------------------------------------------------------------------
# axiom templates
#
# A template maps a product callback m(pidx, a, b) and a difference callback
# s(a, b) on three variables to the pair of elements that the axiom equates.
# The same templates drive the plain algebra checkers and, on the mixed-sort
# triples of a semidirect product, the action checkers.

DIAS_AXIOMS = (
    ("d1: (x-|y)-|z = x-|(y|-z)",
     lambda m, s, x, y, z: (m(0, m(0, x, y), z), m(0, x, m(1, y, z)))),
    ("d2: (x-|y)-|z = x-|(y-|z)",
     lambda m, s, x, y, z: (m(0, m(0, x, y), z), m(0, x, m(0, y, z)))),
    ("d3: (x|-y)-|z = x|-(y-|z)",
     lambda m, s, x, y, z: (m(0, m(1, x, y), z), m(1, x, m(0, y, z)))),
    ("d4: (x-|y)|-z = x|-(y|-z)",
     lambda m, s, x, y, z: (m(1, m(0, x, y), z), m(1, x, m(1, y, z)))),
    ("d5: (x|-y)|-z = x|-(y|-z)",
     lambda m, s, x, y, z: (m(1, m(1, x, y), z), m(1, x, m(1, y, z)))),
)

LEIBNIZ_AXIOM = ("leibniz: [x,[y,z]] = [[x,y],z] - [[x,z],y]",
                 lambda m, s, x, y, z: (m(0, x, m(0, y, z)),
                                        s(m(0, m(0, x, y), z),
                                          m(0, m(0, x, z), y))))

ASSOC_AXIOM = ("assoc: (xy)z = x(yz)",
               lambda m, s, x, y, z: (m(0, m(0, x, y), z), m(0, x, m(0, y, z))))


# ---------------------------------------------------------------------------
# the slab engine


_J, _K = 1, 2                       # axis bits: depends on j, on k


class _Slab:
    """A template value on one slab ``x = e_i``: the sparse vectors it takes
    at the basis pairs (j, k) of the two range variables, zeros left out.
    ``axes`` has bit ``_J`` or ``_K`` set when the value depends on j or k;
    keys hold None in place of an index it does not depend on.  ``fixed``
    marks values that do not depend on i."""

    __slots__ = ("axes", "cells", "fixed", "index")

    def __init__(self, axes, cells, fixed):
        self.axes = axes
        self.cells = cells
        self.fixed = fixed
        self.index = None


def _inverted(v: _Slab) -> dict:
    """{coordinate: [(key, coefficient)]} over the cells of ``v``, built
    once per value."""
    if v.index is None:
        v.index = {}
        for key, w in v.cells.items():
            for r, c in w.items():
                v.index.setdefault(r, []).append((key, c))
    return v.index


def _same_variables(a: _Slab, b: _Slab):
    if a.axes != b.axes:
        raise ValueError("template terms that are compared or subtracted "
                         "must involve the same variables")


def _check_templates(report, products, instances):
    """Run (name, fn, (xs, ys, zs)) instances over the basis triples of
    xs x ys x zs, with a violation located relative to the start of each
    range.

    Each instance is evaluated once per slab: ``fn`` gets ``x = e_i`` for
    one i of xs and the two range variables ``y = e_j`` (j in ys) and
    ``z = e_k`` (k in zs) at once, as ``_Slab`` values.  A product walks
    only the nonzero cells, from the factor with fewer cells through the
    product's ``rows`` or ``cols``, so a slab costs what its nonzero
    products cost.  Values that do not depend on i are computed once
    per call.  The slabs are compared in order of i, and ``where`` is the
    least (j, k) at which the two sides differ in the first slab that
    differs: the row-major first violated triple.  Later slabs are not
    evaluated.

    Templates must be multilinear: no product repeats a variable, and the
    terms that are compared or subtracted involve the same variables.
    """
    f = products[0].field
    f_mul, f_add, f_is_zero = f.mul, f.add, f.is_zero
    one = f.one()
    # values that do not depend on i, keyed by operation and operand ids;
    # each entry keeps its operands alive, so the ids stay unique
    memo: dict = {}

    def mul(pidx, a, b):
        fixed = a.fixed and b.fixed
        if fixed:
            hit = memo.get((pidx, id(a), id(b)))
            if hit is not None:
                return hit[2]
        if a.axes & b.axes:
            raise ValueError("a template product repeats a variable")
        # drive the factor with fewer cells through the product's rows or
        # columns and look the other one up by coordinate
        p = products[pidx]
        if len(a.cells) <= len(b.cells):
            drive, other, supp = a, b, p.rows
        else:
            drive, other, supp = b, a, p.cols
        idx = _inverted(other)
        cells: dict = {}
        cancelled = False
        for (jd, kd), u in drive.cells.items():
            for r, cu in u.items():
                for c, cell in supp[r].items():
                    hits = idx.get(c)
                    if not hits:
                        continue
                    for (jo, ko), cv in hits:
                        key = (jo if jd is None else jd,
                               ko if kd is None else kd)
                        acc = cells.get(key)
                        if acc is None:
                            acc = cells[key] = {}
                        scale = f_mul(cu, cv)
                        for t, v in cell.items():
                            if scale != one:
                                v = f_mul(scale, v)
                            if t in acc:
                                v = f_add(acc[t], v)
                                if f_is_zero(v):
                                    del acc[t]
                                    cancelled = True
                                    continue
                            acc[t] = v
        if cancelled:
            cells = {key: w for key, w in cells.items() if w}
        out = _Slab(a.axes | b.axes, cells, fixed)
        if fixed:
            memo[(pidx, id(a), id(b))] = (a, b, out)
        return out

    def sub(a, b):
        fixed = a.fixed and b.fixed
        if fixed:
            hit = memo.get(("s", id(a), id(b)))
            if hit is not None:
                return hit[2]
        _same_variables(a, b)
        cells = dict(a.cells)
        for key, w in b.cells.items():
            d = sp_sub(f, cells.get(key, {}), w)
            if d:
                cells[key] = d
            else:
                del cells[key]
        out = _Slab(a.axes, cells, fixed)
        if fixed:
            memo[("s", id(a), id(b))] = (a, b, out)
        return out

    ranges: dict = {}
    for name, fn, (xs, ys, zs) in instances:
        violation = None
        if xs and ys and zs:
            if (ys, zs) not in ranges:
                ranges[(ys, zs)] = (
                    _Slab(_J, {(j, None): {j: one} for j in ys}, True),
                    _Slab(_K, {(None, k): {k: one} for k in zs}, True))
            y, z = ranges[(ys, zs)]
            for i in xs:
                x = _Slab(0, {(None, None): {i: one}}, False)
                lhs, rhs = fn(mul, sub, x, y, z)
                _same_variables(lhs, rhs)
                lc, rc = lhs.cells, rhs.cells
                if lc != rc:
                    # None: the sides agree in not depending on that index
                    j, k = min(key for key in lc.keys() | rc.keys()
                               if lc.get(key) != rc.get(key))
                    violation = (i - xs.start,
                                 0 if j is None else j - ys.start,
                                 0 if k is None else k - zs.start)
                    break
        report.add(name, violation is None, violation)
    return report


# ---------------------------------------------------------------------------
# flavor checkers (single sort)


def _whole(templates, n):
    """Instances of single-sort templates over every basis triple."""
    every = (range(n),) * 3
    return [(name, fn, every) for name, fn in templates]


def check_dialgebra(left: BilinearMap, right: BilinearMap) -> AxiomReport:
    """Check the five diassociative axioms on all basis triples."""
    if left.field != right.field:
        raise FieldMismatch("left/right products over different fields")
    if not (left.left_dim == left.right_dim == left.out_dim
            == right.left_dim == right.right_dim == right.out_dim):
        raise DimensionMismatch("dialgebra products must be square and equal-dim")
    return _check_templates(AxiomReport("dialgebra"), [left, right],
                            _whole(DIAS_AXIOMS, left.left_dim))


def check_leibniz(bracket: BilinearMap) -> AxiomReport:
    return _check_templates(AxiomReport("leibniz"), [bracket],
                            _whole([LEIBNIZ_AXIOM], bracket.left_dim))


def check_associative(product: BilinearMap) -> AxiomReport:
    return _check_templates(AxiomReport("associative"), [product],
                            _whole([ASSOC_AXIOM], product.left_dim))


def check_lie(bracket: BilinearMap) -> AxiomReport:
    """Alternating (including the char-2 diagonal) plus the Leibniz identity."""
    f = bracket.field
    report = AxiomReport("lie")
    n = bracket.left_dim
    bad = next(((i, i) for i in range(n) if bracket.pair(i, i)), None)
    report.add("alternating: [x,x] = 0", bad is None, bad)
    bad = next(((i, j) for i in range(n) for j in range(i + 1, n)
                if sp_add(f, bracket.pair(i, j), bracket.pair(j, i))), None)
    report.add("antisymmetry: [x,y] + [y,x] = 0", bad is None, bad)
    return _check_templates(report, [bracket], _whole([LEIBNIZ_AXIOM], n))


# ---------------------------------------------------------------------------
# algebra classes


class Product(NamedTuple):
    """One product of a flavor, as ``FLAVORS`` lists it."""

    key: str        # attribute of the algebra and key in its document
    name: str       # name in morphism reports: "preserves <name>"
    form: str       # infix form in report items, filled by str.format
    slots: tuple    # action slots: (actor on actee, actee on actor)


# Every per-flavor fact, written once: the products of each flavor in
# order.  An actee-on-actor slot of None means that cross product is the
# negated transpose of the actor-on-actee one (Lie antisymmetry).
FLAVORS = {
    "dias": (Product("left", "-|", "{} -| {}", ("dl_left", "ld_left")),
             Product("right", "|-", "{} |- {}", ("dl_right", "ld_right"))),
    "lb": (Product("bracket", "bracket", "[{},{}]", ("gq", "qg")),),
    "as": (Product("product", "product", "{}*{}", ("ar", "ra")),),
    "lie": (Product("bracket", "bracket", "[{},{}]", ("pm", None)),),
}

CHECKERS = {"dias": check_dialgebra, "lb": check_leibniz,
            "as": check_associative, "lie": check_lie}


class Certified:
    """A structure whose passing ``check`` report is its certificate.

    A subclass sets ``invalid``, its error type, and ``failure``, the
    message format, and defines ``check``.  ``certify`` keeps a passing
    report as ``certificate``; on a failing one it raises ``invalid`` with
    ``failure`` filled from ``self``, ``report`` and ``bad``, the first
    failing item.
    """

    invalid: type
    failure: str
    certificate: Optional[AxiomReport] = None

    def certify(self) -> AxiomReport:
        report = self.check()
        if not report.passed:
            bad = report.first_failure()
            raise self.invalid(
                self.failure.format(self=self, report=report, bad=bad),
                report)
        self.certificate = report
        return report


class Algebra(Certified):
    """Structure constants plus a validity certificate.

    A flavor class only sets ``flavor``.  Its constructor takes the
    flavor's products in ``FLAVORS`` order, then optional labels, e.g.
    ``Dialgebra(field, left, right, labels)``, and stores each product
    under its key, so ``d.left`` and ``g.bracket`` are plain attributes.
    """

    flavor = "?"
    invalid = InvalidAlgebra
    failure = "{report.subject}: FAIL [{bad.name} at {bad.where}]"

    def __init__(self, field: Field, *args, labels=None, check=True):
        keys = [p.key for p in FLAVORS[self.flavor]]
        if len(args) == len(keys) + 1 and labels is None:
            *args, labels = args
        if len(args) != len(keys):
            raise TypeError(f"{type(self).__name__} takes the products "
                            f"{', '.join(keys)} and optional labels")
        dim = args[0].left_dim
        guard_dim(field, dim)
        self.field = field
        self.dim = dim
        if labels is None:
            labels = [f"e{i}" for i in range(dim)]
        if len(labels) != dim:
            raise DimensionMismatch("label count != dim")
        self.labels = list(labels)
        for key, prod in zip(keys, args):
            setattr(self, key, prod)
        if check:
            self.certify()

    def products(self) -> list[BilinearMap]:
        return [getattr(self, p.key) for p in FLAVORS[self.flavor]]

    def check(self) -> AxiomReport:
        return CHECKERS[self.flavor](*self.products())

    def same_structure(self, other: "Algebra") -> bool:
        """Tensor-level equality: field, flavor, dim and structure constants."""
        return (self.flavor == other.flavor and self.field == other.field
                and self.dim == other.dim
                and all(p == q for p, q in zip(self.products(), other.products())))

    def __repr__(self):
        return f"<{type(self).__name__} dim {self.dim} over {self.field}>"


class Dialgebra(Algebra):
    flavor = "dias"


class LeibnizAlgebra(Algebra):
    flavor = "lb"


class AssociativeAlgebra(Algebra):
    flavor = "as"


class LieAlgebra(Algebra):
    flavor = "lie"


FLAVOR_CLASSES = {cls.flavor: cls for cls in (
    Dialgebra, LeibnizAlgebra, AssociativeAlgebra, LieAlgebra)}


def make_algebra(flavor, field, products, labels=None, check=True) -> Algebra:
    return FLAVOR_CLASSES[flavor](field, *products, labels, check=check)


def product_arity(flavor) -> int:
    return len(FLAVORS[flavor])


def abelian_algebra(flavor, field, dim, labels=None) -> Algebra:
    z = BilinearMap.zero(field, dim)
    return make_algebra(flavor, field, [z] * product_arity(flavor), labels,
                        check=False)


# ---------------------------------------------------------------------------
# morphisms


class AlgebraMorphism:
    """Linear map between same-flavor algebras; matrix is target_dim x source_dim."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Algebra, target: Algebra, matrix: Matrix):
        if source.flavor != target.flavor:
            raise InvalidAlgebra(f"morphism between flavors {source.flavor}/{target.flavor}")
        if source.field != target.field:
            raise FieldMismatch("morphism between different fields")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise DimensionMismatch(
                f"morphism matrix must be {target.dim}x{source.dim}, "
                f"got {matrix.rows}x{matrix.cols}")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def _prechecked(cls, source, target, matrix):
        """A morphism whose flavors, field and shape the caller has already
        checked, once for a whole hom-set."""
        m = cls.__new__(cls)
        m.source, m.target, m.matrix = source, target, matrix
        return m

    @classmethod
    def identity(cls, alg):
        from .linalg import Matrix
        return cls(alg, alg, Matrix.identity(alg.field, alg.dim))

    @classmethod
    def zero(cls, source, target):
        from .linalg import Matrix
        return cls(source, target, Matrix.zero(source.field, target.dim, source.dim))

    def apply(self, v):
        return self.matrix.mul_vec(v)

    def compose(self, other: "AlgebraMorphism") -> "AlgebraMorphism":
        """self . other (apply other first)."""
        if other.target is not self.source and not other.target.same_structure(self.source):
            raise DimensionMismatch("composition through mismatched middle algebra")
        return AlgebraMorphism(other.source, self.target, self.matrix.mul(other.matrix))

    def check(self) -> AxiomReport:
        report = AxiomReport("morphism")
        cols = [self.matrix.col(j) for j in range(self.source.dim)]
        for p, sp, tp in zip(FLAVORS[self.source.flavor],
                             self.source.products(), self.target.products()):
            bad = first_unintertwined(sp, tp, cols, cols, self.matrix)
            report.add(f"preserves {p.name}", bad is None, bad)
        return report

    def is_morphism(self) -> bool:
        return self.check().passed

    def is_bijective(self):
        return self.source.dim == self.target.dim and self.matrix.rank() == self.source.dim

    def __repr__(self):
        return (f"<AlgebraMorphism {self.source.flavor} "
                f"{self.source.dim}->{self.target.dim}>")


def first_unintertwined(src: BilinearMap, tgt: BilinearMap, left, right,
                        out: Optional[Matrix] = None):
    """First row-major basis pair (i, j) with
    ``out(src(e_i, e_j)) != tgt(left[i], right[j])``, or None.

    ``left`` and ``right`` are dense vectors, one per basis element of the
    corresponding argument of ``src``; ``out`` defaults to the identity.
    Morphisms, equivariance and Peiffer identities are all this equation.
    Both sides are sparse: ``left`` and ``right`` are made sparse once, and
    ``out`` is applied only to nonzero basis products.
    """
    f = src.field
    lefts = [sp_from_dense(f, u) for u in left]
    rights = [sp_from_dense(f, v) for v in right]
    for i, u in enumerate(lefts):
        for j, v in enumerate(rights):
            lhs = src.pair(i, j)
            if lhs and out is not None:
                lhs = sp_from_dense(f, out.mul_vec(lhs))
            if lhs != tgt.apply_sparse(u, v):
                return (i, j)
    return None


def kernel_of(f: AlgebraMorphism) -> Subspace:
    from . import linalg
    return linalg.kernel(f.matrix)


def image_of(f: AlgebraMorphism) -> Subspace:
    from . import linalg
    return linalg.image(f.matrix)


# ---------------------------------------------------------------------------
# ideals, quotients


def _products(alg: Algebra, lefts, rights):
    """The nonzero sparse products u*v, u in ``lefts`` and v in ``rights``
    (sparse vectors), under every product of the flavor."""
    for prod in alg.products():
        for u in lefts:
            for v in rights:
                w = prod.apply_sparse(u, v)
                if w:
                    yield w


def basis_products(alg: Algebra, vectors):
    """The nonzero products of each sparse vector of the sequence
    ``vectors`` with every basis vector, on both sides, under every product
    of the flavor, read off the products' nonzero cells by ``with_basis``."""
    for prod in alg.products():
        for side in (prod, prod.transpose_args()):
            for u in vectors:
                yield from side.with_basis(u).values()


def multiply_subspaces(alg: Algebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all basis products a*b under every product of the flavor."""
    from .linalg import Subspace
    return Subspace.span(alg.field, _products(alg, a.rows, b.rows), alg.dim)


def ideal_closure(alg: Algebra, seed: Subspace) -> Subspace:
    """Smallest two-sided ideal containing the seed.

    A worklist: the frontier starts as the seed's rows, each frontier
    vector is multiplied by the basis once on both sides, and the escapes
    extend the ideal by one growth step, whose new rows are the next
    frontier.  The pass ends when nothing escapes; every direction of the
    result has then been multiplied once, which is what ``is_ideal`` checks.
    """
    if seed.ambient_dim != alg.dim:
        raise DimensionMismatch("seed not in the algebra's ambient space")
    current, frontier = seed, seed.rows
    while frontier:
        grown = current.extended(w for w in basis_products(alg, frontier)
                                 if not current.contains(w))
        # the rows at new pivots span the new directions beside ``current``
        old = set(current.pivots)
        frontier = [r for p, r in zip(grown.pivots, grown.rows) if p not in old]
        current = grown
    return current


def is_ideal(alg: Algebra, s: Subspace) -> bool:
    """Whether ``s`` absorbs every product with a basis vector, on either
    side: ``ideal_closure``'s pass over the whole basis of ``s``, stopped
    at the first escape."""
    return all(map(s.contains, basis_products(alg, s.rows)))


class Quotient(tuple):
    """A quotient ``(algebra, projection)`` with the ``QuotientMap`` of the
    ideal divided out, ``qmap``, whose section lifts quotient coordinates."""

    def __new__(cls, algebra, projection, qmap):
        self = super().__new__(cls, (algebra, projection))
        self.qmap = qmap
        return self

    @property
    def ideal(self) -> Subspace:
        return self.qmap.sub


def quotient_algebra(alg: Algebra, seed: Subspace) -> Quotient:
    """Quotient by ``ideal_closure(alg, seed)``, whose one pass on a seed
    that is already an ideal is the ``is_ideal`` check.

    Quotient coordinates are the classes of the non-pivot standard basis
    vectors, so quotienting by the zero ideal reproduces the original
    structure constants on the nose.
    """
    from .linalg import QuotientMap
    ideal = ideal_closure(alg, seed)
    f = alg.field
    qm = QuotientMap(alg.dim, ideal)
    units = sp_cols(qm.section)
    prods = [induced_bilinear(p, units, units, qm.dim,
                              lambda w: sp_from_dense(f, qm.project.mul_vec(w)))
             for p in alg.products()]
    quot = make_algebra(alg.flavor, f, prods,
                        [alg.labels[c] for c in qm.section_cols])
    return Quotient(quot, AlgebraMorphism(alg, quot, qm.project), qm)


def induced_subalgebra(alg: Algebra, sub: Subspace):
    """Structure induced on a product-closed subspace; returns (algebra, inclusion)."""
    from .linalg import Matrix
    f = alg.field

    def back(w):
        coords = sub.coords(w)
        if coords is None:
            raise NotClosed("subspace not closed: a product of basis "
                            "vectors escapes")
        return sp_from_dense(f, coords)

    prods = [induced_bilinear(p, sub.rows, sub.rows, sub.dim, back)
             for p in alg.products()]
    subalg = make_algebra(alg.flavor, f, prods)
    incl = AlgebraMorphism(subalg, alg, Matrix.from_cols(f, sub.basis, alg.dim))
    return subalg, incl


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Componentwise products on the sum of the underlying spaces.

    Validity is inherited from the summands, so the sum is not re-checked.
    """
    if a.flavor != b.flavor:
        raise InvalidAlgebra(f"direct sum of flavors {a.flavor}/{b.flavor}")
    if a.field != b.field:
        raise FieldMismatch("direct sum over different fields")
    n1 = a.dim
    n = a.dim + b.dim
    prods = [BilinearMap.from_triples(
        a.field, n, n, n, chain(pa.triples(), pb.shifted(n1, n1, n1)))
        for pa, pb in zip(a.products(), b.products())]
    labels = ([f"fst.{x}" for x in a.labels] + [f"snd.{x}" for x in b.labels])
    return make_algebra(a.flavor, a.field, prods, labels, check=False)


def derived_tower_nilpotent(alg: Algebra, bound: int) -> bool:
    """True iff every (bound+1)-fold product vanishes (any bracketing)."""
    from .linalg import Subspace
    f = alg.field
    # layers[k] spans all k-fold products: the products of layers i and k - i
    layers = {1: Subspace.full(f, alg.dim).rows}
    for k in range(2, bound + 2):
        layer = Subspace.span(f, (w for i in range(1, k) for w in
                                  _products(alg, layers[i], layers[k - i])),
                              alg.dim)
        if layer.dim == 0:
            return True
        layers[k] = layer.rows
    return alg.dim == 0


# ---------------------------------------------------------------------------
# flavor-changing constructions on plain algebras


def leibnization(d: Dialgebra) -> LeibnizAlgebra:
    """Bracket [x,y] = x -| y - y |- x on the same space."""
    f = d.field
    swapped = d.right.transpose_args()
    return LeibnizAlgebra(f, d.left.subtract(swapped), list(d.labels))


def dialgebra_of_associative(a: AssociativeAlgebra) -> Dialgebra:
    """View an associative algebra as a dialgebra with both products equal."""
    return Dialgebra(a.field, a.product, a.product, list(a.labels))


def commutator_lie(a: AssociativeAlgebra) -> LieAlgebra:
    """Commutator bracket [x,y] = xy - yx."""
    br = a.product.subtract(a.product.transpose_args())
    return LieAlgebra(a.field, br, list(a.labels))


def leibniz_of_lie(p: LieAlgebra) -> LeibnizAlgebra:
    """A Lie algebra is in particular a Leibniz algebra."""
    return LeibnizAlgebra(p.field, p.bracket, list(p.labels))


def merge_seeds(d: Dialgebra) -> list:
    """x -| y - x |- y on every basis pair: the ideal they generate merges
    the two products."""
    f = d.field
    return [sp_sub(f, d.left.pair(i, j), d.right.pair(i, j))
            for i in range(d.dim) for j in range(d.dim)]


def square_seeds(g: LeibnizAlgebra) -> list:
    """Polarized squares [x,x] and [x,y]+[y,x] on basis pairs, so that the
    ideal they generate kills squares in characteristic 2 as well."""
    f = g.field
    out = []
    for i in range(g.dim):
        out.append(g.bracket.pair(i, i))
        for j in range(i + 1, g.dim):
            out.append(sp_add(f, g.bracket.pair(i, j), g.bracket.pair(j, i)))
    return out


def associative_quotient(d: Dialgebra) -> Quotient:
    """Universal associative quotient: divide by the ideal forcing -| = |-.

    Returns (associative algebra, projection as a dialgebra morphism onto the
    quotient viewed as a dialgebra), with that ideal.
    """
    from .linalg import Subspace
    f = d.field
    quot = quotient_algebra(d, Subspace.span(f, merge_seeds(d), d.dim))
    quot_dias, proj = quot
    if quot_dias.left != quot_dias.right:
        raise InvalidAlgebra("associative quotient failed to merge the products")
    asq = AssociativeAlgebra(f, quot_dias.left, list(quot_dias.labels))
    return Quotient(asq, proj, quot.qmap)


def lie_quotient(g: LeibnizAlgebra) -> Quotient:
    """Universal Lie quotient: divide by the ideal generated by squares.

    Returns (lie algebra, projection as a Leibniz morphism onto the
    quotient), with that ideal.
    """
    from .linalg import Subspace
    f = g.field
    quot = quotient_algebra(g, Subspace.span(f, square_seeds(g), g.dim))
    quot_lb, proj = quot
    lie = LieAlgebra(f, quot_lb.bracket, list(quot_lb.labels))
    return Quotient(lie, proj, quot.qmap)
