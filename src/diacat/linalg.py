"""Exact linear algebra over Q and prime fields.

Vectors are plain lists/tuples of scalars; every container knows its field.
Subspaces are stored through their reduced row echelon basis, so structural
equality of ``Subspace`` values is equality of subspaces.

Every echelon form comes from ``_rref``.  ``Subspace._residual`` answers
every question about a vector modulo a subspace from its pivot rows, and
``_solutions`` reads a null space's canonical basis, and a solution reduced
by it, off one reduction with the columns reversed.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field


def vec_zero(field, n):
    z = field.zero()
    return [z] * n


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]


def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]


def vec_is_zero(field, u):
    return all(field.is_zero(a) for a in u)


def vec_eq(field, u, v):
    return len(u) == len(v) and all(field.is_zero(field.sub(a, b)) for a, b in zip(u, v))


def unit_vector(field, n, i):
    v = vec_zero(field, n)
    v[i] = field.one()
    return v


class Matrix:
    """Immutable dense matrix; entries[i][j] is row i, column j."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence], rows=None, cols=None):
        self.field = field
        ents = tuple(tuple(row) for row in entries)
        if rows is not None and rows != len(ents):
            raise DimensionMismatch("matrix row count != number of rows")
        rows = len(ents)
        if cols is None:
            cols = len(ents[0]) if ents else 0
        for row in ents:
            if len(row) != cols:
                raise DimensionMismatch("ragged matrix rows")
        self.rows = rows
        self.cols = cols
        self.entries = ents

    @classmethod
    def zero(cls, field, rows, cols):
        z = field.zero()
        return cls(field, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(field, rows, len(rows), cols)

    @classmethod
    def from_cols(cls, field, cols, nrows=None):
        """The matrix with columns ``cols``, each of length ``nrows``: one
        transpose, whose rows need no second check."""
        cols = list(cols)
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        if set(map(len, cols)) - {nrows}:
            raise DimensionMismatch("matrix column length != row count")
        m = cls.__new__(cls)
        m.field, m.rows, m.cols = field, nrows, len(cols)
        # zip of no columns would give no rows, not ``nrows`` empty ones
        m.entries = tuple(zip(*cols)) if cols else ((),) * nrows
        return m

    def row(self, i):
        return list(self.entries[i])

    def col(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def is_zero(self):
        f = self.field
        return all(f.is_zero(a) for row in self.entries for a in row)

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def add(self, other):
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix add shape mismatch")
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)],
                      self.rows, self.cols)

    def sub(self, other):
        self._check_field(other)
        f = self.field
        return Matrix(f, [[f.sub(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)],
                      self.rows, self.cols)

    def neg(self):
        f = self.field
        return Matrix(f, [[f.neg(a) for a in r] for r in self.entries], self.rows, self.cols)

    def scale(self, c):
        f = self.field
        return Matrix(f, [[f.mul(c, a) for a in r] for r in self.entries], self.rows, self.cols)

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        z = f.zero()
        out = []
        ot = other.entries
        for i in range(self.rows):
            ri = self.entries[i]
            row = [z] * other.cols
            for k in range(self.cols):
                a = ri[k]
                if f.is_zero(a):
                    continue
                rk = ot[k]
                for j in range(other.cols):
                    b = rk[j]
                    if not f.is_zero(b):
                        row[j] = f.add(row[j], f.mul(a, b))
            out.append(row)
        return Matrix(f, out, self.rows, other.cols)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        f = self.field
        z = f.zero()
        out = [z] * self.rows
        for j, c in enumerate(v):
            if f.is_zero(c):
                continue
            for i in range(self.rows):
                a = self.entries[i][j]
                if not f.is_zero(a):
                    out[i] = f.add(out[i], f.mul(a, c))
        return out

    def vstack(self, other):
        self._check_field(other)
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return Matrix(self.field, list(self.entries) + list(other.entries),
                      self.rows + other.rows, self.cols)

    def hstack(self, other):
        self._check_field(other)
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix(self.field, [list(r1) + list(r2) for r1, r2
                                   in zip(self.entries, other.entries)],
                      self.rows, self.cols + other.cols)

    def rank(self):
        return rref(self)[1]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            return False
        f = self.field
        return all(f.is_zero(f.sub(a, b))
                   for r1, r2 in zip(self.entries, other.entries)
                   for a, b in zip(r1, r2))

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(a) for a in row) for row in self.entries)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: [{body}])"


def _rref(field, rows, ncols):
    """Reduce ``rows`` in place to reduced row echelon form, looking for
    pivots in the first ``ncols`` columns only; returns the pivot columns.

    The nonzero rows come first, one per pivot, and row operations act on
    whole rows, so columns past ``ncols`` record them.
    """
    f = field
    nrows = len(rows)
    pivots = []
    for col in range(ncols):
        pr = len(pivots)
        if pr >= nrows:
            break
        sel = None
        for r in range(pr, nrows):
            if not f.is_zero(rows[r][col]):
                sel = r
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = f.inv(rows[pr][col])
        prow = rows[pr] = [f.mul(inv, a) for a in rows[pr]]
        for r in range(nrows):
            if r == pr:
                continue
            c = rows[r][col]
            if f.is_zero(c):
                continue
            rows[r] = [f.sub(a, f.mul(c, b)) for a, b in zip(rows[r], prow)]
        pivots.append(col)
    return pivots


def rref(m: Matrix):
    """Reduced row echelon form; returns (matrix, rank)."""
    rows = [list(r) for r in m.entries]
    rank = len(_rref(m.field, rows, m.cols))
    return Matrix(m.field, rows, m.rows, m.cols), rank


class Subspace:
    """Subspace of field^n held by its canonical (RREF) basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_free", "_images")

    def __init__(self, field, ambient_dim, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in basis)
        self.pivots = tuple(pivots)
        free = self._free = tuple(sorted(set(range(ambient_dim))
                                         - set(self.pivots)))
        # the residual of e_k over ``_free``, sparse: 1 at its own place for
        # a non-pivot k, minus the pivot row's non-pivot part for a pivot k
        self._images = {c: ((t, field.one()),) for t, c in enumerate(free)}
        for p, row in zip(self.pivots, self.basis):
            self._images[p] = tuple((t, field.neg(row[c]))
                                    for t, c in enumerate(free)
                                    if not field.is_zero(row[c]))

    @classmethod
    def span(cls, field, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length != ambient dimension")
        pivots = _rref(field, vectors, ambient_dim)
        return cls(field, ambient_dim, vectors[:len(pivots)], pivots)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field, ambient_dim):
        rows = [unit_vector(field, ambient_dim, i) for i in range(ambient_dim)]
        return cls(field, ambient_dim, rows, list(range(ambient_dim)))

    @property
    def dim(self):
        return len(self.basis)

    def _residual(self, v) -> list:
        """The residual of v, dense or a sparse dict, at the non-pivot
        columns ``_free`` in order: v[c] - sum_p v[p] row_p[c] at column c.
        It is zero at the pivots: the coefficient of row p in v is v[p]."""
        f = self.field
        images = self._images
        out = [f.zero()] * len(self._free)
        for k, a in (v.items() if isinstance(v, dict) else enumerate(v)):
            if f.is_zero(a):
                continue
            for t, b in images[k]:
                out[t] = f.add(out[t], f.mul(a, b))
        return out

    def reduce(self, v):
        """Residual of v, dense or a sparse dict, as a dense vector."""
        out = vec_zero(self.field, self.ambient_dim)
        for c, a in zip(self._free, self._residual(v)):
            out[c] = a
        return out

    def contains(self, v) -> bool:
        return vec_is_zero(self.field, self._residual(v))

    def coords(self, v) -> Optional[list]:
        """Coefficients of v in the canonical basis, or None if outside."""
        return [v[p] for p in self.pivots] if self.contains(v) else None

    def add(self, other: "Subspace") -> "Subspace":
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspace sum in different ambients")
        return Subspace.span(self.field, list(self.basis) + list(other.basis),
                             self.ambient_dim)

    __add__ = add

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(r) for r in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots
                and all(vec_eq(self.field, a, b) for a, b in zip(self.basis, other.basis)))

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.pivots, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim})"


def span(field, vectors, ambient_dim) -> Subspace:
    return Subspace.span(field, vectors, ambient_dim)


def _solutions(field, rows, width):
    """Solve ``rows = [M | b]``, M of ``width`` columns, by reducing them
    in place with M's columns reversed: None if inconsistent, else
    ``(part, free, basis)``.  ``basis`` is the canonical basis of M's null
    space, with pivots ``free``, and ``part`` a solution zero there.

    Reversed, a row has entries only at free columns before its pivot, so
    c_j = 1 at one free j, 0 at the others, is a null vector in canonical
    form: the basis needs no second reduction.
    """
    last = width - 1
    for i, r in enumerate(rows):
        rows[i] = r[:width][::-1] + r[width:]
    pivots = [last - p for p in _rref(field, rows, width)]
    # past the rank the M part of a row is zero, and so must its b be
    if not vec_is_zero(field, [row[width] for row in rows[len(pivots):]]):
        return None
    part = vec_zero(field, width)
    for row, p in zip(rows, pivots):
        part[p] = row[width]
    free = sorted(set(range(width)) - set(pivots))
    basis = []
    for j in free:
        b = vec_zero(field, width)
        b[j] = field.one()
        for row, p in zip(rows, pivots):
            b[p] = field.neg(row[last - j])
        basis.append(b)
    return part, free, basis


def kernel(m: Matrix) -> Subspace:
    """Right null space of m."""
    rows = [list(r) + [m.field.zero()] for r in m.entries]
    _, free, basis = _solutions(m.field, rows, m.cols)
    return Subspace(m.field, m.cols, basis, free)


def image(m: Matrix) -> Subspace:
    return Subspace.span(m.field, [m.col(j) for j in range(m.cols)], m.rows)


def solve(m: Matrix, b) -> Optional[list]:
    """One solution x of m x = b, or None."""
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length != matrix rows")
    f = m.field
    rows = [list(row) + [b[i]] for i, row in enumerate(m.entries)]
    pivots = _rref(f, rows, m.cols + 1)
    # inconsistent iff a pivot lands in the last column
    if pivots and pivots[-1] == m.cols:
        return None
    x = vec_zero(f, m.cols)
    for row, p in zip(rows, pivots):
        x[p] = row[m.cols]
    return x


def inverse(m: Matrix) -> Optional[Matrix]:
    if m.rows != m.cols:
        return None
    rows = [list(r) + list(e) for r, e in
            zip(m.entries, Matrix.identity(m.field, m.rows).entries)]
    if len(_rref(m.field, rows, m.cols)) < m.rows:
        return None
    return Matrix(m.field, [row[m.cols:] for row in rows])


class QuotientMap:
    """Coordinates for field^n / S.

    ``section_cols`` are the non-pivot standard basis indices; their classes
    form the quotient basis.  ``project`` is the (n-dim(S)) x n matrix of the
    canonical projection, whose column j is S's residual of e_j, built on
    its first read;
    ``section`` embeds quotient coordinates back as the corresponding
    standard basis vectors.  project . section = identity and the kernel of
    project is exactly S, kept as ``sub``.
    """

    __slots__ = ("section_cols", "section", "sub", "_project")

    def __init__(self, ambient_dim: int, sub: Subspace):
        if sub.ambient_dim != ambient_dim:
            raise DimensionMismatch("subspace not in the requested ambient")
        f = sub.field
        self.section_cols = list(sub._free)
        self.sub, self._project = sub, None
        sec_cols = [unit_vector(f, ambient_dim, c) for c in self.section_cols]
        self.section = Matrix.from_cols(f, sec_cols, ambient_dim)

    @property
    def project(self) -> Matrix:
        if self._project is None:
            sub, f = self.sub, self.sub.field
            self._project = Matrix.from_cols(
                f, [sub._residual({j: f.one()})
                    for j in range(sub.ambient_dim)], self.dim)
        return self._project

    @property
    def dim(self):
        return len(self.section_cols)
