"""Exact linear algebra over Q and prime fields.

Vectors are dense lists/tuples of scalars or sparse dicts from index to
nonzero scalar; every container knows its field.  ``Matrix`` is dense;
``from_cols`` checks its columns' lengths, and ``_prechecked_cols`` is the
same constructor for callers that fixed them once, as a hom search does
for a whole hom-set.  A ``Subspace`` holds its reduced row echelon basis
as ``pivots`` and one sparse row per pivot, so structural equality is
equality of subspaces; ``basis``, the rows dense, is built on first read.

Every echelon form comes from one routine, ``_grow``: it adds vectors one
at a time to sparse RREF rows keyed by pivot.  A subspace grows by it
(``extended``), and ``rref``, ``solve`` and ``inverse`` reduce their
matrices by it from no rows.  ``_residual`` answers every question about a
vector modulo a subspace from its pivot rows, and ``_solutions`` reads a
null space's canonical basis, and a solution reduced by it, off one
reduction with the columns reversed.

The sparse-vector helpers ``sp_add_into``, ``sp_from_dense`` and
``sp_to_dense`` are defined in ``fields`` and imported here, so
``linalg.sp_*`` names them as before; the axiom checker reaches them
without this module.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, FieldMismatch, NotWellDefined
from .fields import Field, sp_add_into, sp_from_dense, sp_to_dense


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
    return all(map(field.is_zero, u))


def vec_eq(field, u, v):
    return len(u) == len(v) and all(field.is_zero(field.sub(a, b)) for a, b in zip(u, v))


def unit_vector(field, n, i):
    v = vec_zero(field, n)
    v[i] = field.one()
    return v


def _entries(v, n):
    """The (index, scalar) pairs of v, a sparse dict or dense of length n."""
    if isinstance(v, dict):
        return v.items()
    if len(v) != n:
        raise DimensionMismatch(f"dense vector of length {len(v)} where "
                                f"{n} is expected")
    return enumerate(v)


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
        """The matrix with columns ``cols``, each of length ``nrows``,
        checked, then built by ``_prechecked_cols``."""
        cols = list(cols)
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        if set(map(len, cols)) - {nrows}:
            raise DimensionMismatch("matrix column length != row count")
        return cls._prechecked_cols(field, cols, nrows)

    @classmethod
    def _prechecked_cols(cls, field, cols, nrows):
        """The matrix with the sequence of columns ``cols``, whose lengths
        the caller has fixed at ``nrows`` once, for a whole hom-set: one
        transpose, whose rows need no check."""
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

    def neg(self):
        f = self.field
        return Matrix(f, [[f.neg(a) for a in r] for r in self.entries], self.rows, self.cols)

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
        """m v, for v dense or a sparse dict, as a dense vector."""
        f = self.field
        z = f.zero()
        out = [z] * self.rows
        for j, c in _entries(v, self.cols):
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


def _residual(field, rows, v, n) -> dict:
    """The residual of v, dense of length n or a sparse dict, modulo the
    RREF rows ``rows``, a dict from pivot to sparse row, as a sparse dict:
    v less v[p] times the row at p, for every pivot p.  The coefficient of
    that row in v is v[p], since the other rows are zero at p."""
    f = field
    out = {k: a for k, a in _entries(v, n) if not f.is_zero(a)}
    for p in [k for k in out if k in rows]:
        sp_add_into(f, out, rows[p], f.neg(out[p]))
    return out


def _grow(field, rows, vectors, n) -> dict:
    """Add ``vectors``, each dense of length n or a sparse dict, one at a
    time to the RREF rows ``rows``, a dict from pivot to sparse row, and
    return it.  A nonzero residual is scaled to 1 at its least column p, p
    is cleared from every row that has it, and the residual becomes the row
    at p.  Rows are replaced, never changed, since subspaces share them."""
    f = field
    for v in vectors:
        res = _residual(f, rows, v, n)
        if not res:
            continue
        p = min(res)
        inv = f.inv(res[p])
        res = {k: f.mul(inv, a) for k, a in res.items()}
        for q in [q for q, r in rows.items() if p in r]:
            r = rows[q] = dict(rows[q])
            sp_add_into(f, r, res, f.neg(r[p]))
        rows[p] = res
    return rows


def rref(m: Matrix):
    """Reduced row echelon form; returns (matrix, rank)."""
    f, n = m.field, m.cols
    rows = _grow(f, {}, m.entries, n)
    out = [sp_to_dense(f, rows[p], n) for p in sorted(rows)]
    out += [vec_zero(f, n)] * (m.rows - len(rows))
    return Matrix(f, out, m.rows, n), len(rows)


class Subspace:
    """Subspace of field^n held by its canonical (RREF) basis, sparse:
    ``rows[t]`` is the row at pivot column ``pivots[t]``, with its 1 there
    and its other nonzero entries, all at non-pivot columns."""

    __slots__ = ("field", "ambient_dim", "pivots", "rows", "_row", "_basis")

    def __init__(self, field, ambient_dim, pivots, rows):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = tuple(pivots)
        self.rows = tuple(rows)
        self._row = dict(zip(self.pivots, self.rows))
        self._basis = None

    @classmethod
    def span(cls, field, vectors: Iterable, ambient_dim: int) -> "Subspace":
        """The span of ``vectors``, each dense or a sparse dict."""
        return cls.zero(field, ambient_dim).extended(vectors)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field, ambient_dim):
        one = field.one()
        return cls(field, ambient_dim, range(ambient_dim),
                   ({i: one} for i in range(ambient_dim)))

    @property
    def basis(self) -> tuple:
        """The rows as dense tuples, built on first read."""
        if self._basis is None:
            f, n = self.field, self.ambient_dim
            self._basis = tuple(tuple(sp_to_dense(f, r, n)) for r in self.rows)
        return self._basis

    @property
    def dim(self):
        return len(self.pivots)

    def _residual(self, v) -> dict:
        """The residual of v, dense or a sparse dict, as a sparse dict."""
        return _residual(self.field, self._row, v, self.ambient_dim)

    def reduce(self, v):
        """Residual of v, dense or a sparse dict, as a dense vector."""
        return sp_to_dense(self.field, self._residual(v), self.ambient_dim)

    def contains(self, v) -> bool:
        return not self._residual(v)

    def coords(self, v) -> Optional[list]:
        """Coefficients of v, dense or a sparse dict, in the canonical
        basis, or None if outside."""
        if self._residual(v):
            return None
        at, z = dict(_entries(v, self.ambient_dim)), self.field.zero()
        return [at.get(p, z) for p in self.pivots]

    def extended(self, vectors: Iterable) -> "Subspace":
        """The span of this subspace and ``vectors``, each dense or a sparse
        dict, grown from this one's rows by ``_grow``."""
        rows = _grow(self.field, dict(self._row), vectors, self.ambient_dim)
        pivots = sorted(rows)
        return Subspace(self.field, self.ambient_dim, pivots,
                        map(rows.get, pivots))

    def add(self, other: "Subspace") -> "Subspace":
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspace sum in different ambients")
        return self.extended(other.rows)

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(map(other.contains, self.rows))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.pivots))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim})"


def _solutions(field, rows, width):
    """Solve ``rows = [M | b]``, sparse dicts (zero entries allowed) with
    M's columns at 0..width-1 and b at ``width``, b zero if absent: None if
    inconsistent, else ``(part, free, basis)``.  ``basis`` is the canonical
    basis of M's null space, with pivots ``free``, and ``part`` a solution
    zero there.

    The rows are reduced with M's columns reversed, column j keyed as
    ``width - 1 - j``, so a pivot at ``width`` means no solution.
    Reversed, a row has entries only at free columns before its pivot, so
    c_j = 1 at one free j, 0 at the others, is a null vector in canonical
    form: the basis needs no second reduction.
    """
    f, last, z = field, width - 1, field.zero()
    keyed = ({last - j if j < width else width: a for j, a in r.items()}
             for r in rows)
    ech = _grow(f, {}, keyed, width + 1)
    if width in ech:
        return None
    at = {last - k: r for k, r in ech.items()}
    part = [at[j].get(width, z) if j in at else z for j in range(width)]
    free = [j for j in range(width) if j not in at]
    basis = []
    for j in free:
        b = unit_vector(f, width, j)
        for p, r in at.items():
            if last - j in r:
                b[p] = f.neg(r[last - j])
        basis.append(b)
    return part, free, basis


def kernel(m: Matrix) -> Subspace:
    """Right null space of m."""
    f = m.field
    _, free, basis = _solutions(f, [sp_from_dense(f, r) for r in m.entries],
                                m.cols)
    return Subspace(f, m.cols, free, [sp_from_dense(f, b) for b in basis])


def image(m: Matrix) -> Subspace:
    return Subspace.span(m.field, [m.col(j) for j in range(m.cols)], m.rows)


def solve(m: Matrix, b) -> Optional[list]:
    """One solution x of m x = b, or None."""
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length != matrix rows")
    f, n, z = m.field, m.cols, m.field.zero()
    rows = _grow(f, {}, ([*row, c] for row, c in zip(m.entries, b)), n + 1)
    # inconsistent iff a pivot lands in the last column
    if n in rows:
        return None
    return [rows[j].get(n, z) if j in rows else z for j in range(n)]


def inverse(m: Matrix) -> Optional[Matrix]:
    """The inverse of m, read off the RREF of ``[m | I]``, or None."""
    n = m.rows
    if n != m.cols:
        return None
    f = m.field
    rows = _grow(f, {}, ([*r, *unit_vector(f, n, i)]
                         for i, r in enumerate(m.entries)), 2 * n)
    # singular iff a pivot lies past m's columns
    if any(p >= n for p in rows):
        return None
    return Matrix(f, [[rows[i].get(n + j, f.zero()) for j in range(n)]
                      for i in range(n)], n, n)


def _assert_killed(f, mat: Matrix, sub: Subspace, what):
    """Raise NotWellDefined unless ``mat`` sends every row of ``sub`` to 0."""
    for r in sub.rows:
        if not vec_is_zero(f, mat.mul_vec(r)):
            raise NotWellDefined(f"{what} does not kill the defining ideal")


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
        f, pivots = sub.field, set(sub.pivots)
        self.section_cols = [c for c in range(ambient_dim) if c not in pivots]
        self.sub, self._project = sub, None
        sec_cols = [unit_vector(f, ambient_dim, c) for c in self.section_cols]
        self.section = Matrix.from_cols(f, sec_cols, ambient_dim)

    @property
    def project(self) -> Matrix:
        if self._project is None:
            sub, f = self.sub, self.sub.field
            z, cols = f.zero(), self.section_cols
            res = (sub._residual({j: f.one()}) for j in range(sub.ambient_dim))
            self._project = Matrix.from_cols(
                f, [[r.get(c, z) for c in cols] for r in res], self.dim)
        return self._project

    @property
    def dim(self):
        return len(self.section_cols)
