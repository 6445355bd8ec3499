"""The equations of a hom-set search, compiled once, and the search.

A morphism's unknown columns c satisfy equations ``sum_s lin[s] c_s =
map(c_u, c_v)``: a product preserved, the square ``mu' alpha = beta mu``,
an equivariance.  ``_intertwined`` states them for every basis pair of a
product, and each becomes an ``_Equation`` compiled once per hom-set:
every matrix ``lin[s]`` as the ``(row, col, coeff)`` triples of its
nonzero entries, and the right side as the product's ``BilinearMap``,
read only at its nonzero cells.  ``_residual`` evaluates one at given
columns, and ``_affine_set`` solves those linear in the next column for
its affine set, whose points ``_affine_points`` lists in lexicographic
order.  A ``_Plan`` drives them: built once per hom-set, it runs the
column-by-column search once per prefix of fixed columns.

``functors`` imports this module inside its enumerators, so ``check``,
``construct`` and every ``verify`` battery whose composites agree without
a search do not compile it.  The one traced function the search calls,
``linalg.inverse``, is looked up on its module when it runs.
"""

from __future__ import annotations

from . import linalg
from .algebra import BilinearMap
from .config import DEFAULT_SEARCH_CAP
from .errors import DiacatError, SearchSpaceTooLarge
from .linalg import (Matrix, _solutions, sp_add_into, sp_from_dense,
                     vec_add, vec_is_zero, vec_scale, vec_zero)


def _triples(f, m: Matrix) -> tuple:
    """The nonzero entries of m as ``(row, col, coeff)`` triples."""
    return tuple((r, j, a) for r, row in enumerate(m.entries)
                 for j, a in enumerate(row) if not f.is_zero(a))


def _scaled_eye(f, c, n) -> tuple:
    """The triples of ``c I``, n x n: none for c = 0."""
    return () if f.is_zero(c) else tuple((r, r, c) for r in range(n))


def _dense(f, triples, rows, cols) -> Matrix:
    """The rows x cols matrix with the entries ``triples``, zero elsewhere."""
    out = [[f.zero()] * cols for _ in range(rows)]
    for r, j, a in triples:
        out[r][j] = a
    return Matrix(f, out, rows, cols)


def _add_triples(f, out, triples, v):
    """Add the matrix of ``triples`` times the dense v to the dense
    ``out``, reading only nonzero entries of v."""
    for r, j, a in triples:
        x = v[j]
        if not f.is_zero(x):
            out[r] = f.add(out[r], f.mul(a, x))


def _upper_form(m):
    """The map with the same values ``m(c, c)`` as the bilinear map m and
    no cell below the diagonal: ``m(e_i, e_i)``, and ``m(e_i, e_j) +
    m(e_j, e_i)`` at i < j.  It is zero when m is alternating, as a Lie
    bracket is."""
    f = m.field
    rows = tuple({} for _ in range(m.left_dim))
    for i, row in enumerate(m.rows):
        for j, cell in row.items():
            sp_add_into(f, rows[min(i, j)].setdefault(max(i, j), {}), cell)
    rows = tuple({j: w for j, w in r.items() if w} for r in rows)
    return BilinearMap(f, m.left_dim, m.right_dim, m.out_dim, rows)


class _Equation:
    """The equation ``sum_s lin[s] c_s = map(c_u, c_v)`` in the unknown
    columns c, with ``rows`` rows: ``lin`` maps each column index s to the
    triples of its matrix, and ``map`` is a ``BilinearMap``, or None for a
    zero right side.  ``k`` is the last column it involves, where the
    search handles it, and ``reads`` are the others."""

    def __init__(self, lin, bil, rows):
        self.lin, self.rows = lin, rows
        self.map, self.u, self.v = bil or (None, None, None)
        used = set(lin) | set(bil[1:] if bil else ())
        self.k = max(used)
        self.reads = used - {self.k}


def _intertwined(src, tgt, lefts, rights, outs, width):
    """The equations ``phi(src(e_i, e_j)) = tgt(c_lefts[i], c_rights[j])``
    of every basis pair, where the unknown phi sends e_s to column
    ``outs[s]`` of length ``width``.  Where both slots are one column c,
    ``tgt(c, c)`` is read off ``_upper_form(tgt)``, built once."""
    f, bil = src.field, not tgt.is_zero()
    upper = _upper_form(tgt) if bil else None
    for i, u in enumerate(lefts):
        for j, v in enumerate(rights):
            lin = {outs[s]: _scaled_eye(f, c, width)
                   for s, c in src.pair(i, j).items()}
            if lin or bil:
                m = upper if u == v else tgt
                yield _Equation(lin, (m, u, v) if bil else None, width)


def _residual(f, eq, cols):
    """``sum_s lin[s] c_s - map(c_u, c_v)`` at the columns ``cols``, dense,
    for the ``_Equation`` eq that it is zero.  Only nonzero triples, cells
    and entries are read."""
    r = vec_zero(f, eq.rows)
    for s, triples in eq.lin.items():
        _add_triples(f, r, triples, cols[s])
    if eq.map is not None:
        cv = cols[eq.v]
        for row, a in zip(eq.map.rows, cols[eq.u]):
            if not row or f.is_zero(a):
                continue
            for j, cell in row.items():
                b = cv[j]
                if not f.is_zero(b):
                    ab = f.mul(a, b)
                    for t, c in cell.items():
                        r[t] = f.sub(r[t], f.mul(ab, c))
    return r


def _affine_set(f, width, equations, cols):
    """``(part, basis)`` of the values c of the next column, of length
    ``width``, that solve the ``_Equation``s (each affine in c given the
    prefix ``cols``), or None.  ``basis`` is the canonical RREF basis of
    the homogeneous solutions and ``part`` is reduced by it, so the point
    ``part + sum t_i basis_i`` has t_i at the i-th pivot: scanning the t's
    in lexicographic order scans the points in lexicographic order.

    The system ``M c = b`` is read off the equations into sparse rows,
    b at key ``width``, and rows that are zero are dropped: each one's
    block of M is the triples of ``lin[k]`` less the bilinear side with c
    in its slot, read off the map's nonzero cells by ``with_basis``, and b
    is minus its residual at c = 0.  One reduction of ``[M | b]``
    (``linalg._solutions``) gives both answers.
    """
    k = len(cols)
    at_zero = cols + [vec_zero(f, width)]
    rows = []
    for eq in equations:
        block = [{} for _ in range(eq.rows)]
        for r, j, a in eq.lin.get(k, ()):
            block[r][j] = a
        if eq.map is not None and k in (eq.u, eq.v):
            # c on the left: column i is map(e_i, c_v); on the right,
            # column j is map(c_u, e_j)
            m, other = ((eq.map.transpose_args(), eq.v) if eq.u == k
                        else (eq.map, eq.u))
            for col, w in m.with_basis(sp_from_dense(f, cols[other])).items():
                for t, a in w.items():
                    block[t][col] = f.sub(block[t].get(col, f.zero()), a)
        for brow, r0 in zip(block, _residual(f, eq, at_zero)):
            if not f.is_zero(r0):
                brow[width] = f.neg(r0)
        rows += filter(None, block)
    sol = _solutions(f, rows, width)
    return None if sol is None else (sol[0], sol[2])


def _affine_points(f, part, scaled, listed):
    """The points ``part + sum t_i b_i``, as tuples, over the t's in
    lexicographic order, from ``scaled[i]``, the multiples ``t b_i`` in
    field order: depth first, on a stack of partial sums, so each point and
    each partial sum costs one vector addition.  Each point is appended to
    ``listed`` as it is yielded, so the list holds only points already
    taken."""
    if not scaled:
        listed.append(tuple(part))
        yield listed[-1]
        return
    add, leaf = f.add, len(scaled)
    stack = [(part, iter(scaled[0]))]
    while stack:
        base, multiples = stack[-1]
        if len(stack) == leaf:
            for tb in multiples:
                point = tuple(map(add, base, tb))
                listed.append(point)
                yield point
            stack.pop()
            continue
        tb = next(multiples, None)
        if tb is None:
            stack.pop()
        else:
            stack.append((vec_add(f, base, tb), iter(scaled[len(stack)])))


# ---------------------------------------------------------------------------
# the column search


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
            inv = linalg.inverse(_dense(f, eq.lin[k], eq.rows, width))
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
    square of ``functors.enumerate_xmod_homs``.  ``run`` then walks the
    columns from a prefix, as often as the caller needs: once for a hom-set
    of algebras, once per actor map beta for the alpha columns of crossed
    modules.
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
        as they are tried (``_affine_points``).  A visit with the
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
