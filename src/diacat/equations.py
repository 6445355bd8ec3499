"""The equations of a hom-set search, compiled once, and their solver.

A morphism's unknown columns c satisfy equations ``sum_s lin[s] c_s =
map(c_u, c_v)``: a product preserved, the square ``mu' alpha = beta mu``,
an equivariance.  ``_intertwined`` states them for every basis pair of a
product, and each becomes an ``_Equation`` compiled once per hom-set:
every matrix ``lin[s]`` as the ``(row, col, coeff)`` triples of its
nonzero entries, and the right side as the product's ``BilinearMap``,
read only at its nonzero cells.  ``_residual`` evaluates one at given
columns, and ``_affine_set`` solves those linear in the next column for
its affine set, whose points ``_affine_points`` lists in lexicographic
order.  ``functors._Plan`` drives them.

Only ``functors`` imports this module, so ``check``, and ``construct``
of an envelope, which load no functor module, do not compile it.
"""

from __future__ import annotations

from .algebra import BilinearMap
from .linalg import (Matrix, _solutions, sp_add_into, sp_from_dense,
                     vec_add, vec_zero)


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


def _compiled(f, eq):
    """``eq``, compiled if it is a tuple ``(lin, bil, rows)`` of matrices
    ``lin[s]`` and ``bil = (map, u, v)`` or None."""
    if isinstance(eq, _Equation):
        return eq
    lin, bil, rows = eq
    return _Equation({s: _triples(f, m) for s, m in lin.items()}, bil, rows)


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
    for the equation ``eq`` (an ``_Equation``, or a tuple that
    ``_compiled`` compiles) that it is zero.  Only nonzero triples, cells
    and entries are read."""
    eq = _compiled(f, eq)
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
    ``width``, that solve the equations (each affine in c given the prefix
    ``cols``; compiled, or tuples that ``_compiled`` compiles), or None.
    ``basis`` is the canonical RREF basis of the homogeneous solutions and
    ``part`` is reduced by it, so the point ``part + sum t_i basis_i`` has
    t_i at the i-th pivot: scanning the t's in lexicographic order scans
    the points in lexicographic order.

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
        eq = _compiled(f, eq)
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
