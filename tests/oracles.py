"""Independent brute-force oracles used to cross-check the library.

Everything here works on dense integer tables mod p and expands products
over every vector, not just basis elements.  No diacat data structures are
used, so agreement with the library checkers is meaningful evidence.
"""

import itertools


def bilinear_ext(p, n, table):
    """Full multiplication table of the bilinear extension.

    ``table[i][j]`` is the basis product as a length-n tuple mod p.  Vectors
    are encoded as base-p integers, least significant digit = coordinate 0.
    Returns ext with ext[u][v] the encoded product of encoded vectors.
    """
    size = p ** n

    def digits(u):
        out = []
        for _ in range(n):
            out.append(u % p)
            u //= p
        return out

    def encode(vec):
        u = 0
        for c in reversed(vec):
            u = u * p + (c % p)
        return u

    ext = [[0] * size for _ in range(size)]
    for u in range(size):
        du = digits(u)
        for v in range(size):
            dv = digits(v)
            acc = [0] * n
            for i in range(n):
                if du[i] == 0:
                    continue
                for j in range(n):
                    if dv[j] == 0:
                        continue
                    coeff = du[i] * dv[j]
                    tij = table[i][j]
                    for k in range(n):
                        acc[k] = (acc[k] + coeff * tij[k]) % p
            ext[u][v] = encode(acc)
    return ext


def dias_tables_ok(p, n, left, right):
    """Direct expansion of the five diassociative identities over all
    vector triples; ``left``/``right`` are basis tables as in bilinear_ext."""
    return dias_ext_ok(p, n, bilinear_ext(p, n, left),
                       bilinear_ext(p, n, right))


def dias_ext_ok(p, n, la, ra):
    """Same check on precomputed extension tables."""
    size = p ** n
    for x in range(size):
        for y in range(size):
            for z in range(size):
                xy_l, yz_l = la[x][y], la[y][z]
                xy_r, yz_r = ra[x][y], ra[y][z]
                if la[xy_l][z] != la[x][ra[y][z]]:
                    return False
                if la[xy_l][z] != la[x][yz_l]:
                    return False
                if la[xy_r][z] != ra[x][yz_l]:
                    return False
                if ra[xy_l][z] != ra[x][yz_r]:
                    return False
                if ra[xy_r][z] != ra[x][yz_r]:
                    return False
    return True


def leibniz_table_ok(p, n, bracket):
    """[x,[y,z]] = [[x,y],z] - [[x,z],y] over all vector triples."""
    br = bilinear_ext(p, n, bracket)
    size = p ** n

    def sub(u, v):
        # digitwise subtraction mod p of encoded vectors
        out, mult = 0, 1
        for _ in range(n):
            out += ((u % p - v % p) % p) * mult
            u //= p
            v //= p
            mult *= p
        return out

    for x in range(size):
        for y in range(size):
            for z in range(size):
                if br[x][br[y][z]] != sub(br[br[x][y]][z], br[br[x][z]][y]):
                    return False
    return True


def assoc_table_ok(p, n, table):
    ext = bilinear_ext(p, n, table)
    size = p ** n
    for x in range(size):
        for y in range(size):
            for z in range(size):
                if ext[ext[x][y]][z] != ext[x][ext[y][z]]:
                    return False
    return True


def leibnization_table(p, n, left, right):
    """The bracket x -| y minus y |- x as a dense basis table."""
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(tuple((left[i][j][k] - right[j][i][k]) % p
                             for k in range(n)))
        out.append(row)
    return out


def block_table(dims, blocks):
    """The dense basis table on a sum of spaces of dimensions ``dims``,
    filled pair by pair: the basis pair (i, j), with i in summand a and j
    in summand b, takes cell [i'][j'] of ``blocks[(a, b)] = (table, c)``
    at i', j' relative to their summands, placed in summand c.  A pair
    whose (a, b) is not in ``blocks`` is zero."""
    starts = [sum(dims[:a]) for a in range(len(dims))]
    n = sum(dims)

    def summand(i):
        a = max(a for a, s in enumerate(starts) if s <= i and dims[a])
        return a, i - starts[a]

    out = []
    for i in range(n):
        row = []
        for j in range(n):
            (a, ii), (b, jj) = summand(i), summand(j)
            cell = [0] * n
            if (a, b) in blocks:
                table, c = blocks[(a, b)]
                cell[starts[c]:starts[c] + dims[c]] = table[ii][jj]
            row.append(tuple(cell))
        out.append(row)
    return out


def all_tensors(p, n):
    """Every basis table for one bilinear product on dimension n mod p."""
    cells = n * n * n
    for code in range(p ** cells):
        digits = []
        c = code
        for _ in range(cells):
            digits.append(c % p)
            c //= p
        yield [[tuple(digits[(i * n + j) * n + k] for k in range(n))
                for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# crossed modules: mixed axiom instances, equivariance and Peiffer equations
#
# A bilinear map is a dense table ``t[i][j]`` of length-``out`` tuples mod p,
# as above; ``p=None`` means plain integers, for rational fixtures whose
# tables are integral.  Elements of the two-sorted structure are
# ``(sort, vector)`` pairs, sort "D" for the actor and "L" for the actee.


def _red(p, x):
    return x % p if p else x


def _apply(p, table, u, v, out_dim):
    acc = [0] * out_dim
    for i, a in enumerate(u):
        if _red(p, a):
            for j, b in enumerate(v):
                if _red(p, b):
                    for k, c in enumerate(table[i][j]):
                        acc[k] = _red(p, acc[k] + a * b * c)
    return acc


def _unit(n, i):
    return [1 if k == i else 0 for k in range(n)]


def _first(dims, holds):
    """First row-major index tuple over ``dims`` where ``holds`` is false."""
    def walk(prefix):
        if len(prefix) == len(dims):
            return None if holds(*prefix) else tuple(prefix)
        for i in range(dims[len(prefix)]):
            bad = walk(prefix + [i])
            if bad is not None:
                return bad
        return None
    return walk([])


# the axioms as (lhs, rhs) over a two-sorted product m(pidx, a, b) and a
# same-sort difference s(a, b); dias index 0 is -|, index 1 is |-
XMOD_AXIOMS = {
    "dias": (
        lambda m, s, x, y, z: (m(0, m(0, x, y), z), m(0, x, m(1, y, z))),
        lambda m, s, x, y, z: (m(0, m(0, x, y), z), m(0, x, m(0, y, z))),
        lambda m, s, x, y, z: (m(0, m(1, x, y), z), m(1, x, m(0, y, z))),
        lambda m, s, x, y, z: (m(1, m(0, x, y), z), m(1, x, m(1, y, z))),
        lambda m, s, x, y, z: (m(1, m(1, x, y), z), m(1, x, m(1, y, z))),
    ),
    "lb": (
        lambda m, s, x, y, z: (m(0, x, m(0, y, z)),
                               s(m(0, m(0, x, y), z), m(0, m(0, x, z), y))),
    ),
    "as": (
        lambda m, s, x, y, z: (m(0, m(0, x, y), z), m(0, x, m(0, y, z))),
    ),
}
# sort patterns with both sorts present, in (D, L)-lexicographic order
XMOD_PATTERNS = ("DDL", "DLD", "DLL", "LDD", "LDL", "LLD")


def xmod_expected_items(p, flavor, lprods, dprods, cross, mu_cols):
    """Predict ``(passed, where)`` for every item of a crossed-module report.

    ``lprods``/``dprods`` are the actee's and actor's product tables,
    ``cross[pidx] = (dl, ld)`` the actor-on-actee and actee-on-actor tables
    of product ``pidx``, and ``mu_cols[l]`` the image of actee basis vector
    ``l`` in actor coordinates.  Items come in report order: mu preserves
    each product; every axiom instance with both sorts, axiom by axiom and
    pattern by pattern; then per product the two equivariance and the two
    Peiffer equations.  ``where`` is the first failing basis pair or triple
    in row-major order, in the local coordinates of each sort.

    For ``lie`` the one cross table is ``cross[0] = (pm, None)``, and the
    reverse product is [m,p] = -[p,m].  Its action items are the two
    equations of a Lie action, [[p,p'],m] = [p,[p',m]] - [p',[p,m]] on
    (D, D, L) and [p,[m,m']] = [[p,m],m'] + [m,[p,m']] on (D, L, L); it has
    one equivariance equation, mu([p,m]) = [p,mu(m)].
    """
    nl, nd = len(mu_cols), len(dprods[0])
    items = []
    if flavor == "lie":
        pm = cross[0][0]
        cross = [(pm, [[tuple(_red(p, -c) for c in pm[x][l])
                        for x in range(nd)] for l in range(nl)])]

    def item(dims, holds):
        bad = _first(dims, holds)
        items.append((bad is None, bad))

    for lp, dp in zip(lprods, dprods):
        item((nl, nl), lambda i, j, lp=lp, dp=dp:
             _matvec(p, mu_cols, lp[i][j], nd)
             == _apply(p, dp, mu_cols[i], mu_cols[j], nd))

    def m(pidx, a, b):
        (sa, u), (sb, v) = a, b
        if sa == sb == "D":
            return ("D", _apply(p, dprods[pidx], u, v, nd))
        if sa == sb == "L":
            return ("L", _apply(p, lprods[pidx], u, v, nl))
        dl, ld = cross[pidx]
        return ("L", _apply(p, dl if sa == "D" else ld, u, v, nl))

    def s(a, b):
        assert a[0] == b[0]
        return (a[0], [_red(p, x - y) for x, y in zip(a[1], b[1])])

    def add(a, b):
        assert a[0] == b[0]
        return (a[0], [_red(p, x + y) for x, y in zip(a[1], b[1])])

    if flavor == "lie":
        instances = [
            ("DDL", lambda x, y, z: (m(0, m(0, x, y), z),
                                     s(m(0, x, m(0, y, z)),
                                       m(0, y, m(0, x, z))))),
            ("DLL", lambda x, y, z: (m(0, x, m(0, y, z)),
                                     add(m(0, m(0, x, y), z),
                                         m(0, y, m(0, x, z))))),
        ]
    else:
        instances = [(pat, lambda x, y, z, axiom=axiom: axiom(m, s, x, y, z))
                     for axiom in XMOD_AXIOMS[flavor]
                     for pat in XMOD_PATTERNS]

    dims = {"D": nd, "L": nl}
    for pat, equation in instances:
        def holds(i, j, k, pat=pat, equation=equation):
            x, y, z = ((srt, _unit(dims[srt], n))
                       for srt, n in zip(pat, (i, j, k)))
            lhs, rhs = equation(x, y, z)
            return lhs == rhs
        item([dims[srt] for srt in pat], holds)

    for pidx, (dl, ld) in enumerate(cross):
        dp, lp = dprods[pidx], lprods[pidx]
        item((nd, nl), lambda x, l, dl=dl, dp=dp:
             _matvec(p, mu_cols, dl[x][l], nd)
             == _apply(p, dp, _unit(nd, x), mu_cols[l], nd))
        if flavor != "lie":
            item((nl, nd), lambda l, x, ld=ld, dp=dp:
                 _matvec(p, mu_cols, ld[l][x], nd)
                 == _apply(p, dp, mu_cols[l], _unit(nd, x), nd))
        item((nl, nl), lambda a, b, dl=dl, lp=lp:
             _apply(p, dl, mu_cols[a], _unit(nl, b), nl) == list(lp[a][b]))
        item((nl, nl), lambda a, b, ld=ld, lp=lp:
             list(lp[a][b]) == _apply(p, ld, _unit(nl, a), mu_cols[b], nl))
    return items


def _matvec(p, cols, v, out_dim):
    acc = [0] * out_dim
    for c, col in zip(v, cols):
        for k in range(out_dim):
            acc[k] = _red(p, acc[k] + c * col[k])
    return acc


# ---------------------------------------------------------------------------
# single-sort algebras: every item of the flavor's checker, triple by triple


def algebra_violations(p, flavor, tables):
    """Every violating basis pair or triple of each item of the flavor's
    checker, in report order, each list in row-major order.

    ``tables`` are the flavor's product tables as above (for ``dias`` the
    -| table first).  Items: d1-d5 for ``dias``, the Leibniz identity for
    ``lb``, associativity for ``as``; for ``lie`` the alternating pairs
    (i, i), the antisymmetry pairs (i, j) with i < j, then the Leibniz
    identity.
    """
    n = len(tables[0])
    out = []
    if flavor == "lie":
        br = tables[0]
        out.append([(i, i) for i in range(n)
                    if any(_red(p, c) for c in br[i][i])])
        out.append([(i, j) for i in range(n) for j in range(i + 1, n)
                    if any(_red(p, a + b) for a, b in zip(br[i][j], br[j][i]))])

    def m(pidx, a, b):
        return _apply(p, tables[pidx], a, b, n)

    def s(a, b):
        return [_red(p, x - y) for x, y in zip(a, b)]

    units = [_unit(n, i) for i in range(n)]
    for axiom in XMOD_AXIOMS["lb" if flavor == "lie" else flavor]:
        bad = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs, rhs = axiom(m, s, units[i], units[j], units[k])
                    if lhs != rhs:
                        bad.append((i, j, k))
        out.append(bad)
    return out


def algebra_expected_items(p, flavor, tables):
    """Predict ``(passed, where)`` for every item of the single-sort
    checker of ``flavor``: ``where`` is the row-major first failure."""
    return [(not bad, bad[0] if bad else None)
            for bad in algebra_violations(p, flavor, tables)]


# ---------------------------------------------------------------------------
# hom-sets: every matrix, each condition expanded on basis pairs


def _matrices(p, m, n):
    """Every n x m matrix mod p as its list of m columns, in the canonical
    order: the flat tuple of the columns, first column first, coordinate
    0 most significant."""
    for flat in itertools.product(range(p), repeat=m * n):
        yield [list(flat[j * n:(j + 1) * n]) for j in range(m)]


def _intertwines(p, src, tgt, left, right, out, out_dim):
    """``out(src(e_i, e_j)) == tgt(left[i], right[j])`` for every basis
    pair; ``out`` is a list of columns."""
    return all(_matvec(p, out, src[i][j], out_dim)
               == _apply(p, tgt, u, v, out_dim)
               for i, u in enumerate(left) for j, v in enumerate(right))


def algebra_homs(p, src, tgt, m, n):
    """Every morphism between algebras of dims m and n with product tables
    ``src`` and ``tgt`` (one per product), as its columns, in canonical
    order."""
    return [cols for cols in _matrices(p, m, n)
            if all(_intertwines(p, s, t, cols, cols, cols, n)
                   for s, t in zip(src, tgt))]


def xmod_homs(p, flavor, x, y):
    """Every crossed-module morphism x -> y as a set of ``(alpha columns,
    beta columns)`` tuples.  A crossed module is ``(lprods, dprods, cross,
    mu_cols)`` as in ``xmod_expected_items``, with ``cross[pidx] = (dl,
    ld)`` and ``ld`` None for ``lie``.  beta runs over the actor
    morphisms, alpha over every matrix; alpha must preserve the actee
    products, and the pair the square mu' alpha = beta mu and the
    equivariances alpha(x.l) = beta(x).alpha(l), alpha(l.x) =
    alpha(l).beta(x)."""
    (xl, xd, xc, xmu), (yl, yd, yc, ymu) = x, y
    ml, nl, md, nd = len(xmu), len(ymu), len(xd[0]), len(yd[0])
    out = set()
    for beta in algebra_homs(p, xd, yd, md, nd):
        for alpha in _matrices(p, ml, nl):
            ok = (all(_intertwines(p, s, t, alpha, alpha, alpha, nl)
                      for s, t in zip(xl, yl))
                  and all(_matvec(p, ymu, alpha[j], nd)
                          == _matvec(p, beta, xmu[j], nd) for j in range(ml)))
            for (dl, ld), (dl2, ld2) in zip(xc, yc):
                ok = ok and _intertwines(p, dl, dl2, beta, alpha, alpha, nl)
                if flavor != "lie":
                    ok = ok and _intertwines(p, ld, ld2, alpha, beta, alpha, nl)
            if ok:
                out.add((tuple(map(tuple, alpha)), tuple(map(tuple, beta))))
    return out


# ---------------------------------------------------------------------------
# truncated free objects
#
# A word is ``(letters, center)``: the center is the position of the
# distinguished letter of a free-dialgebra word ("dias"), and None for a
# tensor word ("as").


def free_words(kind, g, b):
    """The words of length at most b on g letters, by length, then letters,
    then center position."""
    out = []
    for n in range(1, b + 1):
        for letters in itertools.product(range(g), repeat=n):
            centers = range(n) if kind == "dias" else (None,)
            out.extend((letters, c) for c in centers)
    return out


def free_label(word):
    letters, center = word
    return ".".join(f"v{a}" + ("^" if pos == center else "")
                    for pos, a in enumerate(letters))


# a -| b keeps the center of a, a |- b takes the center of b
FREE_RULES = {
    "dias": (lambda a, b: (a[0] + b[0], a[1]),
             lambda a, b: (a[0] + b[0], len(a[0]) + b[1])),
    "as": (lambda a, b: (a[0] + b[0], None),),
}


def free_tables(kind, g, b):
    """Per product, ``{(i, j): k}`` over the word pairs whose product word k
    has length at most b; every pair is multiplied, and the rest are 0."""
    words = free_words(kind, g, b)
    index = {w: i for i, w in enumerate(words)}
    tables = []
    for rule in FREE_RULES[kind]:
        table = {}
        for i, x in enumerate(words):
            for j, y in enumerate(words):
                w = rule(x, y)
                if len(w[0]) <= b:
                    table[i, j] = index[w]
        tables.append(table)
    return tables


def canonical_split(word):
    """The outermost product ``(pidx, x, y)`` of the bracketing that
    ``word_value`` evaluates: pidx 1 (|-) with x the first letter when a
    dialgebra word has letters left of its center, else pidx 0 (-| or the
    tensor product) with y the last letter."""
    letters, center = word
    one = None if center is None else 0  # the center of a one-letter word
    if center:
        return 1, ((letters[0],), one), (letters[1:], center - 1)
    return 0, (letters[:-1], center), ((letters[-1],), one)


def word_value(p, word, images, tables, out_dim):
    """A word's value under the generator images ``images`` in a target
    given by dense basis tables: l1 |- (l2 |- ... ((c -| r1) -| r2) ...)
    for a dialgebra word with ``tables = (left, right)``, left to right for
    a tensor word with ``tables = (product,)``."""
    letters, center = word
    if center is None:
        v = images[letters[0]]
        for a in letters[1:]:
            v = _apply(p, tables[0], v, images[a], out_dim)
        return v
    v = images[letters[center]]
    for a in letters[center + 1:]:
        v = _apply(p, tables[0], v, images[a], out_dim)
    for a in reversed(letters[:center]):
        v = _apply(p, tables[1], images[a], v, out_dim)
    return v
