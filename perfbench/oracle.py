"""Independent arithmetic and axiom oracle for the benchmark.

Nothing here imports diacat.  Structure tensors are plain dicts
``{(i, j): {k: c}}`` over a small field class of our own, and every axiom is
evaluated by direct expansion of the products on basis elements.  The
oracle predicts the full item list that ``diacat check`` prints for the
generated documents, so a changed verdict or a moved counterexample is
caught on every seed, not only on the seed whose stdout digests are stored.
"""

from fractions import Fraction
from itertools import product as iter_product

# product keys and action slots of the document format, per flavor
PRODUCT_KEYS = {"dias": ("left", "right"), "lb": ("bracket",),
                "as": ("product",), "lie": ("bracket",)}
# (actor-on-actee, actee-on-actor) slot per product index
ACTION_SLOTS = {"dias": (("dl_left", "ld_left"), ("dl_right", "ld_right")),
                "lb": (("gq", "qg"),), "as": (("ar", "ra"),)}

ACTOR, ACTEE = "D", "L"
MIXED_PATTERNS = tuple(p for p in iter_product((ACTOR, ACTEE), repeat=3)
                       if len(set(p)) == 2)


class Field:
    """Q (p == 0) or the prime field F_p, with int or Fraction scalars."""

    def __init__(self, p):
        self.p = p

    @property
    def name(self):
        return "Q" if self.p == 0 else f"F{self.p}"

    def of(self, x):
        return Fraction(x) if self.p == 0 else x % self.p

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def inv(self, a):
        return 1 / Fraction(a) if self.p == 0 else pow(a, self.p - 2, self.p)

    def parse(self, text):
        if self.p == 0:
            return Fraction(text)
        num, _, den = text.partition("/")
        val = int(num) % self.p
        if den:
            val = val * pow(int(den) % self.p, self.p - 2, self.p) % self.p
        return val

    def doc(self):
        return {"field": "Q"} if self.p == 0 else {"field": "Fp", "p": self.p}

    def random_nonzero(self, rng):
        if self.p == 0:
            return Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 1, 2, 3)))
        return rng.randrange(1, self.p)


# ---------------------------------------------------------------------------
# sparse vectors and products


def vadd(F, acc, v, scale):
    for k, c in v.items():
        s = F.add(acc.get(k, 0), F.mul(scale, c))
        if s == 0:
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


def vsub(F, u, v):
    return vadd(F, dict(u), v, F.of(-1))


def prod(F, table, u, v):
    """Bilinear extension of a basis table to sparse vectors u, v."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            cell = table.get((i, j))
            if cell:
                vadd(F, out, cell, F.mul(a, b))
    return out


def matvec(F, cols, v):
    """Matrix given by its columns (sparse vectors) applied to sparse v."""
    out = {}
    for j, c in v.items():
        vadd(F, out, cols[j], c)
    return out


# ---------------------------------------------------------------------------
# axiom templates over a product callback m(pidx, x, y)

def _dias(m, x, y, z):
    return ((m(0, m(0, x, y), z), m(0, x, m(1, y, z))),
            (m(0, m(0, x, y), z), m(0, x, m(0, y, z))),
            (m(0, m(1, x, y), z), m(1, x, m(0, y, z))),
            (m(1, m(0, x, y), z), m(1, x, m(1, y, z))),
            (m(1, m(1, x, y), z), m(1, x, m(1, y, z))))


TEMPLATES = {
    "dias": [lambda m, x, y, z, s, i=i: _dias(m, x, y, z)[i] for i in range(5)],
    "lb": [lambda m, x, y, z, s: (m(0, x, m(0, y, z)),
                                  s(m(0, m(0, x, y), z), m(0, m(0, x, z), y)))],
    "as": [lambda m, x, y, z, s: (m(0, m(0, x, y), z), m(0, x, m(0, y, z)))],
}
TEMPLATES["lie"] = TEMPLATES["lb"]


def _first_failure(triples, holds):
    for t in triples:
        if not holds(t):
            return t
    return None


def algebra_expected_items(F, flavor, n, tables, touched=None):
    """Predicted ``(passed, where)`` list of ``diacat check`` on an algebra.

    ``touched`` is the pair of basis indices of the one product cell that
    differs from a valid algebra, or None for a valid algebra.  Every
    product in an axiom has a variable as one argument, so a triple whose
    indices avoid the touched pair sees the valid products only and holds;
    the first failure of each template therefore lies among the triples
    that meet the pair, and scanning those in order finds it.
    """
    items = []
    if flavor == "lie":
        br = tables[0]
        alt = next(((i, i) for i in range(n) if br.get((i, i))), None)
        anti = next(((i, j) for i in range(n) for j in range(i + 1, n)
                     if vadd(F, dict(br.get((i, j), {})), br.get((j, i), {}), 1)),
                    None)
        items += [(alt is None, alt), (anti is None, anti)]
    if touched is None:
        return items + [(True, None)] * len(TEMPLATES[flavor])
    hot = set(touched)
    triples = sorted(t for t in iter_product(range(n), repeat=3) if hot & set(t))

    def m(pidx, a, b):
        return prod(F, tables[pidx], a, b)

    def s(a, b):
        return vsub(F, a, b)

    for tmpl in TEMPLATES[flavor]:
        def holds(t):
            lhs, rhs = tmpl(m, {t[0]: 1}, {t[1]: 1}, {t[2]: 1}, s)
            return lhs == rhs
        bad = _first_failure(triples, holds)
        items.append((bad is None, bad))
    return items


def xmod_expected_items(F, flavor, src, tgt, mu_cols, action):
    """Predicted ``(passed, where)`` list of ``diacat check`` on a crossed
    module, by a full scan of every item (the generated ones are small).

    ``src``/``tgt`` are ``(dim, tables)``; ``mu_cols[l]`` is mu(e_l) in the
    target; ``action[pidx]`` is the (actor-on-actee, actee-on-actor) pair of
    tables of product ``pidx``.
    """
    nl, ltabs = src
    nd, dtabs = tgt
    one = F.of(1)
    dims = {ACTOR: nd, ACTEE: nl}

    def cross(pidx, side):
        return action[pidx][0 if side == "DL" else 1]

    def m(pidx, a, b):
        (sa, va), (sb, vb) = a, b
        if sa == sb:
            tabs = dtabs if sa == ACTOR else ltabs
            return (sa, prod(F, tabs[pidx], va, vb))
        return (ACTEE, prod(F, cross(pidx, "DL" if sa == ACTOR else "LD"), va, vb))

    def s(a, b):
        return (a[0], vsub(F, a[1], b[1]))

    def first(ranges, holds):
        return _first_failure(iter_product(*[range(r) for r in ranges]), holds)

    def e(i):
        return {i: one}

    items = []
    nprod = len(PRODUCT_KEYS[flavor])
    for p in range(nprod):
        bad = first((nl, nl), lambda t: matvec(F, mu_cols, prod(F, ltabs[p], e(t[0]), e(t[1])))
                    == prod(F, dtabs[p], mu_cols[t[0]], mu_cols[t[1]]))
        items.append((bad is None, bad))
    for tmpl in TEMPLATES[flavor]:
        for pat in MIXED_PATTERNS:
            def holds(t, pat=pat, tmpl=tmpl):
                x, y, z = ((so, e(i)) for so, i in zip(pat, t))
                lhs, rhs = tmpl(m, x, y, z, s)
                return lhs[1] == rhs[1]
            bad = first([dims[so] for so in pat], holds)
            items.append((bad is None, bad))
    for p in range(nprod):
        dl, ld = cross(p, "DL"), cross(p, "LD")
        lp, dp = ltabs[p], dtabs[p]
        checks = (
            ((nd, nl), lambda t: matvec(F, mu_cols, prod(F, dl, e(t[0]), e(t[1])))
             == prod(F, dp, e(t[0]), mu_cols[t[1]])),
            ((nl, nd), lambda t: matvec(F, mu_cols, prod(F, ld, e(t[0]), e(t[1])))
             == prod(F, dp, mu_cols[t[0]], e(t[1]))),
            ((nl, nl), lambda t: prod(F, dl, mu_cols[t[0]], e(t[1]))
             == prod(F, lp, e(t[0]), e(t[1]))),
            ((nl, nl), lambda t: prod(F, lp, e(t[0]), e(t[1]))
             == prod(F, ld, e(t[0]), mu_cols[t[1]])),
        )
        for ranges, holds in checks:
            bad = first(ranges, holds)
            items.append((bad is None, bad))
    return items


def xmod_item_count(flavor):
    """Items of a crossed-module report: mu per product, the mixed action
    instances, then equivariance and Peiffer (two each) per product."""
    nprod = len(PRODUCT_KEYS[flavor])
    return nprod + len(TEMPLATES[flavor]) * len(MIXED_PATTERNS) + 4 * nprod


def template_triples(dims, item):
    """Basis triples one axiom template covers: all of them when it passes,
    and up to and including the located one when it fails (the scan stops
    there).  ``dims`` are the ranges of the three variables."""
    passed, where = item
    if passed:
        return dims[0] * dims[1] * dims[2]
    i, j, k = where
    return (i * dims[1] + j) * dims[2] + k + 1


def algebra_check_triples(flavor, n, items):
    """Triples covered by the single-sort templates of a check report."""
    tmpl_items = items[2:] if flavor == "lie" else items
    return sum(template_triples((n, n, n), it) for it in tmpl_items)


def action_check_triples(flavor, nl, nd, items):
    """Triples covered by the mixed action instances of a crossed-module
    report (the items after the mu-preserves ones)."""
    dims = {ACTOR: nd, ACTEE: nl}
    start = len(PRODUCT_KEYS[flavor])
    pats = [pat for _ in TEMPLATES[flavor] for pat in MIXED_PATTERNS]
    return sum(template_triples([dims[s] for s in pat], it)
               for pat, it in zip(pats, items[start:start + len(pats)]))


# ---------------------------------------------------------------------------
# morphism oracle


def is_morphism(F, ntabs_src, ntabs_tgt, cols, n):
    """Does the linear map with these columns preserve every product?"""
    return all(matvec(F, cols, prod(F, ts, {i: 1}, {j: 1}))
               == prod(F, tt, cols[i], cols[j])
               for ts, tt in zip(ntabs_src, ntabs_tgt)
               for i in range(n) for j in range(n))


def rref(F, rows, ncols):
    """Reduced row echelon form over the first ``ncols`` columns; returns
    (rows, rank)."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, a) for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows, r
