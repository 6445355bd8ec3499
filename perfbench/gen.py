"""Seeded inputs for the benchmark workloads.

Only families that are valid by construction are built: truncated free
dialgebras and tensor algebras, brackets valued in a central line, the
Leibnization of a free dialgebra, and ideal-inclusion crossed modules over
them.  An invalid input is a valid one with exactly one structure constant
changed, and the change is kept only when the oracle finds the axiom it
breaks.  The same seed gives byte-identical documents.

Where a workload needs its cost and its invariant counts to be the same on
every seed (envelope-ladder, hom-scan), the seed picks a random basis of a
fixed isomorphism type: the structure constants and the output bytes change
with the seed, the dimensions and hom-set sizes do not.
"""

import json
import random

from oracle import (ACTION_SLOTS, PRODUCT_KEYS, Field, algebra_expected_items,
                    prod, rref, xmod_expected_items, xmod_item_count)

F2, F3, F5, QQ = Field(2), Field(3), Field(5), Field(0)


def canonical(doc):
    """The document encoding diacat reads and writes (sorted keys)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# algebra families; an algebra is (dim, [table per product])


def free_dias(F, g, bound):
    """Truncated free dialgebra: words are letters around a center slot."""
    words = []
    for length in range(1, bound + 1):
        for code in range(g ** length):
            letters = tuple(code // g ** i % g for i in range(length))
            for c in range(length):
                words.append((letters[:c], letters[c], letters[c + 1:]))
    index = {w: i for i, w in enumerate(words)}
    left, right = {}, {}
    for i, (al, ac, ar) in enumerate(words):
        for j, (bl, bc, br) in enumerate(words):
            if len(al) + len(ar) + len(bl) + len(br) + 2 > bound:
                continue
            bletters = bl + (bc,) + br
            left[(i, j)] = {index[(al, ac, ar + bletters)]: 1}
            right[(i, j)] = {index[(al + (ac,) + ar + bl, bc, br)]: 1}
    lengths = [len(w[0]) + len(w[2]) + 1 for w in words]
    return len(words), [left, right], lengths


def tensor_alg(F, g, bound):
    """Truncated tensor algebra: nonempty words, concatenation."""
    words = [tuple(code // g ** i % g for i in range(length))
             for length in range(1, bound + 1) for code in range(g ** length)]
    index = {w: i for i, w in enumerate(words)}
    table = {(i, j): {index[a + b]: 1}
             for i, a in enumerate(words) for j, b in enumerate(words)
             if len(a) + len(b) <= bound}
    return len(words), [table], [len(w) for w in words]


def leibnization(F, n, tables):
    """[x,y] = x -| y - y |- x, a Leibniz bracket for every dialgebra."""
    left, right = tables
    br = {}
    for i in range(n):
        for j in range(n):
            v = dict(left.get((i, j), {}))
            for k, c in right.get((j, i), {}).items():
                s = F.sub(v.get(k, 0), c)
                if s == 0:
                    v.pop(k, None)
                else:
                    v[k] = s
            if v:
                br[(i, j)] = v
    return [br]


def central_line(F, n, rng, alternating, pairs):
    """Bracket [x,y] = b(x,y) z with z = e_{n-1} central: 2-step nilpotent,
    hence Leibniz; Lie when b is alternating."""
    br = {}
    for _ in range(pairs):
        i, j = rng.randrange(n - 1), rng.randrange(n - 1)
        if alternating and i == j:
            continue
        c = F.random_nonzero(rng)
        br[(i, j)] = {n - 1: c}
        if alternating:
            br[(j, i)] = {n - 1: F.sub(0, c)}
    return [br]


def change_basis(F, n, tables, rng):
    """Structure constants of the same algebra in a random basis."""
    while True:
        cols = [[F.of(rng.randrange(-1, 3)) for _ in range(n)] for _ in range(n)]
        if rref(F, cols, n)[1] == n:
            break
    # the inverse, by row reduction of [P | I]
    aug = [[cols[j][i] for j in range(n)] + [F.of(int(i == k)) for k in range(n)]
           for i in range(n)]
    pinv = [row[n:] for row in rref(F, aug, n)[0]]
    vec = [{k: c for k, c in enumerate(col) if c != 0} for col in cols]
    out = []
    for table in tables:
        new = {}
        for i in range(n):
            for j in range(n):
                w = prod(F, table, vec[i], vec[j])
                v = {}
                for r in range(n):
                    s = 0
                    for k, c in w.items():
                        s = F.add(s, F.mul(pinv[r][k], c))
                    if s != 0:
                        v[r] = s
                if v:
                    new[(i, j)] = v
        out.append(new)
    return out


def ideal_inclusion(n, tables, ideal):
    """Crossed module of an ideal spanned by basis vectors ``ideal``, acted
    on by the whole algebra through its products."""
    pos = {b: l for l, b in enumerate(ideal)}

    def restrict(v):
        return {pos[k]: c for k, c in v.items()}

    src = [{(l, m): restrict(t[(a, b)]) for l, a in enumerate(ideal)
            for m, b in enumerate(ideal) if (a, b) in t} for t in tables]
    action = []
    for t in tables:
        dl = {(x, l): restrict(t[(x, a)]) for x in range(n)
              for l, a in enumerate(ideal) if (x, a) in t}
        ld = {(l, x): restrict(t[(a, x)]) for x in range(n)
              for l, a in enumerate(ideal) if (a, x) in t}
        action.append((dl, ld))
    mu_cols = [{a: 1} for a in ideal]
    return (len(ideal), src), (n, tables), mu_cols, action


# ---------------------------------------------------------------------------
# documents


def _triples(table):
    return [[i, j, k, str(c)] for (i, j) in sorted(table)
            for k, c in sorted(table[(i, j)].items())]


def algebra_doc(F, flavor, n, tables):
    doc = dict(F.doc(), flavor=flavor, dim=n, basis=[f"b{i}" for i in range(n)])
    for key, table in zip(PRODUCT_KEYS[flavor], tables):
        doc[key] = _triples(table)
    return doc


def xmod_doc(F, flavor, src, tgt, mu_cols, action):
    (nl, ltabs), (nd, dtabs) = src, tgt
    mu = [[str(mu_cols[l].get(r, 0)) for l in range(nl)] for r in range(nd)]
    slots = {}
    for (dl_name, ld_name), (dl, ld) in zip(ACTION_SLOTS[flavor], action):
        slots[dl_name] = _triples(dl)
        slots[ld_name] = _triples(ld)
    return {"flavor": flavor, "source": algebra_doc(F, flavor, nl, ltabs),
            "target": algebra_doc(F, flavor, nd, dtabs), "mu": mu,
            "action": slots}


def _perturb(F, table, rng, rows, cols, outs):
    """Add a random nonzero value to one random cell entry; returns the
    changed table and the record of the change."""
    i, j, k = rng.randrange(rows), rng.randrange(cols), rng.randrange(outs)
    cell = dict(table.get((i, j), {}))
    old = cell.get(k, 0)
    new = F.add(old, F.random_nonzero(rng))
    if new == 0:
        cell.pop(k, None)
    else:
        cell[k] = new
    out = dict(table)
    out[(i, j)] = cell
    if not cell:
        del out[(i, j)]
    return out, {"cell": [i, j, k], "old": str(old), "new": str(new)}


# ---------------------------------------------------------------------------
# workloads


ENVELOPE_LADDER = [
    # (tag, input, trunc); inputs name a generated algebra or a bundled
    # crossed module.  Four small rungs, eight of about the same cost, and
    # the big one: the median and the tail of the job times fall among the
    # eight, so they do not jump between rungs of very different size.
    ("Ud", "lb-F2", 2), ("U", "lie-F3", 2),
    ("XUd", "xlb-ideal-e-f2", 2), ("XU", "xlie-abelian-pair-f2", 3),
    ("Ud", "lb-F2", 3), ("Ud", "lb-F3", 3), ("Ud", "lb-F5", 3),
    ("Ud", "lb-Q", 3), ("U", "lie-F3", 3), ("U", "lie-Q", 3),
    ("XUd", "xlb-zero-ff-e-f2", 3), ("XUd", "xlb-ident-abelian-1-f2", 3),
    ("Ud", "lb-F2", 4),
]


def envelope_ladder(rng):
    """The ``[f,f] = e`` Leibniz algebra and the 3-dim Heisenberg Lie
    algebra in a random basis over several fields, at rising truncation."""
    files, inputs = {}, {}
    ffe = (2, [{(1, 1): {0: 1}}])
    heis = (3, [{(0, 1): {2: 1}, (1, 0): {2: -1}}])
    for flavor, (n, tabs), fields in (("lb", ffe, (F2, F3, F5, QQ)),
                                      ("lie", heis, (F3, QQ))):
        for F in fields:
            tabs_f = [{ij: {k: F.of(c) for k, c in v.items()}
                       for ij, v in t.items()} for t in tabs]
            name = f"{flavor}-{F.name}"
            files[name + ".json"] = canonical(
                algebra_doc(F, flavor, n, change_basis(F, n, tabs_f, rng)))
            inputs[name] = name + ".json"
    jobs = [{"name": f"{tag}:{src}@{trunc}", "argv": [
        "construct", tag, {"file": inputs[src]} if src in inputs else src,
        "--trunc", str(trunc)], "rc": 0}
        for tag, src, trunc in ENVELOPE_LADDER]
    return jobs, files


VERIFY_BATTERIES = (
    [f"square:{s}" for s in (
        "2.8-inner", "2.8-outer", "AsDias-I0", "AsDias-I1", "AsLie-I0",
        "AsLie-I1", "LbDias-J0", "LbDias-J1", "LbDias-XUd-J0",
        "LbDias-XUd-J1", "LieLb-I0", "LieLb-I1", "base-XLiea",
        "base-XUd-XU")]
    + ["adjunction:ud", "adjunction:xud", "adjunction:chain:0",
       "adjunction:chain:1", "equivalence:cat1", "equivalence:internal",
       "parallelepiped"])


def verify_batteries(rng):
    order = list(VERIFY_BATTERIES)
    rng.shuffle(order)
    return [{"name": what, "argv": ["verify", what], "rc": 0}
            for what in order], {}


# (family, field, shape); each slot appears once valid and once perturbed.
# The shapes give every valid document about the same check time, so the
# tail of the job times is set by the valid documents, whose cost does not
# depend on the seed, and not by where a perturbation happens to fail.
CHECK_CORPUS = [
    ("free-dias", F2, (2, 3)), ("free-dias", QQ, (1, 8)), ("tensor", F2, (2, 5)),
    ("central-lb", F3, (50, 80)), ("central-lb", QQ, (40, 60)),
    ("central-lie", F2, (52, 70)), ("central-lie", F3, (50, 60)),
    ("xdias", F2, (1, 5)), ("xlb", F3, (1, 6)), ("xas", QQ, (4, 2)),
]

_FAMILY_FLAVOR = {"free-dias": "dias", "tensor": "as", "central-lb": "lb",
                  "central-lie": "lie", "xdias": "dias", "xlb": "lb",
                  "xas": "as"}


def _family(F, family, shape, rng):
    if family == "free-dias":
        return free_dias(F, *shape)[:2]
    if family == "tensor":
        return tensor_alg(F, *shape)[:2]
    if family.startswith("central"):
        n, pairs = shape
        return n, central_line(F, n, rng, family == "central-lie", pairs)
    n, tabs, lengths = (tensor_alg if family == "xas" else free_dias)(F, *shape)
    if family == "xlb":
        tabs = leibnization(F, n, tabs)
    return ideal_inclusion(n, tabs, [i for i in range(n) if lengths[i] >= 2])


def _perturbed_algebra(F, flavor, n, tabs, rng):
    while True:
        p = rng.randrange(len(tabs))
        t, change = _perturb(F, tabs[p], rng, n, n, n)
        tabs2 = list(tabs)
        tabs2[p] = t
        items = algebra_expected_items(F, flavor, n, tabs2, tuple(change["cell"][:2]))
        if not all(ok for ok, _ in items):
            change["product"] = PRODUCT_KEYS[flavor][p]
            return tabs2, items, change


def _perturbed_action(F, flavor, src, tgt, mu_cols, action, rng):
    nl, nd = src[0], tgt[0]
    while True:
        p, side = rng.randrange(len(action)), rng.randrange(2)
        rows, cols = (nd, nl) if side == 0 else (nl, nd)
        t, change = _perturb(F, action[p][side], rng, rows, cols, nl)
        act = list(action)
        act[p] = (t, action[p][1]) if side == 0 else (action[p][0], t)
        items = xmod_expected_items(F, flavor, src, tgt, mu_cols, act)
        if not all(ok for ok, _ in items):
            change["slot"] = ACTION_SLOTS[flavor][p][side]
            return act, items, change


def check_corpus(rng):
    """Each slot valid, then with one seeded perturbation that the oracle
    confirms breaks an axiom; the oracle also predicts every report item."""
    jobs, files = [], {}
    for idx, (family, F, shape) in enumerate(CHECK_CORPUS):
        flavor = _FAMILY_FLAVOR[family]
        kind = "xmod" if family.startswith("x") else "algebra"
        built = _family(F, family, shape, rng)
        for valid in (True, False):
            change = None
            if kind == "xmod":
                src, tgt, mu_cols, act = built
                if valid:
                    items = [(True, None)] * xmod_item_count(flavor)
                else:
                    act, items, change = _perturbed_action(F, flavor, *built, rng)
                doc = xmod_doc(F, flavor, src, tgt, mu_cols, act)
                dims = [src[0], tgt[0]]
            else:
                n, tabs = built
                if valid:
                    items = algebra_expected_items(F, flavor, n, tabs)
                else:
                    tabs, items, change = _perturbed_algebra(F, flavor, n, tabs, rng)
                doc = algebra_doc(F, flavor, n, tabs)
                dims = [n]
            name = f"{idx:02d}-{family}-{F.name}-{'valid' if valid else 'bad'}"
            files[name + ".json"] = canonical(doc)
            jobs.append({"name": name, "argv": ["check", {"file": name + ".json"}],
                         "rc": 0 if valid else 1,
                         "expect": {"kind": kind, "flavor": flavor, "dims": dims,
                                    "items": [[ok, list(w) if w else None]
                                              for ok, w in items],
                                    "perturbation": change}})
    return jobs, files


# (op, flavor, field, source, target): each side names an isomorphism type
# and a dimension; the target is placed in a random basis per seed.  The
# list is odd, so the median job time of two passes is the mean of the two
# copies of one job.
HOM_SCAN = [
    ("homs", "lb", F2, ("abelian", 3), ("abelian", 4)),
    ("homs", "lie", F2, ("abelian", 4), ("abelian", 3)),
    ("homs", "as", F2, ("abelian", 4), ("abelian", 3)),
    ("homs", "dias", F3, ("abelian", 2), ("abelian", 4)),
    ("homs", "lb", F3, ("abelian", 2), ("abelian", 4)),
    ("homs", "lie", F3, ("abelian", 2), ("abelian", 4)),
    ("homs", "as", F5, ("abelian", 2), ("abelian", 3)),
    ("homs", "as", F3, ("abelian", 2), ("abelian", 4)),
    ("homs", "lb", F5, ("abelian", 2), ("abelian", 3)),
    ("homs", "lie", F5, ("abelian", 2), ("abelian", 3)),
    ("homs", "lie", F3, ("heis", 3), ("heis", 3)),
    ("homs", "lb", F3, ("ffe", 2), ("ffe-plus", 4)),
    ("homs", "lb", F2, ("ffe-plus", 4), ("ffe-plus", 4)),
    ("homs", "lb", F3, ("ffe-plus", 3), ("ffe-plus", 3)),
    ("homs", "dias", F2, ("free-plus", 4), ("free-plus", 4)),
    ("homs", "dias", F5, ("free-1-2", 2), ("free", 3)),
    ("homs", "as", F3, ("nil3", 3), ("nil3-plus", 4)),
    ("homs", "lie", F5, ("heis", 3), ("abelian", 2)),
    ("homs", "lie", F3, ("abelian", 2), ("heis", 3)),
    ("iso", "lie", F3, ("heis", 3), ("heis", 3)),
    ("iso", "dias", F2, ("free-plus", 4), ("free-plus", 4)),
    ("iso", "as", F3, ("nil3", 3), ("nil3", 3)),
    ("iso", "lb", F2, ("ffe-plus", 4), ("ffe-plus", 4)),
]


def _iso_type(F, flavor, kind, n):
    """Structure tables of a named small algebra of dimension n."""
    nprod = len(PRODUCT_KEYS[flavor])
    if kind == "abelian":
        return [{} for _ in range(nprod)]
    if kind == "heis":
        return [{(0, 1): {2: 1}, (1, 0): {2: F.of(-1)}}]
    if kind in ("ffe", "ffe-plus"):
        # [f,f] = e; "plus" adds an abelian direct summand
        return [{(1, 1): {0: 1}}]
    if kind in ("nil3", "nil3-plus"):
        # t*t = t2, t*t2 = t2*t = t3
        return [{(0, 0): {1: 1}, (0, 1): {2: 1}, (1, 0): {2: 1}}]
    if kind in ("free", "free-plus", "free-1-2"):
        # free dialgebra on one letter at length 2 (dim 3), padded with an
        # abelian summand for "plus"; "free-1-2" keeps the 2-dim quotient
        # by one of the two length-2 words
        _, tabs, _ = free_dias(F, 1, 2)
        if kind == "free-1-2":
            return [{ij: {k: c for k, c in v.items() if k < 2}
                     for ij, v in t.items() if any(k < 2 for k in v)}
                    for t in tabs]
        return tabs
    raise ValueError(kind)


def hom_scan(rng):
    jobs, files = [], {}
    for idx, (op, flavor, F, (ka, na), (kb, nb)) in enumerate(HOM_SCAN):
        names = []
        for side, kind, n in (("a", ka, na), ("b", kb, nb)):
            tabs = _iso_type(F, flavor, kind, n)
            if side == "b":
                tabs = change_basis(F, n, tabs, rng)
            name = f"{idx:02d}-{side}-{flavor}-{kind}-{F.name}.json"
            files[name] = canonical(algebra_doc(F, flavor, n, tabs))
            names.append(name)
        # between abelian algebras every linear map is a morphism
        found = F.p ** (na * nb) if op == "homs" and ka == kb == "abelian" else None
        jobs.append({"name": f"{op}:{flavor}:{ka}{na}->{kb}{nb}:{F.name}",
                     "op": op, "a": names[0], "b": names[1], "found": found})
    return jobs, files


WORKLOADS = {"envelope-ladder": envelope_ladder,
             "verify-batteries": verify_batteries,
             "check-corpus": check_corpus,
             "hom-scan": hom_scan}


def build(workload, seed):
    """(jobs, {file name: text}) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)
