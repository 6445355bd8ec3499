"""Time hom-sets of dim-4 algebras over F3, one process per rung.

    python tests/hom_rungs.py [RUNG ...]

A rung is ``FLAVOR:KIND`` and enumerates ``enumerate_homs(a, a)`` for one
algebra a over F3, in its canonical basis:

- ``lie:heis4``: ``[e0, e1] = e2 = -[e1, e0]``, plus a central e3;
- ``lb:ffe-plus4``: ``[e1, e1] = e0``, plus e2 and e3 abelian;
- ``as:nil3-plus4``: ``e0 e0 = e1``, ``e0 e1 = e1 e0 = e2``, plus e3;
- ``dias:free-plus4``: the free dialgebra on one letter x up to length 2,
  ``x -| x = e1`` and ``x |- x = e2``, plus e3;
- ``lb:ffe-plusN`` for any N: ``[e1, e1] = e0`` in dimension N.

The default ladder is the first four.  ``lb:ffe-plus5`` (3^25 matrices) is
opt-in: the default cap of 2^20 candidates refuses it, after scanning
``cap + 1`` of them.  Each rung runs in a fresh interpreter and prints the
hom-set size (or ``refused``), its wall time, its peak RSS and the sha1 of
the canonical column list: the first 12 hex digits of the sha1 of ``repr``
of each morphism's list of columns, one line per morphism, in the order
``enumerate_homs`` gives them.  pytest does not collect this file.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LADDER = ("lie:heis4", "lb:ffe-plus4", "as:nil3-plus4", "dias:free-plus4")
P = 3


def tables(kind):
    """(dim, triples per product) of the rung's algebra."""
    if kind == "heis4":
        return 4, [[(0, 1, 2, 1), (1, 0, 2, -1)]]
    if kind == "nil3-plus4":
        return 4, [[(0, 0, 1, 1), (0, 1, 2, 1), (1, 0, 2, 1)]]
    if kind == "free-plus4":
        return 4, [[(0, 0, 1, 1)], [(0, 0, 2, 1)]]
    if kind.startswith("ffe-plus"):
        return int(kind[len("ffe-plus"):]), [[(1, 1, 0, 1)]]
    raise SystemExit(f"unknown rung kind {kind!r}")


def build(rung):
    from diacat.algebra import BilinearMap, make_algebra
    from diacat.fields import GF
    flavor, kind = rung.split(":")
    n, triples = tables(kind)
    f = GF(P)
    return make_algebra(flavor, f, [BilinearMap.from_triples(f, n, n, n, t)
                                    for t in triples])


def columns_sha1(homs):
    h = hashlib.sha1()
    for m in homs:
        mat = m.matrix
        h.update(repr([mat.col(j) for j in range(mat.cols)]).encode())
        h.update(b"\n")
    return h.hexdigest()[:12]


def child(rung):
    from diacat.errors import SearchSpaceTooLarge
    from diacat.functors import enumerate_homs
    a = build(rung)
    start = time.perf_counter()
    try:
        homs = enumerate_homs(a, a)
    except SearchSpaceTooLarge as exc:
        homs, size, sha1 = None, "refused", f"cap {exc.cap}"
    wall = time.perf_counter() - start
    if homs is not None:
        size, sha1 = len(homs), columns_sha1(homs)
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"rung": rung, "homs": size, "wall_s": round(wall, 3),
                      "peak_rss_mb": round(rss, 1), "sha1": sha1}))


def main(rungs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    print(f"{'rung':<18} {'homs':>8} {'wall':>8} {'peak RSS':>10}  sha1")
    for rung in rungs or LADDER:
        out = subprocess.run([sys.executable, __file__, "--child", rung],
                             env=env, capture_output=True, text=True)
        if out.returncode:
            print(f"{rung:<18} failed: {out.stderr.strip()}")
            continue
        r = json.loads(out.stdout)
        print(f"{rung:<18} {r['homs']:>8} {r['wall_s']:>7.2f}s "
              f"{r['peak_rss_mb']:>7.1f} MB  {r['sha1']}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main(sys.argv[1:])
