"""Time the envelopes past the bundled truncations, one process per rung.

    python tests/envelope_rungs.py [RUNG ...]

A rung is ``ud:B`` (``ud(leibniz-ff-e-f2, B)``) or ``xud:B``
(``xud_full(xlb-ideal-e-f2, B)``); the default ladder is ud:5 to ud:8,
xud:4 and xud:5.  Each rung runs in a fresh interpreter with
``DIACAT_MAX_DIM`` raised in its environment only, and prints its wall
time, peak RSS and projection sha1: the first 12 hex digits of the sha1 of
``repr`` of the projection matrix's rows (``Envelope.proj.matrix``, or
``XudResult.pi.matrix``), as in ROADMAP's State section.  pytest does not
collect this file.
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
LADDER = ("ud:5", "ud:6", "ud:7", "ud:8", "xud:4", "xud:5")
CAP = "8192"


def projection_sha1(matrix):
    rows = repr([matrix.row(i) for i in range(matrix.rows)])
    return hashlib.sha1(rows.encode()).hexdigest()[:12]


def build(rung):
    """The rung's projection matrix."""
    from diacat import fixtures
    from diacat.envelope import ud, xud_full
    kind, bound = rung.split(":")
    if kind == "ud":
        return ud(fixtures.get("leibniz-ff-e-f2"), int(bound)).proj.matrix
    if kind == "xud":
        return xud_full(fixtures.get("xlb-ideal-e-f2"), int(bound)).pi.matrix
    raise SystemExit(f"unknown rung {rung!r}")


def child(rung):
    start = time.perf_counter()
    matrix = build(rung)
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"rung": rung, "wall_s": round(wall, 3),
                      "peak_rss_mb": round(rss, 1),
                      "sha1": projection_sha1(matrix)}))


def main(rungs):
    env = dict(os.environ, DIACAT_MAX_DIM=CAP,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    print(f"{'rung':<8} {'wall':>8} {'peak RSS':>10}  sha1")
    for rung in rungs or LADDER:
        out = subprocess.run([sys.executable, __file__, "--child", rung],
                             env=env, capture_output=True, text=True)
        if out.returncode:
            print(f"{rung:<8} failed: {out.stderr.strip()}")
            continue
        r = json.loads(out.stdout)
        print(f"{rung:<8} {r['wall_s']:>7.2f}s {r['peak_rss_mb']:>7.1f} MB"
              f"  {r['sha1']}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main(sys.argv[1:])
