"""Which diacat modules each command compiles, and what compiling them costs.

    python tests/compile_table.py [--parent DIR] [--repeat N] [--json OUT]

Each command line below runs once as a fresh ``python -m diacat.cli`` job
with ``PYTHONDONTWRITEBYTECODE=1``, so the job compiles every diacat
module it loads, and with the ``sitecustomize`` recorder of
``test_no_module_imports_the_command_line``, whose ``atexit`` handler
writes ``sys.modules``.  ``cli`` runs as ``__main__`` and is counted as a
loaded module.  Each loaded module's source is then measured in this
process: its tokens (what ``tokenize`` yields, less comments, line breaks
and indentation) and the median time of ``compile()`` over N calls.  The
table lists, per command, each module's tokens and milliseconds and the
command's sum.

``--parent DIR`` names the root of a second source tree, such as a ``git
archive`` of the parent commit; every command then also runs against
``DIR/src``, and each row gets that tree's columns.  Both trees' files are
compiled in one interleaved loop, so host drift hits them alike.
``--json OUT`` also writes the table as JSON.

The commands cover ``check`` of an algebra and of a crossed module, four
``construct`` kinds, both ``fixtures`` actions and every ``verify``
battery, on its bundled inputs.  pytest does not collect this file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from diacat import fixtures  # noqa: E402
from diacat.batteries import _BATTERIES  # noqa: E402
from diacat.functors import square_ids  # noqa: E402
from test_imports import RECORDER  # noqa: E402

LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT)


def commands(tmp):
    """The command lines, each with the documents it reads written to
    ``tmp``."""
    docs = {}
    for name in ("leibniz-ff-e-f2", "xlb-ideal-e-f2"):
        docs[name] = tmp / f"{name}.json"
        docs[name].write_text(json.dumps(fixtures.document(name)))
    return ([["check", str(docs["leibniz-ff-e-f2"])],
             ["check", str(docs["xlb-ideal-e-f2"])],
             ["construct", "Ud", "leibniz-ff-e-f2", "--trunc", "2"],
             ["construct", "XUd", "xlb-ideal-e-f2", "--trunc", "2"],
             ["construct", "semidirect", "xlb-ideal-e-f2"],
             ["construct", "XLB", "xdias-ideal-incl-f2"],
             ["fixtures", "list"], ["fixtures", "emit", "leibniz-ff-e-f2"]]
            + [["verify", f"square:{i}"] for i in square_ids()]
            + [["verify", what] for what in _BATTERIES])


def loaded_modules(src, argv, tmp):
    """The diacat modules (``__init__`` for the package) that a fresh
    ``python -m diacat.cli argv`` job on the tree ``src`` loads."""
    site = Path(tempfile.mkdtemp(dir=tmp))
    (site / "sitecustomize.py").write_text(RECORDER)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(site), str(src)]))
    env.pop("DIACAT_MAX_DIM", None)
    subprocess.run([sys.executable, "-m", "diacat.cli", *argv], env=env,
                   cwd=tmp, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    names = json.loads((site / "modules.json").read_text())
    return sorted({"cli"} | {"__init__" if n == "diacat" else n[7:]
                             for n in names
                             if n == "diacat" or n.startswith("diacat.")})


def tokens(path):
    with open(path, encoding="utf-8") as fh:
        return sum(t.type not in LAYOUT
                   for t in tokenize.generate_tokens(fh.readline))


def compile_ms(paths, repeat):
    """The median ms of ``compile()`` on each file, over ``repeat`` rounds
    of one call per file."""
    sources = {p: p.read_text(encoding="utf-8") for p in paths}
    times = {p: [] for p in paths}
    for _ in range(repeat):
        for p, text in sources.items():
            t0 = time.perf_counter()
            compile(text, str(p), "exec", dont_inherit=True)
            times[p].append((time.perf_counter() - t0) * 1e3)
    return {p: statistics.median(ts) for p, ts in times.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path,
                    help="root of a second source tree to compare with")
    ap.add_argument("--repeat", type=int, default=15)
    ap.add_argument("--json", type=Path, help="also write the table here")
    args = ap.parse_args()
    trees = {"change": ROOT / "src"}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve() / "src"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = commands(tmp)
        loaded = {" ".join(Path(a).name if a.endswith(".json") else a
                           for a in argv):
                  {tree: loaded_modules(src, argv, tmp)
                   for tree, src in trees.items()} for argv in lines}
    files = {(tree, m): src / "diacat" / f"{m}.py"
             for tree, src in trees.items()
             for m in set().union(*(per[tree] for per in loaded.values()))}
    ms = compile_ms(list(files.values()), args.repeat)
    cost = {key: (tokens(p), round(ms[p], 2)) for key, p in files.items()}

    table = {}
    for line, per in loaded.items():
        table[line] = {tree: {"modules": {m: dict(zip(("tokens", "ms"),
                                                      cost[tree, m]))
                                          for m in mods},
                              "tokens": sum(cost[tree, m][0] for m in mods),
                              "ms": round(sum(cost[tree, m][1]
                                              for m in mods), 2)}
                       for tree, mods in per.items()}
        print(line)
        print(f"  {'module':<12}" + "".join(f"{tree + ' tokens':>16}{'ms':>8}"
                                            for tree in trees))
        mods = sorted(set().union(*per.values()))
        for m in mods + ["total"]:
            row = f"  {m:<12}"
            for tree in trees:
                cell = (table[line][tree] if m == "total"
                        else table[line][tree]["modules"].get(m))
                row += (f"{cell['tokens']:>16}{cell['ms']:>8.2f}" if cell
                        else f"{'-':>16}{'-':>8}")
            print(row)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"repeat": args.repeat, "commands": table}, indent=1,
            sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
