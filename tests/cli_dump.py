"""Dump the command line's behaviour, one line per command line.

    python tests/cli_dump.py > dump.txt
    python tests/cli_dump.py --fresh K

Each line is a JSON list: the argv, the exit code, the sha1 of stdout and
the stderr text.  Every command runs in-process, in the order below, with
``DIACAT_MAX_DIM`` unset.  Documents are written to a temporary directory
whose path reads ``<tmp>`` in argv, stdout and stderr, so two source trees
give comparable dumps: run this file in each and compare the outputs with
``diff``.  The lines cover

- every ``verify`` battery at ``--trunc`` absent/1/2/3 and ``--cap``
  absent/0/3/40, on its bundled inputs;
- every battery on 1 or 2 named inputs: a fixture of each kind, a document
  of each kind, the invalid ``dias-not-assoc-1`` by name and by document,
  and an unknown name;
- unknown battery names;
- every ``construct`` kind on every bundled fixture and on the document of
  ``dias-not-assoc-1``, with ``--trunc 2`` where the kind takes a bound;
- lines whose inputs follow their options: every battery on
  ``xlb-ideal-e-f2`` with ``--cap 40`` in both orders, and every
  ``construct`` line above that takes ``--trunc 2``, with it first;
- ``check`` on every bundled fixture's document, then on each of them
  under every ``--flavor-override``;
- last, ``--verbose``, whose commentary goes to stderr: ``check`` of a
  valid and of a failing document, one ``construct`` that prints its
  document, and one ``verify``.

With ``--fresh K``, every K-th of those command lines (the first, the
K+1-th, ...) also runs in a fresh ``python -m diacat.cli`` process, where
``cli`` is ``__main__``, and its exit code, stdout and stderr are compared
with the in-process run.  Each difference is printed as a JSON list: the
argv, what differs, and the in-process and fresh values.  A summary goes to
stderr, and the exit code is 1 if anything differs.

pytest does not collect this file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from diacat import cli, documents, fixtures  # noqa: E402
from diacat.algebra import FLAVORS  # noqa: E402
from diacat.batteries import _BATTERIES  # noqa: E402
from diacat.functors import square_ids  # noqa: E402
from diacat.tags import _CONSTRUCTIONS, FUNCTOR_TAGS  # noqa: E402

TRUNCS = (None, 1, 2, 3)
CAPS = (None, 0, 3, 40)
NAMED = (["leibniz-ff-e-f2"], ["xlb-ideal-e-f2"],
         ["<tmp>/free-dias-1-2-f2.json"], ["<tmp>/xdias-ideal-incl-f2.json"],
         ["dias-not-assoc-1"], ["<tmp>/dias-not-assoc-1.json"],
         ["no-such-fixture"],
         ["leibniz-ff-e-f2", "xlb-ideal-e-f2"],
         ["xlb-ideal-e-f2", "xlb-ident-ff-e-f2"],
         ["free-dias-1-2-f2", "dias-not-assoc-1"],
         ["xlb-ideal-e-f2", "no-such-fixture"])
UNKNOWN = ("nope", "square:", "square:no-such-square", "adjunction:",
           "adjunction:foo", "adjunction:chain:2", "equivalence:",
           "equivalence:nope")


def _options(trunc, cap):
    out = []
    if trunc is not None:
        out += ["--trunc", str(trunc)]
    if cap is not None:
        out += ["--cap", str(cap)]
    return out


def command_lines():
    batteries = [f"square:{sq}" for sq in square_ids()] + list(_BATTERIES)
    for what in batteries:
        for trunc in TRUNCS:
            for cap in CAPS:
                yield ["verify", what] + _options(trunc, cap)
        for names in NAMED:
            yield ["verify", what] + names
    for what in UNKNOWN:
        yield ["verify", what]
        yield ["verify", what, "--trunc", "2"]
        yield ["verify", what, "xlb-ideal-e-f2"]
    kinds = sorted(FUNCTOR_TAGS) + sorted(_CONSTRUCTIONS)
    for kind in kinds:
        trunc = ["--trunc", "2"] if getattr(FUNCTOR_TAGS.get(kind),
                                            "truncated", False) else []
        for name in fixtures.names() + ["<tmp>/dias-not-assoc-1.json"]:
            yield ["construct", kind, name] + trunc
    # inputs after options, each line matching one with its inputs first
    for what in batteries:
        yield ["verify", what, "xlb-ideal-e-f2", "--cap", "40"]
        yield ["verify", what, "--cap", "40", "xlb-ideal-e-f2"]
    for kind in kinds:
        if getattr(FUNCTOR_TAGS.get(kind), "truncated", False):
            for name in fixtures.names() + ["<tmp>/dias-not-assoc-1.json"]:
                yield ["construct", kind, "--trunc", "2", name]
    for name in fixtures.names():
        yield ["check", f"<tmp>/{name}.json"]
    for name in fixtures.names():
        for flavor in FLAVORS:
            yield ["check", f"<tmp>/{name}.json", "--flavor-override", flavor]
    yield ["check", "<tmp>/xlb-ideal-e-f2.json", "--verbose"]
    yield ["check", "<tmp>/dias-not-assoc-1.json", "--verbose"]
    yield ["construct", "semidirect", "xlb-ideal-e-f2", "--verbose"]
    yield ["verify", "equivalence:cat1", "xlb-ideal-e-f2", "--verbose"]


def in_process(argv, tmp):
    """The exit code, stdout and stderr of ``cli.main`` on ``argv``."""
    real = [a.replace("<tmp>", tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(real)
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code
    return (rc, *(s.getvalue().replace(tmp, "<tmp>") for s in (out, err)))


def fresh(argv, tmp):
    """The exit code, stdout and stderr of ``python -m diacat.cli argv``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run(
        [sys.executable, "-m", "diacat.cli",
         *(a.replace("<tmp>", tmp) for a in argv)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env)
    return (run.returncode,
            *(s.replace(tmp, "<tmp>") for s in (run.stdout, run.stderr)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--fresh", type=int, metavar="K",
                        help="also run every K-th line in a fresh process "
                             "and report differences")
    every = parser.parse_args().fresh
    if every is not None and every < 1:
        parser.error("--fresh takes a positive integer")
    os.environ.pop("DIACAT_MAX_DIM", None)
    ran = differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in fixtures.names():
            Path(tmp, f"{name}.json").write_text(
                documents.canonical_json(fixtures.document(name)))
        for i, argv in enumerate(command_lines()):
            rc, out, err = got = in_process(argv, tmp)
            if every is None:
                print(json.dumps([argv, rc, hashlib.sha1(
                    out.encode()).hexdigest(), err]), flush=True)
            elif i % every == 0:
                ran += 1
                new = fresh(argv, tmp)
                diffs = [[argv, what, a, b] for what, a, b in
                         zip(("exit code", "stdout", "stderr"), got, new)
                         if a != b]
                differ += bool(diffs)
                for line in diffs:
                    print(json.dumps(line), flush=True)
    if every is not None:
        print(f"{ran} command lines ran fresh; {differ} differ",
              file=sys.stderr)
        sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
