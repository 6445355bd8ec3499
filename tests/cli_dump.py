"""Dump the command line's behaviour, one line per command line.

    python tests/cli_dump.py > dump.txt

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
- last, lines whose inputs follow their options: every battery on
  ``xlb-ideal-e-f2`` with ``--cap 40`` in both orders, and every
  ``construct`` line above that takes ``--trunc 2``, with it first.

pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diacat import cli, documents, fixtures  # noqa: E402
from diacat.functors import square_ids  # noqa: E402
from diacat.tags import FUNCTOR_TAGS  # noqa: E402

TRUNCS = (None, 1, 2, 3)
CAPS = (None, 0, 3, 40)
DOCUMENTS = ("free-dias-1-2-f2", "xdias-ideal-incl-f2", "dias-not-assoc-1")
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
    batteries = [f"square:{sq}" for sq in square_ids()] + list(cli._BATTERIES)
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
    kinds = sorted(FUNCTOR_TAGS) + sorted(cli._CONSTRUCTIONS)
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


def run(argv, tmp):
    real = [a.replace("<tmp>", tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(real)
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code
    out, err = (s.getvalue().replace(tmp, "<tmp>") for s in (out, err))
    return [argv, rc, hashlib.sha1(out.encode()).hexdigest(), err]


def main():
    os.environ.pop("DIACAT_MAX_DIM", None)
    with tempfile.TemporaryDirectory() as tmp:
        for name in DOCUMENTS:
            Path(tmp, f"{name}.json").write_text(
                documents.canonical_json(fixtures.document(name)))
        for argv in command_lines():
            print(json.dumps(run(argv, tmp)), flush=True)


if __name__ == "__main__":
    main()
