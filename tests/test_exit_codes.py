"""The exit-code contract of the command line: 0 pass, 1 mathematical
failure, 2 input error, 3 resource cap, and nothing on stdout for 2 or 3.

Truncation bounds below 1 and search caps below 0 are input errors.  A
seeded fuzzer mutates every bundled fixture document one JSON value at a
time and runs ``check`` and one ``construct`` per document kind on it
in-process.
"""

import contextlib
import copy
import io
import json
import random

import pytest

from diacat import documents, fixtures
from diacat.cli import main

SEED = 20261018
MUTATIONS = 60

# values swapped into a document; small, so no mutation asks for a big build
POOL = (0, 1, -1, 2, 3, 5, 1.5, True, None, "", "0", "1", "-1", "1/2", "1/0",
        "x", "Fp", "Q", "dias", "lb", "as", "lie", [], {}, [0], [[0, 0, 0, 1]])

# one construction per document kind, for algebras chosen by flavor; the
# quotients and semidirect products run through the induced-structure code
CONSTRUCT = {"dias": "AS", "lb": "Liel", "as": "Liea", "lie": "I1'",
             "xmod": "semidirect"}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["construct", "Ud", "leibniz-ff-e-f2", "--trunc", "0"],
    ["construct", "XUd", "xlb-zero-ff-e-f2", "--trunc", "-1"],
    ["verify", "square:LbDias-XUd-J0", "--trunc", "0"],
], ids=" ".join)
def test_truncation_below_one_is_an_input_error(argv):
    rc, out, err = _run(argv)
    assert (rc, out) == (2, ""), err


@pytest.mark.parametrize("argv", [
    ["verify", "adjunction:ud", "--cap", "-1"],
    ["verify", "square:LbDias-XUd-J0", "--cap", "-1"],
], ids=" ".join)
def test_cap_below_zero_is_an_input_error(argv):
    rc, out, err = _run(argv)
    assert (rc, out) == (2, ""), err
    assert "must be at least 0" in err


def test_cap_zero_refuses_every_search():
    rc, out, err = _run(["verify", "adjunction:ud", "--cap", "0"])
    assert (rc, out) == (3, ""), err


def _paths(node, prefix=()):
    """The path of every value below ``node``, containers included."""
    if isinstance(node, dict):
        items = sorted(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(rng, doc):
    """Swap one value for one from the pool, or delete a key or a list
    element."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.25:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(rng.choice(POOL))
    return doc


def test_mutated_documents_keep_the_exit_code_contract(tmp_path):
    path = tmp_path / "doc.json"
    seen = set()
    for name in fixtures.names():
        original = fixtures.document(name)
        kind = documents.document_kind(original)
        construct = CONSTRUCT["xmod" if kind == "xmod"
                              else original["flavor"]]
        rng = random.Random(f"{SEED}:{name}")
        for trial in range(MUTATIONS):
            doc = _mutate(rng, original)
            path.write_text(json.dumps(doc))
            for argv in (["check", str(path)],
                         ["construct", construct, str(path)]):
                try:
                    rc, out, err = _run(argv)
                except Exception as exc:  # noqa: BLE001 - the contract
                    pytest.fail(f"{name} #{trial} {argv[:2]}: {exc!r}\n{doc}")
                where = (name, trial, argv[:2], rc, err, doc)
                assert rc in (0, 1, 2, 3), where
                if rc in (2, 3):
                    assert out == "", where
                if argv[0] == "check" and rc in (0, 1):
                    assert out, where
                    report = json.loads(out)
                    failing = [it for it in report["items"]
                               if not it["passed"]]
                    assert bool(failing) == (rc == 1), where
                seen.add((argv[0], rc))
    # the mutations reach accepted, rejected and failing documents alike
    assert {("check", 0), ("check", 1), ("check", 2)} <= seen, seen
