"""The exit-code contract of the command line: 0 pass, 1 mathematical
failure, 2 input error, 3 resource cap, and nothing on stdout for 2 or 3.

Truncation bounds below 1 and search caps below 0 are input errors, and
so are ``--trunc`` on a construction or a battery that takes no bound and
a fixture name on a battery that runs fixed pairs; both lists of batteries
are read off the battery table.  The invalid fixture ``dias-not-assoc-1``
ends every command alike by name and by its document.  A
huge bound and an oversized document hit the dimension cap before
anything is allocated.  A seeded fuzzer mutates every bundled fixture document one
JSON value at a time and runs ``check``, ``check`` under one
``--flavor-override`` drawn from the same seed, and one ``construct`` per
document kind on it in-process.  A crossed-module document whose source
or target is not an object, and a JSON boolean in place of any integer of
a bundled document, are input errors.  A Hypothesis strategy also draws whole documents (field,
flavor, dims, sparse tensors, ``mu`` and action slots, each sometimes out
of range or of another flavor) and runs ``check`` on them.  Another draws
``verify`` and ``construct`` command lines over the bundled fixtures.
A fresh ``python -m diacat.cli`` gives the exit code, stdout and stderr
of ``main`` in-process; ``cli.run`` skips the interpreter's teardown
but not the ``atexit`` handlers, and leaves profilers, trace hooks,
``python -i`` and a closed stdout pipe to the ordinary exit.
"""

import contextlib
import copy
import errno
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from diacat import documents, fixtures
from diacat.actions import XmodMorphism, action_slots
from diacat.algebra import FLAVORS, AxiomReport
from diacat.batteries import _BATTERIES, _battery, _Named
from diacat.cli import main
from diacat.functors import square_ids
from diacat.tags import _CONSTRUCTIONS, FUNCTOR_TAGS, category

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


# a document whose bytes are not UTF-8, and one nested deeper than the JSON
# reader goes
UNREADABLE = {"not-utf8": b"\xff\xfe", "deep": b"[" * 100000}


@pytest.mark.parametrize("argv", [
    ["check", "not-utf8"],
    ["check", "deep"],
    ["construct", "Ud", "deep", "--trunc", "2"],
], ids=" ".join)
def test_unreadable_document_is_an_input_error(tmp_path, argv):
    for name, data in UNREADABLE.items():
        (tmp_path / name).write_bytes(data)
    rc, out, err = _run([str(tmp_path / a) if a in UNREADABLE else a
                         for a in argv])
    assert (rc, out) == (2, ""), err
    assert err.startswith("input error:"), err


@pytest.mark.parametrize("argv", [
    ["construct", "Ud", "leibniz-ff-e-f2", "--trunc", "2", "--out",
     "missing/x.json"],
    ["fixtures", "emit", "leibniz-ff-e-f2", "--out", "."],
], ids=" ".join)
def test_unwritable_out_is_an_input_error(tmp_path, argv):
    # a file in a directory that does not exist, and a directory
    rc, out, err = _run([str(tmp_path / a) if a in ("missing/x.json", ".")
                         else a for a in argv])
    assert (rc, out) == (2, ""), err
    assert err.startswith("input error: cannot write"), err


@pytest.mark.parametrize("argv", [
    ["fixtures", "list", "leibniz-ff-e-f2"],
    ["fixtures", "list", "--out", "list.txt"],
], ids=" ".join)
def test_fixtures_list_takes_no_name_and_no_out(tmp_path, argv):
    # the list goes to stdout only; before, both lines printed it and
    # exited 0, and --out wrote nothing
    rc, out, err = _run([str(tmp_path / a) if a == "list.txt" else a
                         for a in argv])
    assert (rc, out) == (2, ""), err
    assert err.startswith("input error: fixtures list takes no"), err
    assert not (tmp_path / "list.txt").exists()


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_run(argv, python=("-m", "diacat.cli"), stdout=subprocess.PIPE,
               **environ):
    """``diacat argv`` in a fresh interpreter with a timeout, so a command
    that would hang fails instead; ``python`` replaces ``-m diacat.cli``.
    ``environ`` sets variables of the child's environment, and removes
    those given as None."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("DIACAT_MAX_DIM", None)
    for key, value in environ.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, *python, *argv],
                          stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=10)


def _two_step_dias(n=32, m=10):
    """A dialgebra over F3 on x_0..x_{n-1}, z_0..z_{m-1} whose products of
    two x's are z's and whose other products are zero.  Its leibnization
    is a document larger than a pipe buffer."""
    return {"field": "Fp", "p": 3, "flavor": "dias", "dim": n + m,
            "left": [[i, j, n + (i + j) % m, "1"]
                     for i in range(n) for j in range(n)],
            "right": [[i, j, n + i * j % m, "2"]
                      for i in range(n) for j in range(n)]}


@pytest.fixture
def docs(tmp_path, monkeypatch):
    """Paths of a valid and a perturbed crossed-module document, of a
    malformed algebra document and of ``_two_step_dias``."""
    monkeypatch.delenv("DIACAT_MAX_DIM", raising=False)
    valid = fixtures.document("xlb-ideal-e-f2")
    perturbed = copy.deepcopy(valid)
    perturbed["mu"][1] = ["1"]  # mu(e0) = e + f
    malformed = dict(fixtures.document("leibniz-ff-e-f2"), p=4)
    paths = {}
    for name, doc in (("valid", valid), ("perturbed", perturbed),
                      ("malformed", malformed), ("big", _two_step_dias())):
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


def test_a_fresh_process_ends_as_main_returns(docs):
    """The exit code, stdout and stderr of ``python -m diacat.cli`` are
    those of ``main`` in-process on lines that exit 0, 1, 2 and 3: a valid
    and a perturbed ``check``, a malformed document, a usage error, a
    truncation over the dimension cap, a ``verify`` battery of each kind
    and a ``construct`` beside the functor tags, whose handlers live
    outside ``cli``, ``fixtures list``, and last a ``construct`` whose
    stdout is larger than a pipe buffer."""
    codes = set()
    for argv in (["check", docs["valid"]], ["check", docs["perturbed"]],
                 ["check", docs["malformed"]], ["construct", "Ud", "--bogus"],
                 ["construct", "Ud", "leibniz-ff-e-f2", "--trunc", "6"],
                 ["verify", "square:LieLb-I0"],
                 ["verify", "adjunction:chain:0"],
                 ["construct", "semidirect", "xlb-ideal-e-f2"],
                 ["fixtures", "list"],
                 ["construct", "LB", docs["big"]]):
        run = _fresh_run(argv)
        assert (run.returncode, run.stdout, run.stderr) == _run(argv), argv
        codes.add(run.returncode)
    assert codes == {0, 1, 2, 3}
    assert len(run.stdout) > 2 ** 16


def test_out_file_is_the_stdout_document(docs, tmp_path):
    argv = ["construct", "LB", docs["big"]]
    out = tmp_path / "out.json"
    printed = _fresh_run(argv)
    written = _fresh_run(argv + ["--out", str(out)])
    assert (printed.returncode, written.returncode) == (0, 0)
    assert out.read_bytes() == printed.stdout.encode()
    assert json.loads(written.stdout)["output"] == "algebra"


# a fresh interpreter that registers an atexit handler, keeps an object
# whose finalizer reports the interpreter's teardown, sets the hook it is
# given, and ends through cli.run
RUN_WITH_MARKERS = """\
import atexit, os, sys
atexit.register(print, "atexit handler ran", file=sys.stderr)
class Marker:
    def __del__(self, write=os.write):
        write(2, b"torn down\\n")
marker = Marker()
{hook}
from diacat import cli
cli.run(sys.argv[1:])
"""


@pytest.mark.parametrize("hook, teardown", [
    ("", ""),
    ("sys.setprofile(lambda *args: None)", "torn down\n"),
    ("sys.settrace(lambda *args: None)", "torn down\n"),
], ids=["no hook", "profile hook", "trace hook"])
def test_run_skips_the_teardown_unless_a_hook_is_set(docs, hook, teardown):
    """``cli.run`` runs the atexit handlers once and ends with main's exit
    code and output; the interpreter tears down only under a hook."""
    for argv in (["check", docs["valid"]], ["check", docs["perturbed"]]):
        run = _fresh_run(argv, python=("-c", RUN_WITH_MARKERS.format(
            hook=hook)))
        rc, out, err = _run(argv)
        assert (run.returncode, run.stdout) == (rc, out), argv
        assert run.stderr == err + "atexit handler ran\n" + teardown, argv


def test_run_leaves_the_interactive_prompt_to_python_i(docs):
    argv = ["check", docs["valid"]]
    run = _fresh_run(argv, python=("-i", "-c", RUN_WITH_MARKERS.format(
        hook="")))
    assert run.stdout == _run(argv)[1]
    assert ">>> " in run.stderr, run.stderr
    assert run.stderr.endswith("torn down\n"), run.stderr


def test_a_profiler_still_prints_its_table(docs):
    argv = ["check", docs["valid"]]
    run = _fresh_run(argv, python=("-m", "cProfile", "-m", "diacat.cli"))
    rc, out, err = _run(argv)
    assert (run.returncode, run.stderr) == (rc, err)
    assert run.stdout.startswith(out)
    table = run.stdout[len(out):]
    assert "function calls" in table and "Ordered by" in table, table


BROKEN_PIPE = f"BrokenPipeError: [Errno {errno.EPIPE}] " \
              f"{os.strerror(errno.EPIPE)}"


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_a_closed_pipe_ends_the_process_as_before(docs, unbuffered):
    """Buffered output fails in the flush at exit, which Python reports
    as ignored with exit 120; unbuffered output fails in the write, with
    a traceback and exit 1."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = _fresh_run(["check", docs["valid"]], stdout=write_end,
                         PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert run.stderr.splitlines()[-1] == BROKEN_PIPE, run.stderr
    if unbuffered:
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("Traceback"), run.stderr
        assert "in _emit_json" in run.stderr, run.stderr
    else:
        assert run.returncode == 120, run.stderr
        assert run.stderr.startswith("Exception ignored in"), run.stderr


@pytest.mark.parametrize("trunc, dim", [
    ("6", "642"), ("20000", "at least 642"), ("1000000", "at least 642"),
])
def test_huge_truncation_hits_the_cap_at_once(trunc, dim):
    # a bound whose word count is summed, or printed, in full must not hang
    run = _fresh_run(["construct", "Ud", "leibniz-ff-e-f2", "--trunc", trunc])
    assert (run.returncode, run.stdout) == (3, ""), run.stderr
    assert run.stderr == (f"resource cap exceeded: ambient dimension {dim} "
                          "over F2 exceeds cap 512 (set DIACAT_MAX_DIM to "
                          "raise it)\n")


def _failing_check(self):
    report = AxiomReport("forced crossed-module morphism")
    report.add("forced to fail", False, None)
    return report


# XAS certifies its projection pair; with that certificate forced to fail
FAILED_PROJECTIONS = ("failure: the projection pair is not a crossed-module "
                      "morphism: forced to fail at None\n")


def test_a_failed_certificate_exits_1_in_process(monkeypatch):
    monkeypatch.setattr(XmodMorphism, "check", _failing_check)
    rc, out, err = _run(["construct", "XAS", "xdias-ideal-incl-f2"])
    assert (rc, out, err) == (1, "", FAILED_PROJECTIONS)


def test_a_failed_certificate_exits_1_under_python_O():
    # a certificate is an error raised, not an assert that -O strips
    code = "\n".join([
        "import sys",
        "from diacat import cli",
        "from diacat.actions import XmodMorphism",
        "from diacat.algebra import AxiomReport",
        "report = AxiomReport('forced crossed-module morphism')",
        "report.add('forced to fail', False, None)",
        "XmodMorphism.check = lambda self: report",
        "sys.exit(cli.main(sys.argv[1:]))"])
    run = _fresh_run(["construct", "XAS", "xdias-ideal-incl-f2"],
                     python=("-O", "-c", code))
    assert (run.returncode, run.stdout, run.stderr) == (
        1, "", FAILED_PROJECTIONS)


@pytest.mark.parametrize("p, rc", [
    (2 ** 61 - 1, 0), (3317044064679887385961813, 0), (2 ** 61 + 1, 2),
    (3317044064679887385961981, 2), (2 ** 89 - 1, 2),
])
def test_large_prime_moduli_are_decided_at_once(tmp_path, p, rc):
    """Primes up to the largest below the bound where Miller-Rabin on the
    first thirteen prime bases is exact are accepted; composites, and
    every modulus from that bound on, are input errors."""
    path = tmp_path / "big-p.json"
    path.write_text(json.dumps({"field": "Fp", "p": p, "flavor": "lb",
                                "dim": 1, "bracket": []}))
    run = _fresh_run(["check", str(path)])
    assert run.returncode == rc, run.stderr
    assert bool(run.stdout) == (rc == 0), run.stderr


def test_oversized_document_is_refused_before_its_tables(tmp_path,
                                                         monkeypatch):
    monkeypatch.delenv("DIACAT_MAX_DIM", raising=False)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": "Fp", "p": 2, "flavor": "lb",
                                "dim": 1200}))
    tracemalloc.start()
    try:
        rc, out, err = _run(["check", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (3, ""), err
    assert peak < 2 ** 20, peak


@pytest.mark.parametrize("argv", [
    ["construct", "LB", "free-dias-1-2-f2", "--trunc", "7"],
    ["construct", "semidirect", "xlb-ideal-e-f2", "--trunc", "7"],
], ids=" ".join)
def test_truncation_of_an_untruncated_kind_is_an_input_error(argv):
    rc, out, err = _run(argv)
    assert (rc, out) == (2, ""), err
    assert err == f"input error: construct {argv[1]} takes no --trunc\n"


BATTERIES = [f"square:{sq}" for sq in square_ids()] + list(_BATTERIES)
# the batteries that take no --trunc, and those that run fixed pairs
UNTRUNCATED = [what for what in BATTERIES if not _battery(what).trunc]
FIXED_PAIRS = [what for what in BATTERIES
               if not isinstance(_battery(what).inputs, _Named)]


@pytest.mark.parametrize("argv, message", [
    *[pytest.param(["verify", what, "--trunc", "2"],
                   f"verify {what} takes no --trunc",
                   id=f"verify {what} --trunc 2") for what in UNTRUNCATED],
    *[pytest.param(["verify", what, name],
                   f"{what} runs its bundled pairs and takes no fixture names",
                   id=f"verify {what} {name}") for what in FIXED_PAIRS
      for name in ("leibniz-ff-e-f2", "no-such-fixture")],
])
def test_truncation_of_an_untruncated_battery_is_an_input_error(argv,
                                                                message):
    # and so is a fixture name on a battery that runs fixed pairs
    rc, out, err = _run(argv)
    assert (rc, out) == (2, ""), err
    assert err == f"input error: {message}\n"


def test_an_invalid_fixture_named_is_certified_as_its_document(tmp_path):
    """Every construct kind and every verify battery ends alike on the
    invalid fixture dias-not-assoc-1, by name and by its emitted document:
    the same exit code and stdout, and the same stderr but for the input."""
    name = "dias-not-assoc-1"
    path = str(tmp_path / f"{name}.json")
    assert _run(["fixtures", "emit", name, "--out", path])[0] == 0
    lines = [(["construct", kind], ["--trunc", "2"] if getattr(
        FUNCTOR_TAGS.get(kind), "truncated", False) else []) for kind in KINDS]
    lines += [(["verify", what], []) for what in BATTERIES]
    for head, options in lines:
        rc, out, err = _run(head + [path] + options)
        assert _run(head + [name] + options) == (
            rc, out, err.replace(path, name)), head


def test_inputs_may_follow_options():
    """An input after an option is read as if it came first: every
    construct kind that takes a bound, on two fixtures, and every battery
    on a named crossed module with a cap give the same exit code, stdout
    and stderr in both orders.  An input after an option used to be
    refused as an unrecognized argument, with exit 2; an option the
    subcommand does not know still is."""
    lines = [(["construct", kind, "--trunc", "2"], [name])
             for kind in KINDS
             if getattr(FUNCTOR_TAGS.get(kind), "truncated", False)
             for name in ("leibniz-ff-e-f2", "xlb-ideal-e-f2")]
    lines += [(["verify", what, "--cap", "40"], ["xlb-ideal-e-f2"])
              for what in BATTERIES]
    seen = set()
    for head, inputs in lines:
        first = head[:2] + inputs + head[2:]
        rc, out, err = _run(head + inputs)
        assert _run(first) == (rc, out, err), first
        seen.add(rc)
    assert {0, 2} <= seen, seen
    rc, out, err = _run(["construct", "Ud", "--trunc", "2", "--bogus",
                         "leibniz-ff-e-f2"])
    assert (rc, out) == (2, "")
    assert "error: unrecognized arguments: --bogus" in err, err


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
            override = rng.choice(sorted(FLAVORS))
            path.write_text(json.dumps(doc))
            for argv in (["check", str(path)],
                         ["check", str(path), "--flavor-override", override],
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


@pytest.mark.parametrize("part", ["source", "target"])
@pytest.mark.parametrize("value", ["missing", None, [0], "x", 1, []],
                         ids=repr)
def test_flavor_override_on_a_part_that_is_not_an_object(tmp_path, part,
                                                          value):
    """Under every override, a crossed-module document whose source or
    target is missing or not an object is an input error, as without one."""
    doc = fixtures.document("xlb-ideal-e-f2")
    if value == "missing":
        del doc[part]
    else:
        doc[part] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for override in [None, *sorted(FLAVORS)]:
        argv = ["check", str(path)]
        if override:
            argv += ["--flavor-override", override]
        rc, out, err = _run(argv)
        assert (rc, out) == (2, ""), (argv, err)
        assert err.startswith("input error: "), (argv, err)


def _integer_paths(node, prefix=()):
    """The path of every integer below ``node``."""
    for path in _paths(node, prefix):
        value = node
        for key in path:
            value = value[key]
        if type(value) is int:
            yield path


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_a_boolean_where_an_integer_belongs_is_an_input_error(tmp_path):
    """Every integer of every bundled document (a modulus, a dimension or
    a triple index), replaced by a JSON boolean, makes ``check`` exit 2
    with nothing on stdout: a boolean is not read as 0 or 1."""
    path = tmp_path / "doc.json"
    ran = 0
    for name in fixtures.names():
        original = fixtures.document(name)
        for where in _integer_paths(original):
            for flag in (True, False):
                path.write_text(json.dumps(_replaced(original, where, flag)))
                rc, out, err = _run(["check", str(path)])
                assert (rc, out) == (2, ""), (name, where, flag, err)
                ran += 1
    assert ran > 100, ran


@pytest.mark.parametrize("name, where, value, message", [
    ("leibniz-ff-e-f2", ("p",), True, "field Fp needs an integer key 'p'"),
    ("leibniz-ff-e-f2", ("dim",), True,
     "'dim' must be a non-negative integer"),
    ("leibniz-ff-e-f2", ("bracket", 0, 1), True,
     "products.bracket[0]: indices must be integers"),
    ("leibniz-ff-e-f2", ("bracket", 0, 3), True,
     "products.bracket[0]: coefficient must be a string or integer"),
    ("xlb-ideal-e-f2", ("source", "dim"), True,
     "'dim' must be a non-negative integer"),
    ("xlb-ideal-e-f2", ("mu", 0, 0), True,
     "mu[0][0]: coefficient must be a string or integer"),
    ("xlb-ideal-e-f2", ("action", "gq"), [[True, 0, 0, "1"]],
     "action.gq[0]: indices must be integers"),
    ("xlb-ideal-e-f2", ("action", "gq"), [[0, 0, 0, True]],
     "action.gq[0]: coefficient must be a string or integer"),
], ids=str)
def test_a_boolean_is_refused_with_its_path(tmp_path, name, where, value,
                                            message):
    doc = _replaced(fixtures.document(name), where, value)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc, out, err = _run(["check", str(path)])
    assert (rc, out, err) == (2, "", f"input error: {message}\n")


GOOD_FIELDS = ({"field": "Fp", "p": 2}, {"field": "Fp", "p": 3},
               {"field": "Fp", "p": 5}, {"field": "Q"})
BAD_FIELDS = ({"field": "Fp", "p": 4}, {"field": "Fp"}, {"field": "R"})
GOOD_COEFFS = st.one_of(st.integers(-3, 3),
                        st.sampled_from(["0", "1", "-1", "2", "1/2"]))
BAD_COEFFS = st.sampled_from(["1/0", "x", 1.5, None])


@st.composite
def _whole_documents(draw):
    """A whole algebra or crossed-module document.  Half of them are well
    formed; in the other half any part may be malformed: the field, a
    coefficient, an index one past its range, the action slots of another
    flavor."""
    bad = draw(st.booleans())
    field = draw(st.sampled_from(GOOD_FIELDS + (BAD_FIELDS if bad else ())))
    flavor = draw(st.sampled_from(sorted(FLAVORS)))
    coeffs = st.one_of(GOOD_COEFFS, BAD_COEFFS) if bad else GOOD_COEFFS

    def triples(left, right, out):
        if not bad and 0 in (left, right, out):
            return []
        return draw(st.lists(st.tuples(
            *(st.integers(0, n - 1 + bad) for n in (left, right, out)),
            coeffs).map(list), max_size=4))

    def algebra():
        dim = draw(st.integers(0, 3))
        doc = dict(field, flavor=flavor, dim=dim)
        for p in FLAVORS[flavor]:
            doc[p.key] = triples(dim, dim, dim)
        return doc

    if draw(st.booleans()):
        return algebra()
    source, target = algebra(), algebra()
    m, n = source["dim"], target["dim"]
    slots = action_slots(draw(st.sampled_from(sorted(FLAVORS))) if bad
                         else flavor)
    shapes = {"DL": (n, m, m), "LD": (m, n, m)}
    return {"flavor": flavor, "source": source, "target": target,
            "mu": draw(st.lists(st.lists(coeffs, min_size=m, max_size=m),
                                min_size=n, max_size=n)),
            "action": {name: triples(*shapes[side])
                       for name, _, side in slots if draw(st.booleans())}}


def test_whole_generated_documents_keep_the_exit_code_contract(tmp_path):
    path = tmp_path / "doc.json"
    seen = set()

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_whole_documents())
    def check(doc):
        path.write_text(json.dumps(doc))
        try:
            rc, out, err = _run(["check", str(path)])
        except Exception as exc:  # noqa: BLE001 - the contract
            pytest.fail(f"{exc!r}\n{doc}")
        assert rc in (0, 1, 2), (rc, err, doc)
        assert "Traceback" not in err, (err, doc)
        if rc == 2:
            assert out == "", (err, doc)
        seen.add((documents.document_kind(doc), rc))

    check()
    # whole documents reach every outcome, for both kinds
    assert seen == {(kind, rc) for kind in ("algebra", "xmod")
                    for rc in (0, 1, 2)}, seen


KINDS = sorted(FUNCTOR_TAGS) + list(_CONSTRUCTIONS)


@st.composite
def _command_lines(draw):
    """A ``verify`` or ``construct`` command line: a battery or a kind,
    sometimes an unknown one; fixture names, sometimes none, two or one
    that does not exist; ``--trunc`` and ``--cap`` mostly in range, some
    just below it.  ``construct`` mostly gets a tag whose source category
    fits its one fixture.  ``--trunc`` stays at most 3, where the bundled
    envelopes are cheap; it comes with most lines of the batteries and
    kinds that take a bound, and with one in ten lines of those that
    refuse it."""
    names = st.sampled_from(fixtures.names() + ["no-such-fixture"])
    if draw(st.booleans()):
        argv = ["verify", draw(st.sampled_from(
            BATTERIES + ["square:no-such-square", "adjunction:chain:2"]))]
        argv += [draw(names) for _ in range(draw(st.sampled_from(
            [0, 0, 1, 1, 2])))]
        cap = draw(st.sampled_from([None, None, -1, 0, 1, 64, 4096]))
        if cap is not None:
            argv += ["--cap", str(cap)]
    else:
        inputs = [draw(names) for _ in range(draw(st.sampled_from(
            [1, 1, 1, 1, 0, 2])))]
        kinds = KINDS + ["no-such-kind"]
        if len(inputs) == 1 and inputs[0] in fixtures.names() \
                and draw(st.integers(0, 3)):
            source = category(fixtures.get(inputs[0]))
            kinds = [tag for tag, fn in sorted(FUNCTOR_TAGS.items())
                     if fn.source == source]
        argv = ["construct", draw(st.sampled_from(kinds))] + inputs
    if argv[0] == "verify":
        takes_bound = argv[1] not in UNTRUNCATED
    else:
        takes_bound = getattr(FUNCTOR_TAGS.get(argv[1]), "truncated", False)
    if takes_bound:
        trunc = draw(st.sampled_from([None, 1, 2, 3, None, 1, 2, 3, -1, 0]))
    else:
        trunc = draw(st.sampled_from([None] * 9 + [2]))
    if trunc is not None:
        argv += ["--trunc", str(trunc)]
    return argv


def test_generated_command_lines_keep_the_exit_code_contract():
    seen = set()

    @settings(max_examples=100, derandomize=True, database=None,
              deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_command_lines())
    # one line for each outcome the assertions below need, so that they do
    # not rest on what the derandomized draws happen to reach
    @example(["verify", "adjunction:ud"])
    @example(["verify", "square:no-such-square"])
    @example(["verify", "adjunction:chain:0", "--cap", "1"])
    @example(["construct", "LB", "dias-not-assoc-1"])
    @example(["construct", "Ud", "leibniz-ff-e-f2", "--trunc", "2"])
    @example(["construct", "no-such-kind", "leibniz-ff-e-f2"])
    def check(argv):
        try:
            rc, out, err = _run(argv)
        except Exception as exc:  # noqa: BLE001 - the contract
            pytest.fail(f"{exc!r}\n{argv}")
        assert rc in (0, 1, 2, 3), (rc, err, argv)
        assert "Traceback" not in err, (err, argv)
        if rc in (2, 3):
            assert out == "", (err, argv)
        if argv[0] == "verify" and out:
            assert json.loads(out)["passed"] == (rc == 0), (err, argv)
        seen.add((argv[0], rc))

    check()
    # the drawn command lines pass, fail, refuse input and hit the cap
    assert {rc for _, rc in seen} == {0, 1, 2, 3}, seen
    assert {("verify", 0), ("verify", 2), ("verify", 3), ("construct", 0),
            ("construct", 2)} <= seen, seen
