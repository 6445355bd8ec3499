"""The benchmark's tracer wraps diacat functions by name; keep them there.

``perfbench/tracer.py`` lists ``(module, qualname, group)`` spans and
rebinds each one at install time.  A rename or deletion in ``src`` would
otherwise only surface as a broken ``--trace 1`` run.  The list is read
from the tracer's source, without importing it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _literal(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_every_traced_span_resolves():
    spans = _literal("SPANS")
    assert spans
    for modname, qualname, _group in spans:
        mod = importlib.import_module(f"diacat.{modname}")
        if "." in qualname:
            # methods are wrapped through the class's own __dict__
            clsname, meth = qualname.split(".")
            assert meth in vars(getattr(mod, clsname)), (modname, qualname)
        else:
            assert callable(getattr(mod, qualname, None)), (modname, qualname)


def test_whole_traced_modules_import():
    for modname in _literal("WHOLE_MODULES"):
        importlib.import_module(f"diacat.{modname}")


# builds one certified algebra and one certified crossed module per flavor
# under the installed tracer and prints the names of the recorded spans
_TRACED_BUILD = """
import json
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
from diacat.actions import CrossedModule, self_action
from diacat.algebra import (AlgebraMorphism, BilinearMap, make_algebra,
                            product_arity)
from diacat.fields import GF
for flavor in ("dias", "lb", "as", "lie"):
    zero = BilinearMap.zero(GF(2), 2)
    alg = make_algebra(flavor, GF(2), [zero] * product_arity(flavor))
    CrossedModule(AlgebraMorphism.identity(alg), self_action(alg))
print(json.dumps(sorted({span[3] for span in tracer.spans})))
"""


def test_every_checker_is_traced():
    # the tracer reaches module-level names and dict entries only; a checker
    # called some other way would drop out of the triple counters silently
    root = TRACER.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    run = subprocess.run([sys.executable, "-c", _TRACED_BUILD], env=env,
                         capture_output=True, text=True, check=True)
    names = set(json.loads(run.stdout))
    checkers = [f"{mod}.{name}" for mod, name, group in _literal("SPANS")
                if group in ("algebra.check", "actions.check")
                and name.startswith("check_")]
    assert len(checkers) == 8
    assert not set(checkers) - names, sorted(set(checkers) - names)


# hom-scan's worker runs an untraced pass, which loads the search module,
# before it installs the tracer; the search must still reach the traced
# linalg.inverse, which fixes the determined column of the Heisenberg
# algebra's endomorphisms
_SEARCH_THEN_TRACE = """
import json
from diacat import functors
from diacat.algebra import BilinearMap, make_algebra
from diacat.fields import GF
f = GF(3)
h = make_algebra("lie", f, [BilinearMap.from_triples(
    f, 3, 3, 3, [(0, 1, 2, 1), (1, 0, 2, 2)])])
functors.enumerate_homs(h, h)
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
functors.enumerate_homs(h, h)
print(json.dumps(sorted({span[3] for span in tracer.spans})))
"""


def test_a_search_loaded_before_the_tracer_is_traced():
    root = TRACER.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    run = subprocess.run([sys.executable, "-c", _SEARCH_THEN_TRACE], env=env,
                         capture_output=True, text=True, check=True)
    names = set(json.loads(run.stdout))
    assert {"functors.enumerate_homs", "linalg.inverse"} <= names, names


# one job of each kind: (command line, spans it must record); DOC is the
# path of an lb document
TRACED_JOBS = {
    "verify": (["verify", "square:LieLb-I1"], ["functors.check_square"]),
    # the adjunction, cat1, envelope and search stacks load when a
    # battery first runs them; the calls made from them are traced too
    "adjunction:xud": (["verify", "adjunction:xud"],
                       ["functors.verify_adjunction_xud", "envelope.xud_full",
                        "cat1.cat1_of_xmod", "functors.enumerate_homs"]),
    "adjunction:chain:0": (["verify", "adjunction:chain:0"],
                           ["functors.verify_adjunction_chain",
                            "functors.enumerate_homs"]),
    "equivalence:internal": (["verify", "equivalence:internal"],
                             ["cat1.xdias_to_internal"]),
    "construct": (["construct", "Ud", "leibniz-ff-e-f2", "--trunc", "2"],
                  ["envelope.ud"]),
    # the crossed envelope imports actions and cat1 when it runs
    "construct-xud": (["construct", "XUd", "xlb-ideal-e-f2", "--trunc", "2"],
                      ["envelope.xud_full", "cat1.cat1_of_xmod",
                       "actions.lemma_crossed_checks"]),
    "check": (["check", "DOC"], ["algebra.check_leibniz",
                                 "documents.loads_document"]),
}


@pytest.mark.parametrize("job", TRACED_JOBS)
def test_tracer_wraps_what_each_subcommand_imports(tmp_path, job):
    # the command line imports its modules inside each handler; the spans
    # show that every handler calls the functions install rebound
    from diacat import fixtures
    argv, expected = TRACED_JOBS[job]
    doc = tmp_path / "lb.json"
    doc.write_text(json.dumps(fixtures.document("leibniz-ff-e-f2")))
    argv = [str(doc) if a == "DOC" else a for a in argv]
    out = tmp_path / "trace.json"
    root = TRACER.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, str(TRACER), str(out), "1", "--", *argv],
                   env=env, capture_output=True, check=True)
    names = {span[3] for span in json.loads(out.read_text())["spans"]}
    assert not set(expected) - names, sorted(names)
