"""The benchmark's tracer wraps diacat functions by name; keep them there.

``perfbench/tracer.py`` lists ``(module, qualname, group)`` spans and
rebinds each one at install time.  A rename or deletion in ``src`` would
otherwise only surface as a broken ``--trace 1`` run.  The list is read
from the tracer's source, without importing it.
"""

import ast
import importlib
from pathlib import Path

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
