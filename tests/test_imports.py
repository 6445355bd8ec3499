"""Every name a module of ``src/diacat`` imports is used in that module.

``__init__.py`` is exempt: its imports are the package's re-exports.

Each subcommand loads only the modules it runs: a fresh interpreter that
imports the command line, or checks one document, leaves the functor,
envelope and cat1 stack unloaded; one that constructs an envelope loads no
functor module, nor, for an algebra, the crossed-module stack.  No path
loads ``dataclasses``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diacat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


ROOT = SRC.parents[1]
SCANNED = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def _references(tree):
    """Names a module uses: loaded names, attributes, imported names, and the
    dotted parts of string constants (the benchmark's tracer names the
    functions it wraps in strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _definitions(path):
    return [node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_every_public_definition_is_referenced():
    used = set()
    for path in SCANNED:
        used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    dead = [(path.name, name) for path in MODULES for name in _definitions(path)
            if not name.startswith("_") and name not in used]
    assert dead == []


def test_every_private_definition_is_referenced_in_src():
    """A private module-level function or class is used by the package
    itself; tests and the benchmark may not keep one alive."""
    used = set()
    for path in SRC.glob("*.py"):
        used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    dead = [(path.name, name) for path in MODULES for name in _definitions(path)
            if name.startswith("_") and name not in used]
    assert dead == []


# id: (what the fresh interpreter runs, the fixture whose document DOC
# names, modules it must not load)
STACK = ["diacat.functors", "diacat.envelope", "diacat.cat1",
         "diacat.fixtures"]
CHECK = "from diacat.cli import main; main(['check', DOC])"
CONSTRUCT = ("from diacat.cli import main; "
             "assert main(['construct', {!r}, {}, '--trunc', '2']) == 0")
BUDGETS = {
    "import-cli": ("import diacat.cli", None,
                   STACK + ["diacat.actions", "dataclasses"]),
    "check-algebra": (CHECK, "leibniz-ff-e-f2",
                      STACK + ["diacat.actions", "diacat.audit",
                               "dataclasses"]),
    "check-xmod": (CHECK, "xlb-ideal-e-f2", STACK),
    "import-functors": ("import diacat.functors", None, ["dataclasses"]),
    "construct-ud": (CONSTRUCT.format("Ud", "DOC"), "leibniz-ff-e-f2",
                     ["diacat.functors", "diacat.cat1", "diacat.actions",
                      "diacat.audit"]),
    "construct-xud": (CONSTRUCT.format("XUd", "'xlb-ideal-e-f2'"), None,
                      ["diacat.functors"]),
}


@pytest.mark.parametrize("run", BUDGETS)
def test_fresh_interpreter_loads_only_what_it_runs(tmp_path, run):
    from diacat import fixtures
    code, fixture, banned = BUDGETS[run]
    doc = tmp_path / "doc.json"
    if fixture is not None:
        doc.write_text(json.dumps(fixtures.document(fixture)))
    loaded = tmp_path / "modules.json"
    script = (f"import json, sys\nDOC = {str(doc)!r}\n{code}\n"
              f"json.dump(sorted(sys.modules), open({str(loaded)!r}, 'w'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   capture_output=True)
    assert sorted(set(banned) & set(json.loads(loaded.read_text()))) == []
