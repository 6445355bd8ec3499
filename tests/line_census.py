"""List the statements of ``src/diacat`` that no run reached.

    python tests/line_census.py            # the lines of tests/cli_dump.py
    python tests/line_census.py --pytest   # those, then Tier-1

The runs happen in this process under ``sys.settrace`` (and
``threading.settrace``), which records the lines executed in frames whose
code lives in ``src/diacat``; the hook is set before anything imports
diacat, so module-level code counts too.  ``tests/cli_dump.py`` runs all of
its command lines with its stdout discarded.  With ``--pytest`` the Tier-1
suite then runs through ``pytest.main``; tests that measure time against a
budget can fail under the hook, and the census reports pytest's exit code
rather than skipping them.

A statement is what ``ast`` parses as one: a simple statement spans all of
its lines, a compound one (``if``, ``def``, ``except`` ...) its header
lines up to its first body statement.  Statements that compile to no code,
such as docstrings or ``global``, are left out.  A statement counts as
reached when one of its lines with code ran.  The report gives, per
module, the statements reached out of those counted, then each unreached
statement's first line with its line number.  The exit code is pytest's
with ``--pytest``, else 0.  Only the standard library is needed without
``--pytest``.  pytest does not collect this file.
"""

import argparse
import ast
import contextlib
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diacat"


def code_lines(code):
    """Every line that ``code`` or a code object nested in it compiles to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(tree):
    """(first line, own lines) of every statement and ``except`` clause:
    a compound statement owns its header, a simple one all its lines."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
            continue
        first = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = (max(first, body[0].lineno - 1) if body
                else node.end_lineno)
        yield first, range(first, last + 1)


def census(path, ran):
    """(counted statements, unreached first lines) of one source file."""
    source = path.read_text()
    compiled = code_lines(compile(source, str(path), "exec"))
    counted, unreached = 0, []
    for first, own in statements(ast.parse(source)):
        with_code = compiled.intersection(own)
        if not with_code:
            continue
        counted += 1
        if ran.isdisjoint(with_code):
            unreached.append(first)
    return counted, sorted(set(unreached))


def traced(run):
    """Call ``run()`` with every line of ``src/diacat`` that runs recorded;
    returns its result and {file name: set of line numbers}."""
    prefix = str(PACKAGE) + os.sep
    seen = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set())
        return local

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, seen


def run_cli_dump():
    script = ROOT / "tests" / "cli_dump.py"
    argv = sys.argv
    sys.argv = [str(script)]
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv


def run_both():
    run_cli_dump()
    import pytest
    return pytest.main(["-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors",
                        str(ROOT / "tests")])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pytest", action="store_true",
                        help="also run Tier-1 after tests/cli_dump.py")
    args = parser.parse_args()
    os.chdir(ROOT)
    code, seen = traced(run_both if args.pytest else run_cli_dump)
    total = reached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        counted, unreached = census(path, seen.get(str(path), set()))
        total += counted
        reached += counted - len(unreached)
        print(f"{path.name}: {counted - len(unreached)} of {counted} "
              f"statements reached")
        lines = path.read_text().splitlines()
        for first in unreached:
            print(f"  {first:5d}  {lines[first - 1].strip()}")
    print(f"total: {reached} of {total} statements reached")
    if args.pytest:
        print(f"pytest exit code: {int(code)}")
    sys.exit(int(code) if args.pytest else 0)


if __name__ == "__main__":
    main()
