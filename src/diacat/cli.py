"""Command-line surface: check documents, run constructions, verify
diagrams and adjunctions, and emit the bundled fixture corpus.

Exit codes are a stable contract: 0 pass, 1 mathematical failure,
2 input error, 3 resource cap exceeded.  Machine-readable JSON goes to
stdout with sorted keys; human commentary goes to stderr.

Every job compiles the modules it loads, so this module holds only
argument parsing, ``check``, ``fixtures``, output and exit codes, and the
other handlers import what they run:

- ``check`` loads ``documents``, ``algebra``, ``fields``, ``config`` and
  ``errors``; a crossed-module document adds ``actions`` and ``linalg``.
  Only rational documents load ``fractions``.
- ``construct`` adds ``tags`` (``tags.construct`` and the construction
  table), ``fixtures``, ``linalg`` and what its kind builds: ``envelope``
  for an envelope tag and ``lifts`` for a crossed-module lift, not
  ``functors``.
- ``verify`` adds ``batteries``, the battery table, with ``fixtures``,
  and only what its battery runs: ``functors`` and ``tags`` for a square,
  an adjunction or the prism, ``equations`` for a hom search,
  ``envelope`` for an envelope, ``cat1`` for a crossed envelope or an
  ``equivalence`` battery, ``lifts`` for a crossed-module lift, and
  ``adjunctions`` for an ``adjunction`` battery.
- ``fixtures`` adds ``fixtures`` and ``linalg``.

No module imports this one: under ``python -m diacat.cli`` it is
``__main__``, and an import would compile it a second time.

``main`` runs a command line in-process and returns its exit code.
``run``, the entry point of ``python -m diacat.cli`` and of the ``diacat``
script, ends the process as soon as the output is flushed and the
``atexit`` handlers have run, without the interpreter's teardown.  Under
a profiler or trace hook or ``python -i``, after a failed flush, or when
``main`` raises, it exits the ordinary way.  Exit codes and output bytes
are the same on both paths.
"""

import argparse
import atexit
import json
import os
import sys

from . import documents
from .algebra import FLAVORS
from .errors import (DiacatError, ParseError, ResourceCapExceeded,
                     SearchSpaceTooLarge)

EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_CAP = 0, 1, 2, 3


def _err(msg):
    print(msg, file=sys.stderr)


def _emit_json(doc):
    sys.stdout.write(documents.canonical_json(doc))


def _write_or_print(doc, out_path):
    text = documents.canonical_json(doc)
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    doc = documents.load_document(args.path)
    if args.flavor_override:
        doc = dict(doc, flavor=args.flavor_override)
        if documents.document_kind(doc) == "xmod":
            # a part that is not an object is left for the reader to refuse
            for part in ("source", "target"):
                if isinstance(doc.get(part), dict):
                    doc[part] = dict(doc[part], flavor=args.flavor_override)
    kind = documents.document_kind(doc)
    if kind == "xmod":
        obj = documents.xmod_from_document(doc, check=False)
        dims = [obj.actee.dim, obj.actor.dim]
    else:
        obj = documents.algebra_from_document(doc, check=False)
        dims = [obj.dim]
    report = obj.check()
    out = {"kind": kind, "flavor": obj.flavor, "dims": dims,
           "passed": report.passed, "items": documents._report_items(report)}
    _emit_json(out)
    if args.verbose:
        for it in report.items:
            _err(f"{'PASS' if it.passed else 'FAIL'}  {it.name}"
                 + (f"  at {it.where}" if it.where is not None else ""))
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args) -> int:
    from .tags import construct
    doc = construct(args.kind, args.inputs, args.trunc)
    report = {"kind": args.kind, "output": documents.document_kind(doc)}
    if documents.document_kind(doc) == "xmod":
        report["dims"] = [doc["source"]["dim"], doc["target"]["dim"]]
    else:
        report["dims"] = [doc["dim"]]
    _write_or_print(doc, args.out)
    if args.out:
        _emit_json(report)
    elif args.verbose:
        _err(json.dumps(report, sort_keys=True))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from .batteries import run_battery
    results = run_battery(args)
    passed = all(r["passed"] for r in results)
    _emit_json({"what": args.what, "passed": passed, "results": results})
    if args.verbose:
        for r in results:
            _err(f"{'PASS' if r['passed'] else 'FAIL'}  {r['check']}  "
                 f"[{r['fixture']}]")
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# fixtures


def cmd_fixtures(args) -> int:
    from . import fixtures
    if args.action == "list":
        if args.name is not None or args.out is not None:
            raise ParseError("fixtures list takes no fixture name and no "
                             "--out")
        for name in fixtures.names():
            fx = fixtures.info(name)
            flag = "" if fx.valid else "  [invalid on purpose]"
            print(f"{name}  [{fx.kind}]  {fx.note}{flag}")
        return EXIT_PASS
    if not args.name:
        raise ParseError("fixtures emit requires a fixture name")
    try:
        doc = fixtures.document(args.name)
    except DiacatError as exc:
        raise ParseError(str(exc)) from exc
    _write_or_print(doc, args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point


def _at_least(minimum):
    """An argparse type: an integer of at least ``minimum``."""
    def parse(text) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def build_parser():
    """The top-level parser and its subcommands' parsers, by name."""
    p = argparse.ArgumentParser(
        prog="diacat",
        description="Exact checks and constructions for dialgebras, "
                    "Leibniz/associative/Lie algebras, crossed modules and "
                    "their functor diagrams.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate a document against its "
                                     "flavor's axioms")
    c.add_argument("path")
    c.add_argument("--flavor-override", choices=list(FLAVORS))
    c.add_argument("--verbose", action="store_true")
    c.set_defaults(func=cmd_check)

    k = sub.add_parser("construct", help="run a construction or functor and "
                                         "emit the result document")
    k.add_argument("kind")
    k.add_argument("inputs", nargs="*",
                   help="fixture names or document paths")
    k.add_argument("--trunc", type=_at_least(1), default=None,
                   help="nilpotency bound for enveloping constructions")
    k.add_argument("--out", help="write the document here instead of stdout")
    k.add_argument("--verbose", action="store_true")
    k.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="run a verification battery")
    v.add_argument("what")
    v.add_argument("fixtures", nargs="*",
                   help="fixture names or document paths; default: bundled "
                        "battery")
    v.add_argument("--trunc", type=_at_least(1), default=None)
    v.add_argument("--cap", type=_at_least(0), default=None,
                   help="override the search-space cap")
    v.add_argument("--verbose", action="store_true")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("fixtures", help="list or emit the bundled corpus")
    f.add_argument("action", choices=["list", "emit"])
    f.add_argument("name", nargs="?")
    f.add_argument("--out")
    f.set_defaults(func=cmd_fixtures)
    return p, sub.choices


def _parse(argv):
    """The arguments of a command line, whose inputs may follow its
    options.  The top-level parser reads only a known subcommand's name,
    since it cannot parse intermixed arguments past its subparsers, and
    that subcommand's parser reads the rest.  Any other line (help, or no
    or an unknown subcommand) goes to the top-level parser alone, which
    also reports what the subcommand's parser leaves over."""
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_intermixed_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except (ResourceCapExceeded, SearchSpaceTooLarge) as exc:
        _err(f"resource cap exceeded: {exc}")
        return EXIT_CAP
    except ParseError as exc:
        _err(f"input error: {exc}")
        return EXIT_INPUT
    except DiacatError as exc:
        _err(f"failure: {exc}")
        return EXIT_FAIL


def _watched():
    """Whether a profiler, a trace hook or an interactive prompt waits for
    the end of this process."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 on
    if monitoring is not None and any(  # its six tool ids
            monitoring.get_tool(i) is not None for i in range(6)):
        return True
    return bool(sys.flags.inspect)


def run(argv=None):
    """The process entry point: ``main``, then the ``atexit`` handlers,
    a flush of stdout and stderr, and ``os._exit``, which skips clearing
    and freeing every module, class and function.  The exit takes the
    ordinary ``sys.exit`` path when ``main`` raises, when a flush raises,
    and under a profiler, a trace hook or ``python -i``, so these behave
    as they would without ``run``."""
    code = main(argv)
    if _watched():
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # noqa: BLE001 - a closed pipe, or no stdout: the
        # ordinary exit handles it as it would without run
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
