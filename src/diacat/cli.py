"""Command-line surface: check documents, run constructions, verify
diagrams and adjunctions, and emit the bundled fixture corpus.

Exit codes are a stable contract: 0 pass, 1 mathematical failure,
2 input error, 3 resource cap exceeded.  Machine-readable JSON goes to
stdout with sorted keys; human commentary goes to stderr.

Handlers import what they run, so ``check`` never loads the functor,
envelope and cat1 modules, and ``construct`` of an envelope tag loads the
tag registry and the envelope stack, not the functor module.

Each ``verify`` battery is one row of ``_BATTERIES``; a bundled fixture
that is invalid on purpose is certified as its document is.

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
from functools import partial
from typing import NamedTuple

from . import documents
from .algebra import FLAVORS, Algebra
from .errors import (DiacatError, ParseError, ResourceCapExceeded,
                     SearchSpaceTooLarge)

EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_CAP = 0, 1, 2, 3


def _err(msg):
    print(msg, file=sys.stderr)


def _emit_json(doc):
    sys.stdout.write(documents.canonical_json(doc))


def _report_items(report):
    return [{"name": it.name, "passed": it.passed,
             "where": None if it.where is None else str(it.where),
             "detail": None if it.detail is None else str(it.detail)}
            for it in report.items]


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


def _resolve(spec, kind):
    """A fixture name or a document path, to a live object.  A fixture that
    is invalid on purpose is read, and certified, as its document is."""
    from . import fixtures
    fx = fixtures.info(spec) if spec in fixtures.names() else None
    if fx is not None and fx.valid:
        if fx.kind != kind:
            raise ParseError(f"fixture {spec!r} is a {fx.kind}, "
                             f"expected {kind}")
        return fixtures.get(spec)
    try:
        doc = (fixtures.document(spec) if fx is not None
               else documents.load_document(spec))
    except ParseError as exc:
        raise ParseError(f"{spec!r} is neither a bundled fixture name nor a "
                         f"readable document ({exc})") from exc
    found = documents.document_kind(doc)
    if found != kind:
        raise ParseError(f"{spec}: expected a {kind} document, found {found}")
    if found == "xmod":
        return documents.xmod_from_document(doc)
    return documents.algebra_from_document(doc)


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    doc = documents.load_document(args.path)
    if args.flavor_override:
        doc = dict(doc)
        doc["flavor"] = args.flavor_override
        if documents.document_kind(doc) == "xmod":
            doc["source"] = dict(doc["source"], flavor=args.flavor_override)
            doc["target"] = dict(doc["target"], flavor=args.flavor_override)
    kind = documents.document_kind(doc)
    if kind == "xmod":
        obj = documents.xmod_from_document(doc, check=False)
        dims = [obj.actee.dim, obj.actor.dim]
    else:
        obj = documents.algebra_from_document(doc, check=False)
        dims = [obj.dim]
    report = obj.check()
    out = {"kind": kind, "flavor": obj.flavor, "dims": dims,
           "passed": report.passed, "items": _report_items(report)}
    _emit_json(out)
    if args.verbose:
        for it in report.items:
            _err(f"{'PASS' if it.passed else 'FAIL'}  {it.name}"
                 + (f"  at {it.where}" if it.where is not None else ""))
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# construct


def _semidirect(xm):
    from .actions import semidirect
    return semidirect(xm.action)[0]


def _roundtrip_cat1(xm):
    from .cat1 import cat1_of_xmod, xmod_of_cat1
    return xmod_of_cat1(cat1_of_xmod(xm))


def _roundtrip_internal(xm):
    from .cat1 import xdias_to_internal, xmod_of_cat1
    return xmod_of_cat1(xdias_to_internal(xm).cat1)


# construction kinds beside the functor tags: source categories, builder
_CONSTRUCTIONS = {
    "semidirect": (("XDias", "XLb", "XAs", "XLie"), _semidirect),
    "roundtrip-cat1": (("XDias", "XLb"), _roundtrip_cat1),
    "roundtrip-internal": (("XDias",), _roundtrip_internal),
}


def _construct(kind, args):
    from .tags import FUNCTOR_TAGS, apply_functor, category
    if kind in FUNCTOR_TAGS:
        fn = FUNCTOR_TAGS[kind]
        truncated = fn.truncated
        sources = (fn.source,)
        build = partial(apply_functor, kind, bound=args.trunc)
    elif kind in _CONSTRUCTIONS:
        truncated = False
        sources, build = _CONSTRUCTIONS[kind]
    else:
        raise ParseError(f"unknown construction kind {kind!r}")
    if truncated and args.trunc is None:
        raise ParseError(f"construct {kind} requires --trunc")
    if not truncated and args.trunc is not None:
        raise ParseError(f"construct {kind} takes no --trunc")
    if len(args.inputs) != 1:
        raise ParseError(f"construct {kind} takes exactly one input")
    obj = _resolve(args.inputs[0],
                   "xmod" if sources[0].startswith("X") else "algebra")
    if category(obj) not in sources:
        raise ParseError(f"construct {kind} takes an object of "
                         f"{' or '.join(sources)}, got one of {category(obj)}")
    out = build(obj)
    if isinstance(out, Algebra):
        return documents.algebra_to_document(out)
    return documents.xmod_to_document(out)


def cmd_construct(args) -> int:
    doc = _construct(args.kind, args)
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


# the named inputs a battery takes; with none named, it runs every valid
# bundled fixture of that kind and those flavors
class _Named(NamedTuple):
    kind: str
    flavors: tuple


class _Battery(NamedTuple):
    trunc: bool  # reads --trunc, and applies 2 when it is absent
    inputs: object  # a _Named, or fixed pairs of bundled fixture names
    run: object  # run(args, name, input) -> that input's result dicts


def _inputs(args, inputs):
    """A battery's (name, input) pairs, all resolved before any runs."""
    from . import fixtures
    if not isinstance(inputs, _Named):
        if args.fixtures:
            raise ParseError(f"{args.what} runs its bundled pairs and takes "
                             "no fixture names")
        return [(f"{a} / {b}", (fixtures.get(a), fixtures.get(b)))
                for a, b in inputs]
    if not args.fixtures:
        return [(name, obj) for name, obj in fixtures.by_kind(inputs.kind)
                if obj.flavor in inputs.flavors]
    out = []
    for spec in args.fixtures:
        obj = _resolve(spec, inputs.kind)
        if obj.flavor not in inputs.flavors:
            raise ParseError(f"{spec}: flavor {obj.flavor!r} not accepted "
                             f"here (need one of {sorted(inputs.flavors)})")
        out.append((spec, obj))
    return out


def _square(square_id, args, name, obj):
    from .functors import check_square
    rep = check_square(square_id, obj, bound=args.trunc, cap=args.cap)
    return [{"check": f"square:{square_id}", "fixture": name,
             "expected": rep.expected, "verdict": rep.verdict,
             "passed": rep.passed, "detail": rep.detail.strip() or None}]


def _adjunction(which, args, name, pair):
    from . import functors
    rep = getattr(functors, f"verify_adjunction_{which}")(
        *pair, args.trunc, cap=args.cap)
    return [{"check": f"adjunction:{which}", "fixture": name,
             "passed": rep.passed, "cardinality": len(rep.left),
             "items": _report_items(rep.items)}]


def _chain(i, args, name, pair):
    from .functors import verify_adjunction_chain
    from .tags import chain_pairs
    out = []
    for tags in chain_pairs(pair[0].flavor, i):
        rep = verify_adjunction_chain(tags, [pair], cap=args.cap)
        out.append({"check": f"adjunction:{tags[0]}-|{tags[1]}",
                    "fixture": name, "passed": rep.passed,
                    "items": _report_items(rep)})
    return out


def _roundtrip(xm, back, cap):
    """Whether a round trip came back to ``xm``, and how: ``"equal"`` for
    tensor-identical, else ``"isomorphism"``, found by a search."""
    from .functors import find_xmod_isomorphism
    if xm.same_structure(back):
        return True, "equal"
    return find_xmod_isomorphism(xm, back, cap=cap) is not None, "isomorphism"


def _cat1(args, name, xm):
    from .cat1 import (cat1_decomposition_iso, cat1_isomorphism_report,
                       cat1_of_xmod, xmod_of_cat1)
    from .functors import _as_dias_or_lb
    xm = _as_dias_or_lb(xm)
    c = cat1_of_xmod(xm)
    back = xmod_of_cat1(c)
    ok_x, via = _roundtrip(xm, back, args.cap)
    c2 = cat1_of_xmod(back)
    h = cat1_decomposition_iso(c, c2)
    rep = cat1_isomorphism_report(c, c2, h)
    return [{"check": "equivalence:cat1", "fixture": name,
             "passed": ok_x and rep.passed, "crossed-roundtrip": via,
             "cat1-roundtrip": _report_items(rep)}]


def _internal(args, name, xm):
    from .cat1 import xdias_to_internal, xmod_of_cat1
    from .functors import _as_dias_or_lb
    xm = _as_dias_or_lb(xm)
    ic = xdias_to_internal(xm)
    struct = ic.certificate
    back = xmod_of_cat1(ic.cat1)
    ok, via = _roundtrip(xm, back, args.cap)
    return [{"check": "equivalence:internal", "fixture": name,
             "passed": ok and struct.passed, "roundtrip": via,
             "structure": _report_items(struct)}]


def _parallelepiped(args, name, xm):
    from .functors import check_parallelepiped
    rep = check_parallelepiped(xm, bound=args.trunc, cap=args.cap)
    faces: dict = {}
    for it in rep.items:
        key = it.name.split(":", 1)[0]
        faces[key] = faces.get(key, True) and it.passed
    return [{"check": "parallelepiped", "fixture": name,
             "passed": rep.passed, "faces": faces,
             "items": _report_items(rep)}]


_UD_PAIRS = [
    ("lb-abelian-1-f2", "free-dias-1-2-f2"),
    ("lb-abelian-1-f2", "dias-abelian-2-f2"),
    ("lb-abelian-2-f2", "dias-abelian-2-f2"),
    ("lb-abelian-2-f2", "dias-assoc-tri-2-f2"),
    ("leibniz-ff-e-f2", "free-dias-1-2-f2"),
    ("leibniz-ff-e-f2", "dias-assoc-tri-2-f2"),
]

_XUD_PAIRS = [
    ("xlb-zero-ff-e-f2", "xdias-zero-f2"),
    ("xlb-ident-abelian-1-f2", "xdias-ideal-incl-f2"),
    ("xlb-ideal-e-f2", "xdias-ideal-incl-f2"),
]

# one (crossed module, algebra) pair per flavor: dias, lb, as, lie
_CHAIN_PAIRS = [
    ("xdias-ideal-incl-f2", "free-dias-1-2-f2"),
    ("xlb-ideal-e-f2", "leibniz-ff-e-f2"),
    ("xas-ident-nilp2-f2", "as-nilp-2-f2"),
    ("xlie-abelian-pair-f2", "lie-abelian-1-f2"),
]

# every battery beside the square:<id> ones, which _battery builds from the
# square table
_BATTERIES = {
    "adjunction:ud": _Battery(True, _UD_PAIRS, partial(_adjunction, "ud")),
    "adjunction:xud": _Battery(True, _XUD_PAIRS, partial(_adjunction, "xud")),
    "adjunction:chain:0": _Battery(False, _CHAIN_PAIRS, partial(_chain, 0)),
    "adjunction:chain:1": _Battery(False, _CHAIN_PAIRS, partial(_chain, 1)),
    "equivalence:cat1": _Battery(False, _Named("xmod", tuple(FLAVORS)), _cat1),
    "equivalence:internal": _Battery(False, _Named("xmod", ("dias", "as")),
                                     _internal),
    "parallelepiped": _Battery(True, _Named("xmod", ("lb", "lie")),
                               _parallelepiped),
}


def _battery(what):
    """The table row of a battery name; a ``square:<id>`` row is built from
    the square table."""
    if what in _BATTERIES:
        return _BATTERIES[what]
    from .functors import square_fixture_kind, square_flavors, square_ids
    square_id = what.removeprefix("square:")
    if square_id == what or square_id not in square_ids():
        known = [f"square:{i}" for i in square_ids()] + list(_BATTERIES)
        raise ParseError(f"unknown verification {what!r}; expected one of "
                         + ", ".join(known))
    return _Battery(True, _Named(square_fixture_kind(square_id),
                                 tuple(square_flavors(square_id))),
                    partial(_square, square_id))


def cmd_verify(args) -> int:
    battery = _battery(args.what)
    if battery.trunc:
        args.trunc = args.trunc or 2
    elif args.trunc is not None:
        raise ParseError(f"verify {args.what} takes no --trunc")
    results = [r for name, obj in _inputs(args, battery.inputs)
               for r in battery.run(args, name, obj)]
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
