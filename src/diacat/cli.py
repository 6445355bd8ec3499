"""Command-line surface: check documents, run constructions, verify
diagrams and adjunctions, and emit the bundled fixture corpus.

Exit codes are a stable contract: 0 pass, 1 mathematical failure,
2 input error, 3 resource cap exceeded.  Machine-readable JSON goes to
stdout with sorted keys; human commentary goes to stderr.

Handlers import what they run, so ``check`` never loads the functor,
envelope and cat1 modules, and ``construct`` of an envelope tag loads the
tag registry and the envelope stack, not the functor module.
"""

import argparse
import json
import sys
from functools import partial

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


def _resolve(spec, kind=None):
    """A fixture name or a document path, to a live object."""
    from . import fixtures
    if spec in fixtures.names():
        fx = fixtures.info(spec)
        if kind is not None and fx.kind != kind:
            raise ParseError(f"fixture {spec!r} is a {fx.kind}, "
                             f"expected {kind}")
        return fixtures.get(spec)
    try:
        doc = documents.load_document(spec)
    except ParseError as exc:
        raise ParseError(f"{spec!r} is neither a bundled fixture name nor a "
                         f"readable document ({exc})") from exc
    found = documents.document_kind(doc)
    if kind is not None and found != kind:
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
        report = obj.check()
        dims = [obj.actee.dim, obj.actor.dim]
        flavor = obj.flavor
    else:
        obj = documents.algebra_from_document(doc, check=False)
        report = obj.check()
        dims = [obj.dim]
        flavor = obj.flavor
    out = {"kind": kind, "flavor": flavor, "dims": dims,
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
    from .cat1 import psi, xdias_to_internal
    return psi(xdias_to_internal(xm))


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


def _battery(kind, flavors=None):
    from . import fixtures
    out = []
    for name, obj in fixtures.by_kind(kind):
        if flavors is None or obj.flavor in flavors:
            out.append((name, obj))
    return out


def _named_battery(args, kind, flavors):
    if args.fixtures:
        out = []
        for spec in args.fixtures:
            obj = _resolve(spec, kind)
            if flavors is not None and obj.flavor not in flavors:
                raise ParseError(f"{spec}: flavor {obj.flavor!r} not "
                                 f"accepted here (need one of "
                                 f"{sorted(flavors)})")
            out.append((spec, obj))
        return out
    return _battery(kind, flavors)


def _verify_square(args, square_id, results):
    from .functors import (check_square, square_fixture_kind, square_flavors,
                           square_ids)
    if square_id not in square_ids():
        raise ParseError(f"unknown square id {square_id!r}; known: "
                         + ", ".join(sorted(square_ids())))
    flavors = set(square_flavors(square_id))
    kind = square_fixture_kind(square_id)
    for name, obj in _named_battery(args, kind, flavors):
        rep = check_square(square_id, obj, bound=args.trunc, cap=args.cap)
        results.append({"check": f"square:{square_id}", "fixture": name,
                        "expected": rep.expected, "verdict": rep.verdict,
                        "passed": rep.passed,
                        "detail": rep.detail.strip() or None})


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

_CHAIN_FIXTURES = {
    "dias": ("xdias-ideal-incl-f2", "free-dias-1-2-f2"),
    "lb": ("xlb-ideal-e-f2", "leibniz-ff-e-f2"),
    "as": ("xas-ident-nilp2-f2", "as-nilp-2-f2"),
    "lie": ("xlie-abelian-pair-f2", "lie-abelian-1-f2"),
}


def _verify_adjunction(args, which, results):
    from .fixtures import get
    from .functors import (verify_adjunction_chain, verify_adjunction_ud,
                           verify_adjunction_xud)
    from .tags import chain_pairs
    idx = which.split(":", 1)[1] if which.startswith("chain:") else None
    if which not in ("ud", "xud") and idx is None:
        raise ParseError(f"unknown adjunction battery {which!r}")
    if idx not in (None, "0", "1"):
        raise ParseError("adjunction:chain takes index 0 or 1")
    if args.fixtures:
        raise ParseError(f"adjunction:{which} runs its bundled pairs and "
                         "takes no fixture names")
    if which in ("ud", "xud"):
        pairs, verify = {"ud": (_UD_PAIRS, verify_adjunction_ud),
                         "xud": (_XUD_PAIRS, verify_adjunction_xud)}[which]
        for aname, bname in pairs:
            rep = verify(get(aname), get(bname), args.trunc, cap=args.cap)
            results.append({"check": f"adjunction:{which}",
                            "fixture": f"{aname} / {bname}",
                            "passed": rep.passed,
                            "cardinality": len(rep.left),
                            "items": _report_items(rep.items)})
        return
    for flavor in ("dias", "lb", "as", "lie"):
        xname, aname = _CHAIN_FIXTURES[flavor]
        fix = [(get(xname), get(aname))]
        for pair in chain_pairs(flavor, int(idx)):
            rep = verify_adjunction_chain(pair, fix, cap=args.cap)
            results.append({"check": f"adjunction:{pair[0]}-|{pair[1]}",
                            "fixture": f"{xname} / {aname}",
                            "passed": rep.passed,
                            "items": _report_items(rep)})


def _roundtrip(xm, back, cap):
    """Whether a round trip came back to ``xm``, and how: ``"equal"`` for
    tensor-identical, else ``"isomorphism"``, found by a search."""
    from .functors import find_xmod_isomorphism, xmods_equal
    if xmods_equal(xm, back):
        return True, "equal"
    return find_xmod_isomorphism(xm, back, cap=cap) is not None, "isomorphism"


def _verify_cat1(args, results):
    from .cat1 import (cat1_decomposition_iso, cat1_isomorphism_report,
                       cat1_of_xmod, xmod_of_cat1)
    from .functors import _as_dias_or_lb
    for name, xm0 in _named_battery(args, "xmod", None):
        xm = _as_dias_or_lb(xm0)
        c = cat1_of_xmod(xm)
        back = xmod_of_cat1(c)
        ok_x, via = _roundtrip(xm, back, args.cap)
        c2 = cat1_of_xmod(back)
        h = cat1_decomposition_iso(c, c2)
        rep = cat1_isomorphism_report(c, c2, h)
        results.append({"check": "equivalence:cat1", "fixture": name,
                        "passed": ok_x and rep.passed,
                        "crossed-roundtrip": via,
                        "cat1-roundtrip": _report_items(rep)})


def _verify_internal(args, results):
    from .cat1 import check_internal_category, psi, xdias_to_internal
    from .functors import _as_dias_or_lb
    for name, xm0 in _named_battery(args, "xmod", {"dias", "as"}):
        xm = _as_dias_or_lb(xm0)
        ic = xdias_to_internal(xm)
        struct = check_internal_category(ic)
        back = psi(ic)
        ok, via = _roundtrip(xm, back, args.cap)
        results.append({"check": "equivalence:internal", "fixture": name,
                        "passed": ok and struct.passed, "roundtrip": via,
                        "structure": _report_items(struct)})


def _verify_parallelepiped(args, results):
    from .functors import check_parallelepiped
    battery = _named_battery(args, "xmod", {"lb", "lie"})
    for name, xm in battery:
        rep = check_parallelepiped(xm, bound=args.trunc, cap=args.cap)
        faces: dict = {}
        for it in rep.items:
            key = it.name.split(":", 1)[0]
            faces[key] = faces.get(key, True) and it.passed
        results.append({"check": "parallelepiped", "fixture": name,
                        "passed": rep.passed, "faces": faces,
                        "items": _report_items(rep)})


def cmd_verify(args) -> int:
    what = args.what
    # four batteries take no bound; the others read 2 when it is absent
    if args.trunc is not None and what in (
            "equivalence:cat1", "equivalence:internal",
            "adjunction:chain:0", "adjunction:chain:1"):
        raise ParseError(f"verify {what} takes no --trunc")
    args.trunc = args.trunc or 2
    results: list = []
    if what.startswith("square:"):
        _verify_square(args, what.split(":", 1)[1], results)
    elif what.startswith("adjunction:"):
        _verify_adjunction(args, what.split(":", 1)[1], results)
    elif what == "equivalence:cat1":
        _verify_cat1(args, results)
    elif what == "equivalence:internal":
        _verify_internal(args, results)
    elif what == "parallelepiped":
        _verify_parallelepiped(args, results)
    else:
        raise ParseError(
            f"unknown verification {what!r}; expected square:<id>, "
            "adjunction:<ud|xud|chain:i>, equivalence:cat1, "
            "equivalence:internal or parallelepiped")
    passed = all(r["passed"] for r in results)
    _emit_json({"what": what, "passed": passed, "results": results})
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


def build_parser() -> argparse.ArgumentParser:
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
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
