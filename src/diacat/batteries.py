"""The ``diacat verify`` batteries.

Each battery is one row of ``_BATTERIES``: whether it reads ``--trunc``,
the inputs it runs by default, and a handler that turns one input into
its result dicts; a ``square:<id>`` row is built from the square table.
A bundled fixture that is invalid on purpose is certified as its document
is.  Only ``cli.cmd_verify`` imports this module, so ``check`` and
``construct`` jobs never load it.

Each handler imports the modules it runs when it runs: ``functors`` for
the squares, the adjunctions and the prism, and ``cat1`` with the
crossed-module lifts ``lifts`` for the ``equivalence`` batteries, which so
compile no ``functors`` unless a round trip needs an isomorphism search.
Handlers reach each function through its module at call time, where the
benchmark's tracer may have rebound it.
"""

from functools import partial
from typing import NamedTuple

from . import fixtures
from .algebra import FLAVORS
from .documents import _report_items
from .errors import ParseError


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
        obj = fixtures.resolve(spec, inputs.kind)
        if obj.flavor not in inputs.flavors:
            raise ParseError(f"{spec}: flavor {obj.flavor!r} not accepted "
                             f"here (need one of {sorted(inputs.flavors)})")
        out.append((spec, obj))
    return out


def _square(square_id, args, name, obj):
    from . import functors
    rep = functors.check_square(square_id, obj, bound=args.trunc,
                                cap=args.cap)
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
    from . import functors
    from .tags import chain_pairs
    out = []
    for tags in chain_pairs(pair[0].flavor, i):
        rep = functors.verify_adjunction_chain(tags, [pair], cap=args.cap)
        out.append({"check": f"adjunction:{tags[0]}-|{tags[1]}",
                    "fixture": name, "passed": rep.passed,
                    "items": _report_items(rep)})
    return out


def _roundtrip(xm, back, cap):
    """Whether a round trip came back to ``xm``, and how: ``"equal"`` for
    tensor-identical, else ``"isomorphism"``, found by a search."""
    if xm.same_structure(back):
        return True, "equal"
    from . import functors
    found = functors.find_xmod_isomorphism(xm, back, cap=cap)
    return found is not None, "isomorphism"


def _cat1(args, name, xm):
    from . import cat1, lifts
    xm = lifts._as_dias_or_lb(xm)
    c = cat1.cat1_of_xmod(xm)
    back = cat1.xmod_of_cat1(c)
    ok_x, via = _roundtrip(xm, back, args.cap)
    c2 = cat1.cat1_of_xmod(back)
    h = cat1.cat1_decomposition_iso(c, c2)
    rep = cat1.cat1_isomorphism_report(c, c2, h)
    return [{"check": "equivalence:cat1", "fixture": name,
             "passed": ok_x and rep.passed, "crossed-roundtrip": via,
             "cat1-roundtrip": _report_items(rep)}]


def _internal(args, name, xm):
    from . import cat1, lifts
    xm = lifts._as_dias_or_lb(xm)
    ic = cat1.xdias_to_internal(xm)
    struct = ic.certificate
    back = cat1.xmod_of_cat1(ic.cat1)
    ok, via = _roundtrip(xm, back, args.cap)
    return [{"check": "equivalence:internal", "fixture": name,
             "passed": ok and struct.passed, "roundtrip": via,
             "structure": _report_items(struct)}]


def _parallelepiped(args, name, xm):
    from . import functors
    rep = functors.check_parallelepiped(xm, bound=args.trunc, cap=args.cap)
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
    from . import functors
    square_id = what.removeprefix("square:")
    if square_id == what or square_id not in functors.square_ids():
        known = ([f"square:{i}" for i in functors.square_ids()]
                 + list(_BATTERIES))
        raise ParseError(f"unknown verification {what!r}; expected one of "
                         + ", ".join(known))
    return _Battery(True, _Named(functors.square_fixture_kind(square_id),
                                 tuple(functors.square_flavors(square_id))),
                    partial(_square, square_id))


def run_battery(args) -> list:
    """The result dicts of the battery ``args.what`` on its inputs, with
    ``args.trunc`` set to 2 where the battery reads a bound and none is
    given."""
    battery = _battery(args.what)
    if battery.trunc:
        args.trunc = args.trunc or 2
    elif args.trunc is not None:
        raise ParseError(f"verify {args.what} takes no --trunc")
    return [r for name, obj in _inputs(args, battery.inputs)
            for r in battery.run(args, name, obj)]
