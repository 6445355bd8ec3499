"""Bundled example corpus: small named algebras and crossed modules.

Every fixture is buildable on demand and emittable as a document.  The
finite-field entries keep dimensions small enough for exhaustive hom-set
enumeration; the rational entries exercise exact fraction arithmetic.
One deliberately invalid algebra is included as a negative example for
the checkers (marked ``valid=False``).

Builders import ``actions`` and ``envelope`` only when they run, so that
resolving an algebra fixture or a document loads neither.  ``resolve``
reads a command-line input, a fixture name or a document path, for
``diacat construct`` and ``diacat verify``.
"""

from typing import NamedTuple

from . import documents
from .algebra import (AlgebraMorphism, AssociativeAlgebra, BilinearMap,
                      Dialgebra, LeibnizAlgebra, LieAlgebra, abelian_algebra,
                      levelwise)
from .errors import DiacatError, ParseError
from .fields import GF, QQ
from .linalg import Matrix, Subspace

F2 = GF(2)


class Fixture(NamedTuple):
    name: str
    kind: str  # "algebra" | "xmod"
    valid: bool
    note: str
    build: object


_REGISTRY: dict = {}
_CACHE: dict = {}


def _register(name, kind, note, build, valid=True):
    _REGISTRY[name] = Fixture(name, kind, valid, note, build)


def _ffe(field):
    br = BilinearMap.from_triples(field, 2, 2, 2, [(1, 1, 0, 1)])
    return LeibnizAlgebra(field, br, ["e", "f"])


def _nilp2(field):
    prod = BilinearMap.from_triples(field, 2, 2, 2, [(0, 0, 1, 1)])
    return AssociativeAlgebra(field, prod, ["t", "t2"])


def _heis3():
    br = BilinearMap.from_triples(QQ, 3, 3, 3, [(0, 1, 2, 1), (1, 0, 2, -1)])
    return LieAlgebra(QQ, br, ["x", "y", "z"])


def _bad_dias():
    left = BilinearMap.from_triples(QQ, 1, 1, 1, [(0, 0, 0, 1)])
    right = BilinearMap.zero(QQ, 1)
    return Dialgebra(QQ, left, right, ["e"], check=False)


def _free_dialgebra(field):
    from .envelope import free_dialgebra
    return free_dialgebra(field, 1, 2)


def _identity_xmod(alg):
    from .actions import identity_xmod
    return identity_xmod(alg)


def _zero_xmod(alg):
    from .actions import zero_xmod
    return zero_xmod(alg)


def _ideal_xmod(ambient, *basis):
    from .actions import xmod_from_ideal
    return xmod_from_ideal(ambient, Subspace.span(ambient.field, list(basis),
                                                  ambient.dim))


def _xlie_abelian_pair():
    from .actions import CrossedModule, trivial_action
    q = abelian_algebra("lie", F2, 1, ["m"])
    g = abelian_algebra("lie", F2, 1, ["p"])
    mu = AlgebraMorphism(q, g, Matrix.zero(F2, 1, 1))
    return CrossedModule(mu, trivial_action(g, q))


_register("free-dias-1-2", "algebra",
          "free dialgebra on one generator over Q, truncated at word "
          "length 2 (dimension 3)",
          lambda: _free_dialgebra(QQ))
_register("free-dias-1-2-f2", "algebra",
          "free dialgebra on one generator over F2, truncated at word "
          "length 2",
          lambda: _free_dialgebra(F2))
_register("dias-abelian-2-f2", "algebra",
          "two-dimensional dialgebra over F2 with both products zero",
          lambda: abelian_algebra("dias", F2, 2, ["a", "b"]))
_register("dias-assoc-tri-2-f2", "algebra",
          "the nilpotent associative algebra t*t = t2 over F2, viewed as a "
          "dialgebra with equal products",
          lambda: levelwise("IncAsDias", _nilp2(F2)))
_register("dias-not-assoc-1", "algebra",
          "one generator with e -| e = e and e |- e = 0; fails the first "
          "dialgebra axiom, bundled as a negative example",
          _bad_dias, valid=False)
_register("as-nilp-2-q", "algebra",
          "nilpotent associative algebra t*t = t2, t*t2 = 0 over Q",
          lambda: _nilp2(QQ))
_register("as-nilp-2-f2", "algebra",
          "nilpotent associative algebra t*t = t2 over F2",
          lambda: _nilp2(F2))
_register("lb-abelian-1-f2", "algebra",
          "one-dimensional Leibniz algebra over F2 with zero bracket",
          lambda: abelian_algebra("lb", F2, 1, ["x"]))
_register("lb-abelian-2-f2", "algebra",
          "two-dimensional Leibniz algebra over F2 with zero bracket",
          lambda: abelian_algebra("lb", F2, 2, ["x", "y"]))
_register("leibniz-ff-e", "algebra",
          "two-dimensional Leibniz algebra over Q with [f,f] = e and all "
          "other brackets zero; not a Lie algebra",
          lambda: _ffe(QQ))
_register("leibniz-ff-e-f2", "algebra",
          "the [f,f] = e Leibniz algebra over F2",
          lambda: _ffe(F2))
_register("lie-abelian-1-f2", "algebra",
          "one-dimensional abelian Lie algebra over F2",
          lambda: abelian_algebra("lie", F2, 1, ["x"]))
_register("lie-heis-3-q", "algebra",
          "Heisenberg Lie algebra over Q: [x,y] = z central",
          _heis3)
_register("xdias-ideal-incl-f2", "xmod",
          "inclusion of the length-2 words as an ideal of the free "
          "dialgebra on one generator over F2, with the multiplication "
          "action",
          lambda: _ideal_xmod(_free_dialgebra(F2), [0, 1, 0], [0, 0, 1]))
_register("xdias-zero-f2", "xmod",
          "zero crossed module over the free dialgebra on one generator "
          "over F2 (trivial source, trivial action)",
          lambda: _zero_xmod(_free_dialgebra(F2)))
_register("xlb-ident-ff-e-f2", "xmod",
          "identity crossed module of the [f,f] = e Leibniz algebra over "
          "F2, acting on itself by brackets",
          lambda: _identity_xmod(_ffe(F2)))
_register("xlb-zero-ff-e-f2", "xmod",
          "zero crossed module over the [f,f] = e Leibniz algebra over F2",
          lambda: _zero_xmod(_ffe(F2)))
_register("xlb-ident-abelian-1-f2", "xmod",
          "identity crossed module of the one-dimensional abelian Leibniz "
          "algebra over F2",
          lambda: _identity_xmod(abelian_algebra("lb", F2, 1, ["x"])))
_register("xlb-ideal-e-f2", "xmod",
          "inclusion of the bracket-generated ideal span{e} into the "
          "[f,f] = e Leibniz algebra over F2",
          lambda: _ideal_xmod(_ffe(F2), [1, 0]))
_register("xlie-abelian-pair-f2", "xmod",
          "zero morphism between one-dimensional abelian Lie algebras "
          "over F2 with the trivial action",
          _xlie_abelian_pair)
_register("xas-ident-nilp2-f2", "xmod",
          "identity crossed module of the nilpotent associative algebra "
          "t*t = t2 over F2",
          lambda: _identity_xmod(_nilp2(F2)))


def names():
    return sorted(_REGISTRY)


def info(name) -> Fixture:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DiacatError(f"unknown fixture {name!r}") from None


def get(name):
    if name not in _CACHE:
        _CACHE[name] = info(name).build()
    return _CACHE[name]


def document(name) -> dict:
    fx = info(name)
    obj = get(name)
    if fx.kind == "algebra":
        return documents.algebra_to_document(obj)
    return documents.xmod_to_document(obj)


def resolve(spec, kind):
    """A fixture name or a document path, to a live object of ``kind``
    ("algebra" or "xmod").  A fixture that is invalid on purpose is read,
    and certified, as its document is."""
    fx = _REGISTRY.get(spec)
    if fx is not None and fx.valid:
        if fx.kind != kind:
            raise ParseError(f"fixture {spec!r} is a {fx.kind}, "
                             f"expected {kind}")
        return get(spec)
    try:
        doc = (document(spec) if fx is not None
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


def by_kind(kind):
    """Every valid fixture of a kind, as (name, object) pairs by name."""
    return [(name, get(name)) for name in names()
            if _REGISTRY[name].kind == kind and _REGISTRY[name].valid]
