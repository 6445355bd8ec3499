"""The registry of the 36 functor tags, and what ``diacat construct`` runs.

``FUNCTOR_TAGS`` gives each tag its source and target category and its
builder, for ``apply_functor``, ``functors.check_square`` and ``diacat
construct`` alike.  A builder finds its implementation in ``algebra``,
``envelope``, ``lifts`` or ``functors`` when it runs, not when the
registry is imported, so ``construct Ud`` loads the envelope stack and
``construct XLB`` the crossed-module lifts, and neither the functor
module.  The lookup at call time also sees a wrapper bound to that name
after import, as the benchmark's tracer binds them.

``_CONSTRUCTIONS`` holds the construction kinds beside the tags
(``semidirect`` and the two round trips), and ``construct`` runs a tag or
one of those kinds on a fixture name or document path, as ``diacat
construct`` does.
"""

from __future__ import annotations

from functools import partial
from importlib import import_module
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple

from .algebra import Algebra
from .errors import DiacatError, ParseError

# letters of the projections and embeddings per flavor, and the tag suffix
_CHAIN_LETTERS = {"dias": ("U", "J"), "lb": ("U", "J"),
                  "as": ("G", "I"), "lie": ("G", "I")}
_CHAIN_SUFFIX = {"dias": "", "lb": "'", "as": "", "lie": "'"}


def _chain_tag(flavor, role, i):
    """The projection (role 0, U/G) or embedding (role 1, J/I) tag at i."""
    return f"{_CHAIN_LETTERS[flavor][role]}{i}{_CHAIN_SUFFIX[flavor]}"


def chain_pairs(flavor, i):
    """The adjoint pairs (U_i, J_i) and (J_i, U_{i+1}) of a flavor, each as
    (left adjoint, right adjoint), with G/I letters for as and lie."""
    proj, emb = _chain_tag(flavor, 0, i), _chain_tag(flavor, 1, i)
    return (proj, emb), (emb, _chain_tag(flavor, 0, i + 1))


def category(obj) -> str:
    """The category of an algebra ("Dias", "Lb", "As", "Lie") or of a
    crossed module ("XDias", "XLb", "XAs", "XLie")."""
    prefix = "" if isinstance(obj, Algebra) else "X"
    return prefix + obj.flavor.capitalize()


class Functor(NamedTuple):
    """A registered functor: source and target categories, and a builder
    taking the input object, plus the truncation bound when ``truncated``."""

    source: str
    target: str
    build: Callable
    truncated: bool = False


def _deferred(path, *head, keep=None):
    """A builder that calls ``path`` ("module.name" in this package) on
    ``head`` and its own arguments, and passes the result through ``keep``.
    The module is imported, and the name looked up, at each call."""
    module, name = path.split(".")

    def build(*args):
        fn = getattr(import_module(f"{__package__}.{module}"), name)
        out = fn(*head, *args)
        return out if keep is None else keep(out)
    return build


def _registry():
    first, algebra = itemgetter(0), attrgetter("algebra")
    tags = {
        "LB": Functor("Dias", "Lb", _deferred("algebra.leibnization")),
        "AS": Functor("Dias", "As", _deferred("algebra.associative_quotient",
                                              keep=first)),
        "Liea": Functor("As", "Lie", _deferred("algebra.commutator_lie")),
        "Liel": Functor("Lb", "Lie", _deferred("algebra.lie_quotient",
                                               keep=first)),
        "Ud": Functor("Lb", "Dias", _deferred("envelope.ud", keep=algebra),
                      True),
        "U": Functor("Lie", "As", _deferred("envelope.u_lie", keep=algebra),
                     True),
        "IncAsDias": Functor("As", "Dias",
                             _deferred("algebra.dialgebra_of_associative")),
        "IncLieLb": Functor("Lie", "Lb", _deferred("algebra.leibniz_of_lie")),
        "XLB": Functor("XDias", "XLb", _deferred("lifts.xlb_of_xdias")),
        "XAS": Functor("XDias", "XAs", _deferred("lifts.xas_of_xdias",
                                              keep=first)),
        "XLiea": Functor("XAs", "XLie", _deferred("lifts.xliea_of_xas")),
        "XLiel": Functor("XLb", "XLie", _deferred("lifts.xliel_of_xlb",
                                                  keep=first)),
        "XUd": Functor("XLb", "XDias", _deferred("envelope.xud"), True),
        "XU": Functor("XLie", "XAs", _deferred("envelope.xu"), True),
        "IncXAsXDias": Functor("XAs", "XDias",
                               _deferred("lifts.inc_xas_to_xdias")),
        "IncXLieXLb": Functor("XLie", "XLb",
                              _deferred("lifts.inc_xlie_to_xlb")),
    }
    for flavor in _CHAIN_LETTERS:
        alg = flavor.capitalize()
        for i in (0, 1):
            tag = _chain_tag(flavor, 1, i)
            tags[tag] = Functor(alg, "X" + alg,
                                _deferred("functors.embed", tag))
        for i in (0, 1, 2):
            tag = _chain_tag(flavor, 0, i)
            tags[tag] = Functor("X" + alg, alg,
                                _deferred("functors.project", tag))
    return tags


# every tag with its source and target category and its builder
FUNCTOR_TAGS = _registry()

assert len(FUNCTOR_TAGS) == 36


def _functor(tag, obj) -> Functor:
    """The registered functor ``tag``; ``obj`` must lie in its source."""
    fn = FUNCTOR_TAGS.get(tag)
    if fn is None:
        raise DiacatError(f"unknown functor tag {tag!r}")
    if category(obj) != fn.source:
        raise DiacatError(f"{tag} expects an object of {fn.source}, "
                          f"got one of {category(obj)}")
    return fn


def apply_functor(tag, obj, bound=None):
    """Apply a registered functor; the truncated ones need ``bound``."""
    fn = _functor(tag, obj)
    if not fn.truncated:
        return fn.build(obj)
    if bound is None:
        raise DiacatError(f"functor {tag} requires a truncation bound")
    return fn.build(obj, bound)


# ---------------------------------------------------------------------------
# diacat construct


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


def construct(kind, inputs, trunc=None) -> dict:
    """The document of construction ``kind`` (a functor tag or a key of
    ``_CONSTRUCTIONS``) on ``inputs``, one fixture name or document path,
    with the bound ``trunc`` that a truncated kind needs."""
    from . import documents
    from .fixtures import resolve
    if kind in FUNCTOR_TAGS:
        fn = FUNCTOR_TAGS[kind]
        truncated = fn.truncated
        sources = (fn.source,)
        build = partial(apply_functor, kind, bound=trunc)
    elif kind in _CONSTRUCTIONS:
        truncated = False
        sources, build = _CONSTRUCTIONS[kind]
    else:
        raise ParseError(f"unknown construction kind {kind!r}")
    if truncated and trunc is None:
        raise ParseError(f"construct {kind} requires --trunc")
    if not truncated and trunc is not None:
        raise ParseError(f"construct {kind} takes no --trunc")
    if len(inputs) != 1:
        raise ParseError(f"construct {kind} takes exactly one input")
    obj = resolve(inputs[0],
                  "xmod" if sources[0].startswith("X") else "algebra")
    if category(obj) not in sources:
        raise ParseError(f"construct {kind} takes an object of "
                         f"{' or '.join(sources)}, got one of {category(obj)}")
    out = build(obj)
    if isinstance(out, Algebra):
        return documents.algebra_to_document(out)
    return documents.xmod_to_document(out)
