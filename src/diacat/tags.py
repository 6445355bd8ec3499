"""The registry of the 36 functor tags, and what ``diacat construct`` runs.

``FUNCTOR_TAGS`` gives each tag its source and target category and its
builder, for ``apply_functor``, ``functors.check_square`` and ``diacat
construct`` alike.  It is read off the rule tables: each row of
``algebra.LEVELWISE`` and ``algebra.QUOTIENTS`` gives its algebra tag and
its crossed lift in ``lifts`` their categories, so a row is the only place
they are written, and the J/I and U/G tags are bound to their builders by
chain index.  A builder finds its implementation in ``algebra``,
``actions``, ``envelope``, ``lifts`` or ``functors`` when it runs, not
when the registry is imported, so ``construct Ud`` loads the envelope
stack, ``construct XLB`` the crossed-module lifts and ``construct J1`` or
``U1'`` the crossed modules, and none of them the functor module.  The
lookup at call time also sees a wrapper bound to that name after import,
as the benchmark's tracer binds them.

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

from .algebra import LEVELWISE, QUOTIENTS, Algebra
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
    """The algebra tag of each ``LEVELWISE`` and ``QUOTIENTS`` row and its
    crossed lift (X before the tag, or before each flavor of an Inc tag),
    the four envelopes, and the chain tags by index: J/I 0 and 1 the zero
    and identity crossed modules, U/G 0, 1 and 2 the cokernel of mu, the
    actor and the actee."""
    first = itemgetter(0)
    tags = {}
    for table, build, lift, keep in (
            (LEVELWISE, "algebra.levelwise", "lifts.crossed_levelwise", None),
            (QUOTIENTS, "algebra.universal_quotient", "lifts.crossed_quotient",
             first)):
        for tag, (source, target, _) in table.items():
            src, tgt = source.capitalize(), target.capitalize()
            xtag = f"IncX{src}X{tgt}" if tag.startswith("Inc") else "X" + tag
            tags[tag] = Functor(src, tgt, _deferred(build, tag, keep=keep))
            tags[xtag] = Functor("X" + src, "X" + tgt,
                                 _deferred(lift, tag, keep=keep))
    envelope = attrgetter("algebra")
    tags["Ud"] = Functor("Lb", "Dias", _deferred("envelope.ud", keep=envelope),
                         True)
    tags["U"] = Functor("Lie", "As",
                        _deferred("envelope.u_lie", keep=envelope), True)
    tags["XUd"] = Functor("XLb", "XDias", _deferred("envelope.xud"), True)
    tags["XU"] = Functor("XLie", "XAs", _deferred("envelope.xu"), True)
    embeddings = (_deferred("actions.zero_xmod"),
                  _deferred("actions.identity_xmod"))
    projections = (_deferred("functors.cokernel_of_mu", keep=first),
                   attrgetter("actor"), attrgetter("actee"))
    for flavor in _CHAIN_LETTERS:
        alg = flavor.capitalize()
        for i, build in enumerate(embeddings):
            tags[_chain_tag(flavor, 1, i)] = Functor(alg, "X" + alg, build)
        for i, build in enumerate(projections):
            tags[_chain_tag(flavor, 0, i)] = Functor("X" + alg, alg, build)
    return tags


# every tag with its source and target category and its builder
FUNCTOR_TAGS = _registry()

assert len(FUNCTOR_TAGS) == 36


def apply_functor(tag, obj, bound=None):
    """Apply a registered functor to ``obj``, which must lie in its
    source; the truncated ones need ``bound``."""
    fn = FUNCTOR_TAGS.get(tag)
    if fn is None:
        raise DiacatError(f"unknown functor tag {tag!r}")
    if category(obj) != fn.source:
        raise DiacatError(f"{tag} expects an object of {fn.source}, "
                          f"got one of {category(obj)}")
    if not fn.truncated:
        return fn.build(obj)
    if bound is None:
        raise DiacatError(f"functor {tag} requires a truncation bound")
    return fn.build(obj, bound)


# ---------------------------------------------------------------------------
# diacat construct


def _semidirect(xm):
    from .actions import semidirect
    return semidirect(xm.action)


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
