"""JSON document format for algebras and crossed modules.

Documents are plain dicts with string coefficients so that exact values
survive serialization.  Emission is canonical: triples sorted by index,
keys sorted by the JSON dumper, one trailing newline.  ``parse(emit(x))``
reproduces ``x`` and ``emit`` is idempotent on parsed documents.

Product keys and action slot names are read from ``algebra.FLAVORS``.  A
key that belongs to another flavor is an input error, not a product read
as zero: an algebra document with ``left``/``right`` does not parse as
``lb``, while ``lb`` and ``lie`` share the key ``bracket``.  Action slot
names differ between every two flavors, so a crossed-module document never
reads under another flavor.  Only crossed-module documents load ``actions``.
A JSON boolean is not an integer here: ``true`` as ``p``, ``dim``, an
index or a coefficient is an input error.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .algebra import (FLAVORS, Algebra, AlgebraMorphism, BilinearMap,
                      make_algebra)
from .config import guard_dim
from .errors import ParseError
from .fields import GF, QQ, Rationals

if TYPE_CHECKING:
    from .actions import CrossedModule
    from .linalg import Matrix


def field_to_document(field):
    if isinstance(field, Rationals):
        return {"field": "Q"}
    return {"field": "Fp", "p": field.p}


def field_from_document(doc):
    kind = doc.get("field")
    if kind == "Q":
        return QQ
    if kind == "Fp":
        p = doc.get("p")
        if type(p) is not int:
            raise ParseError("field Fp needs an integer key 'p'")
        try:
            return GF(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field descriptor {kind!r}")


def _coeff(field, c, where):
    if type(c) is int:
        return field.of(c)
    if isinstance(c, str):
        try:
            return field.parse(c)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
    raise ParseError(f"{where}: coefficient must be a string or integer")


def _triples_to_document(field, bmap: BilinearMap):
    return [[i, j, k, field.format(c)] for (i, j, k, c) in bmap.triples()]


def _triples_from_document(field, entries, left_dim, right_dim, out_dim, where):
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of [i,j,k,coeff] triples")
    triples = []
    for pos, item in enumerate(entries):
        if not (isinstance(item, list) and len(item) == 4):
            raise ParseError(f"{where}[{pos}]: expected [i, j, k, coeff]")
        i, j, k, c = item
        if not all(type(v) is int for v in (i, j, k)):
            raise ParseError(f"{where}[{pos}]: indices must be integers")
        if not (0 <= i < left_dim and 0 <= j < right_dim and 0 <= k < out_dim):
            raise ParseError(f"{where}[{pos}]: index out of range "
                             f"for shape {left_dim}x{right_dim}->{out_dim}")
        triples.append((i, j, k, _coeff(field, c, f"{where}[{pos}]")))
    return BilinearMap.from_triples(field, left_dim, right_dim, out_dim,
                                    triples)


def algebra_to_document(alg: Algebra) -> dict:
    doc = dict(field_to_document(alg.field))
    doc["flavor"] = alg.flavor
    doc["dim"] = alg.dim
    doc["basis"] = list(alg.labels)
    for p, bmap in zip(FLAVORS[alg.flavor], alg.products()):
        doc[p.key] = _triples_to_document(alg.field, bmap)
    return doc


def algebra_from_document(doc, check=True) -> Algebra:
    if not isinstance(doc, dict):
        raise ParseError("algebra document must be a JSON object")
    field = field_from_document(doc)
    flavor = doc.get("flavor")
    if not isinstance(flavor, str) or flavor not in FLAVORS:
        raise ParseError(f"unknown flavor {flavor!r}")
    keys = [p.key for p in FLAVORS[flavor]]
    foreign = sorted({p.key for spec in FLAVORS.values() for p in spec}
                     .intersection(doc).difference(keys))
    if foreign:
        raise ParseError(f"keys {foreign} are products of another flavor, "
                         f"not of {flavor}")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 0:
        raise ParseError("'dim' must be a non-negative integer")
    labels = doc.get("basis")
    if labels is not None:
        if not (isinstance(labels, list) and len(labels) == dim
                and all(isinstance(s, str) for s in labels)):
            raise ParseError("'basis' must list one label string per "
                             "dimension")
    guard_dim(field, dim)
    maps = [_triples_from_document(field, doc.get(key, []), dim, dim, dim,
                                   f"products.{key}")
            for key in keys]
    return make_algebra(flavor, field, maps, labels, check=check)


def _matrix_to_document(field, m: Matrix):
    return [[field.format(c) for c in m.row(i)] for i in range(m.rows)]


def _matrix_from_document(field, rows, nrows, ncols, where):
    from .linalg import Matrix
    if not (isinstance(rows, list) and len(rows) == nrows):
        raise ParseError(f"{where}: expected {nrows} rows")
    out = []
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == ncols):
            raise ParseError(f"{where}[{i}]: expected {ncols} entries")
        out.append([_coeff(field, c, f"{where}[{i}][{j}]")
                    for j, c in enumerate(row)])
    return Matrix.from_rows(field, out, ncols)


def xmod_to_document(xm: CrossedModule) -> dict:
    field = xm.actee.field
    doc = {"flavor": xm.flavor,
           "source": algebra_to_document(xm.actee),
           "target": algebra_to_document(xm.actor),
           "mu": _matrix_to_document(field, xm.mu.matrix),
           "action": {name: _triples_to_document(field, t)
                      for name, t in xm.action.tensors.items()}}
    return doc


def xmod_from_document(doc, check=True) -> CrossedModule:
    from .actions import Action, CrossedModule, action_slots, tensor_shape
    if not isinstance(doc, dict):
        raise ParseError("crossed-module document must be a JSON object")
    flavor = doc.get("flavor")
    if not isinstance(flavor, str) or flavor not in FLAVORS:
        raise ParseError(f"unknown flavor {flavor!r}")
    if "source" not in doc or "target" not in doc:
        raise ParseError("crossed-module document needs 'source' and 'target'")
    actee = algebra_from_document(doc["source"], check=check)
    actor = algebra_from_document(doc["target"], check=check)
    if actee.flavor != flavor or actor.flavor != flavor:
        raise ParseError("source/target flavors disagree with the document")
    if actee.field != actor.field:
        raise ParseError("source and target live over different fields")
    field = actee.field
    mu_mat = _matrix_from_document(field, doc.get("mu"), actor.dim, actee.dim,
                                   "mu")
    action_doc = doc.get("action")
    if not isinstance(action_doc, dict):
        raise ParseError("'action' must map slot names to triple lists")
    slots = action_slots(flavor)
    owner = {name: f for f in FLAVORS for name, _, _ in action_slots(f)}
    foreign = sorted(n for n in action_doc if owner.get(n, flavor) != flavor)
    if foreign:
        raise ParseError(
            f"action slots {foreign} belong to flavor "
            f"{', '.join(sorted({owner[name] for name in foreign}))}, not "
            f"{flavor}: a crossed-module document cannot be re-read under "
            "another flavor")
    unknown = sorted(set(action_doc) - set(owner))
    if unknown:
        raise ParseError(f"unknown action slots {unknown} for flavor {flavor}")
    tensors = {}
    for name, _, side in slots:
        tensors[name] = _triples_from_document(
            field, action_doc.get(name, []),
            *tensor_shape(side, actor, actee), f"action.{name}")
    action = Action(actor, actee, tensors, check=check)
    mu = AlgebraMorphism(actee, actor, mu_mat)
    return CrossedModule(mu, action, check=check)


def _report_items(report):
    """The items of an ``AxiomReport`` as the JSON dicts that ``check`` and
    ``verify`` print.  Private, since the benchmark's tracer times every
    public function of this module as document input and output."""
    return [{"name": it.name, "passed": it.passed,
             "where": None if it.where is None else str(it.where),
             "detail": None if it.detail is None else str(it.detail)}
            for it in report.items]


def document_kind(doc) -> str:
    if isinstance(doc, dict) and "mu" in doc:
        return "xmod"
    return "algebra"


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"JSON nested too deeply: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be a JSON object")
    return doc


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads_document(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
