"""``construct`` against the functor registry.

Every tag of ``tags.FUNCTOR_TAGS`` builds an object of its target
category from one of its source category, and refuses anything else as an
input error (exit 2) before printing a byte.
"""

import contextlib
import io
import json

import pytest

from diacat import documents
from diacat.cli import main
from diacat.tags import FUNCTOR_TAGS

# one small bundled fixture per category
FIXTURE_OF = {
    "Dias": "free-dias-1-2-f2", "Lb": "leibniz-ff-e-f2",
    "As": "as-nilp-2-f2", "Lie": "lie-abelian-1-f2",
    "XDias": "xdias-ideal-incl-f2", "XLb": "xlb-zero-ff-e-f2",
    "XAs": "xas-ident-nilp2-f2", "XLie": "xlie-abelian-pair-f2",
}

# construction kinds beside the functor tags, with the categories they take
SOURCES = {tag: (fn.source,) for tag, fn in FUNCTOR_TAGS.items()}
SOURCES["roundtrip-cat1"] = ("XDias", "XLb")
SOURCES["roundtrip-internal"] = ("XDias",)


def _construct(tag, fixture):
    argv = ["construct", tag, fixture]
    if tag in FUNCTOR_TAGS and FUNCTOR_TAGS[tag].truncated:
        argv += ["--trunc", "2"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("tag", sorted(SOURCES))
def test_construct_rejects_wrong_kind_or_flavor(tag):
    wrong = [c for c in FIXTURE_OF if c not in SOURCES[tag]]
    assert len(wrong) >= 5
    for cat in wrong:
        rc, out, err = _construct(tag, FIXTURE_OF[cat])
        assert (rc, out) == (2, ""), (tag, cat, rc, err)


@pytest.mark.parametrize("tag", sorted(FUNCTOR_TAGS))
def test_every_tag_constructs_its_target_category(tag):
    fn = FUNCTOR_TAGS[tag]
    rc, out, err = _construct(tag, FIXTURE_OF[fn.source])
    assert rc == 0, (tag, err)
    doc = json.loads(out)
    prefix = "X" if documents.document_kind(doc) == "xmod" else ""
    assert prefix + doc["flavor"].capitalize() == fn.target, tag
