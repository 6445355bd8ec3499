"""What each flavor writes into documents and reports, pinned as literals.

The product keys, action slots, morphism item names and crossed-module item
names below are the flavor's definition as users see it: in the JSON
documents and in the ``check``/``verify`` reports.  Each flavor is checked
on a one-dimensional abelian algebra and its identity crossed module (J1 or
I1).
"""

import pytest

from diacat.actions import Action, crossed_module_report
from diacat.algebra import AlgebraMorphism, BilinearMap, abelian_algebra
from diacat.documents import algebra_to_document, xmod_to_document
from diacat.errors import InvalidAction
from diacat.fields import GF
from diacat.tags import apply_functor

F2 = GF(2)

ALGEBRA_KEYS = ["basis", "dim", "field", "flavor", "p"]
XMOD_KEYS = ["action", "flavor", "mu", "source", "target"]


def _mixed(axiom):
    """The six mixed-sort instances of one axiom, as the action checker
    names them."""
    return [f"action {axiom} @ ({pattern})" for pattern in (
        "D,D,L", "D,L,D", "D,L,L", "L,D,D", "L,D,L", "L,L,D")]


# flavor: (embedding tag, product keys, action slots, morphism items,
#          crossed-module items)
PINNED = {
    "dias": ("J1", ["left", "right"],
             ["dl_left", "dl_right", "ld_left", "ld_right"],
             ["preserves -|", "preserves |-"],
             ["mu preserves -|", "mu preserves |-"]
             + [name for d in ("d1", "d2", "d3", "d4", "d5")
                for name in _mixed(d)]
             + ["equivariance: mu(x -| l) = x -| mu(l)",
                "equivariance: mu(l -| x) = mu(l) -| x",
                "peiffer: mu(l) -| l' = l -| l'",
                "peiffer: l -| l' = l -| mu(l')",
                "equivariance: mu(x |- l) = x |- mu(l)",
                "equivariance: mu(l |- x) = mu(l) |- x",
                "peiffer: mu(l) |- l' = l |- l'",
                "peiffer: l |- l' = l |- mu(l')"]),
    "lb": ("J1'", ["bracket"], ["gq", "qg"], ["preserves bracket"],
           ["mu preserves bracket"] + _mixed("leibniz")
           + ["equivariance: mu([x,l]) = [x,mu(l)]",
              "equivariance: mu([l,x]) = [mu(l),x]",
              "peiffer: [mu(l),l'] = [l,l']",
              "peiffer: [l,l'] = [l,mu(l')]"]),
    "as": ("I1", ["product"], ["ar", "ra"], ["preserves product"],
           ["mu preserves product"] + _mixed("assoc")
           + ["equivariance: mu(x*l) = x*mu(l)",
              "equivariance: mu(l*x) = mu(l)*x",
              "peiffer: mu(l)*l' = l*l'",
              "peiffer: l*l' = l*mu(l')"]),
    "lie": ("I1'", ["bracket"], ["pm"], ["preserves bracket"],
            ["mu preserves bracket",
             "action [[p,p'],m] = [p,[p',m]] - [p',[p,m]]",
             "action [p,[m,m']] = [[p,m],m'] + [m,[p,m']]",
             "equivariance: mu([x,l]) = [x,mu(l)]",
             "peiffer: [mu(l),l'] = [l,l']",
             "peiffer: [l,l'] = [l,mu(l')]"]),
}


@pytest.mark.parametrize("flavor", sorted(PINNED))
def test_document_keys(flavor):
    tag, products, slots, _, _ = PINNED[flavor]
    a = abelian_algebra(flavor, F2, 1)
    assert sorted(algebra_to_document(a)) == sorted(ALGEBRA_KEYS + products)
    doc = xmod_to_document(apply_functor(tag, a))
    assert sorted(doc) == XMOD_KEYS
    assert sorted(doc["action"]) == slots
    for side in ("source", "target"):
        assert sorted(doc[side]) == sorted(ALGEBRA_KEYS + products)


@pytest.mark.parametrize("flavor", sorted(PINNED))
def test_morphism_item_names(flavor):
    a = abelian_algebra(flavor, F2, 1)
    report = AlgebraMorphism.identity(a).check()
    assert [it.name for it in report.items] == PINNED[flavor][3]


@pytest.mark.parametrize("flavor", sorted(PINNED))
def test_crossed_module_item_names(flavor):
    xm = apply_functor(PINNED[flavor][0], abelian_algebra(flavor, F2, 1))
    report = crossed_module_report(xm.mu, xm.action)
    assert report.passed
    assert [it.name for it in report.items] == PINNED[flavor][4]


@pytest.mark.parametrize("flavor", sorted(PINNED))
def test_action_needs_one_flavor(flavor):
    actor = abelian_algebra(flavor, F2, 1)
    other = "lie" if flavor == "lb" else "lb"
    actee = abelian_algebra(other, F2, 1)
    zero = {name: BilinearMap.zero(F2, 1)
            for name in PINNED[flavor][2] + PINNED[other][2]}
    with pytest.raises(InvalidAction):
        Action(actor, actee, zero)
    with pytest.raises(InvalidAction):
        Action(actee, actor, zero)
