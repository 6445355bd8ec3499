"""Golden reports of every `verify` battery, and the adjunction verifiers
with one broken map at a time.

Each verifier enumerates Hom(Fa, b) and Hom(a, Gb) and certifies an
explicit map between them as a bijection: cardinalities, then "lands in",
"injective" and "surjective" (every morphism of the other hom-set is hit),
then a splitting or section and, for the chains, naturality.  The tests
below break exactly one map (a transpose, a lift, a restriction, a unit) or
drop one enumerated morphism, and pin which named items fail.
"""

import contextlib
import hashlib
import io

import pytest

from diacat import adjunctions, envelope, fixtures, functors
from diacat.actions import XmodMorphism
from diacat.algebra import AlgebraMorphism
from diacat.cli import main
from diacat.errors import NotWellDefined
from diacat.linalg import Matrix

# ---------------------------------------------------------------------------
# golden reports of `diacat verify`

# sha256 of each battery's stdout when it exits 0; the other exits print
# nothing.  The adjunction batteries, keyed without their "adjunction:"
# prefix, were recorded before the verifiers shared one bijection check,
# the others before the batteries became rows of one table.
PASSING = {
    "ud": "4ba4ef7d5414c630f4292dba138cfbf26837788710d30ca534ac6b0a744f3d6c",
    "xud": "1041ebe351170629b34e0b1e93da855898455564f22a45e615c814b9977ac48c",
    "chain:0": "ca380b28a8a3a77941423d4c12578466bb4b809e11119be72abc3ec509c2f36a",
    "chain:1": "fba55a40963ede6d11a9aed21e662d5aeb702d89ec7ca3296e772a1b08ac293b",
    "square:2.8-inner":
        "ec63ffa4c8b183718e084d14aff7762eb005f0e499903af51c853ef46a8251ba",
    "square:2.8-outer":
        "16fee611d18a6a3fb0f045c002a2a2195fadb116bf5a044ff4499485edcecae4",
    "square:AsDias-I0":
        "826696b485e4bc72a85e8532e97cfa2080db1de692f1b76d41e5ef0d0218cda1",
    "square:AsDias-I1":
        "2b5ab4fef6ad7a444c7505a91187ff2d72a652b4954bbe7e3a6a76658fd2eefa",
    "square:AsLie-I0":
        "fd17ad34d082300e32db684e09e86e3c0019053dca3ae93ae1ffa01216592102",
    "square:AsLie-I1":
        "9a8f208e64fec3d80995b4a041d7df1bcb4b8a869fc9e749556f608560dd5b93",
    "square:LbDias-J0":
        "b2522f2cd009b6439af2a666c5a40d4e14c08f6aafacf89e865fcc07392a05fb",
    "square:LbDias-J1":
        "cacef1e0718751523aef5f5989747fb69d78ee9cf703aa3a7dc83165750c2cc4",
    "square:LbDias-XUd-J0":
        "f0ac554243b7df6933bea2048e53f719b630c5991d13c06698b458509abe8c86",
    "square:LbDias-XUd-J1":
        "c6bd1545e1ee1aab22d0638125787f3790c49cc489c4ab302919164583b08c9d",
    "square:LieLb-I0":
        "c9fb93cd8cac155bd98772211ae9d38f5f7e99439bfeef68f36aeb957d2f8c08",
    "square:LieLb-I1":
        "57aa961df20740bddb58b3cbb720126dbee7c9f5cb1ad073f25cba890c340826",
    "square:base-XLiea":
        "bc687a4a5d0ea338d58e29bdbaecaeb50f60f00a89736ba05bcbc62be671a6ca",
    "square:base-XUd-XU":
        "74f9d33ada6c880f77c24f2fb9b4a9dad4ddd8e0cd2fd85db9377779585d1bba",
    "equivalence:cat1":
        "250b91c7d199e0f47df3f546f7027a366e76fb8a57c9a8cf3a9604ba47a827d7",
    "equivalence:internal":
        "2cb76c887e5a9a36e20b88a7b723001913d17b5a56cfc9dc15fcca1334b8ff31",
    "parallelepiped":
        "9fc140c50efcbab65517097640da5d35c355b9473a4cd5314926c82a56a5c13c",
}
ADJUNCTIONS = ("ud", "xud", "chain:0", "chain:1")
CAPS = (None, 0, 3, 40)
# exit code per (battery, --trunc), one per entry of CAPS; None is no
# --trunc, which ud, xud, the squares and the parallelepiped read as 2, and
# the chains and the equivalences take no bound
EXITS = {
    ("ud", None): (0, 3, 3, 3), ("ud", 1): (1, 1, 1, 1),
    ("ud", 2): (0, 3, 3, 3), ("ud", 3): (0, 3, 3, 3),
    ("xud", None): (0, 3, 3, 0), ("xud", 1): (1, 1, 1, 1),
    ("xud", 2): (0, 3, 3, 0), ("xud", 3): (0, 3, 3, 0),
    **{(chain, None): (0, 3, 3, 0) for chain in ("chain:0", "chain:1")},
    **{(chain, t): (2, 2, 2, 2) for chain in ("chain:0", "chain:1")
       for t in (1, 2, 3)},
    **{(what, None): (0, 0, 0, 0) for what in PASSING
       if what not in ADJUNCTIONS},
}


@pytest.mark.parametrize("battery,trunc", sorted(EXITS, key=str))
def test_adjunction_reports_are_golden(battery, trunc, monkeypatch):
    monkeypatch.delenv("DIACAT_MAX_DIM", raising=False)
    what = f"adjunction:{battery}" if battery in ADJUNCTIONS else battery
    for cap, code in zip(CAPS, EXITS[battery, trunc]):
        argv = ["verify", what]
        if trunc is not None:
            argv += ["--trunc", str(trunc)]
        if cap is not None:
            argv += ["--cap", str(cap)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert rc == code, argv
        assert digest == (PASSING[battery] if code == 0
                          else hashlib.sha256(b"").hexdigest()), argv


# ---------------------------------------------------------------------------
# one broken map at a time


def _failing(report):
    return [it.name for it in report.items if not it.passed]


def _drop_last(monkeypatch, name, when=lambda *args: True):
    """Make ``functors.<name>`` leave out the last morphism it enumerates
    on the calls that ``when`` picks."""
    real = getattr(functors, name)

    def enumerate_all_but_one(*args, **kwargs):
        found = real(*args, **kwargs)
        return found[:-1] if when(*args) else found
    monkeypatch.setattr(functors, name, enumerate_all_but_one)


def _ud():
    return functors.verify_adjunction_ud(fixtures.get("lb-abelian-1-f2"),
                                         fixtures.get("free-dias-1-2-f2"), 2)


def _xud():
    return functors.verify_adjunction_xud(
        fixtures.get("xlb-ident-abelian-1-f2"),
        fixtures.get("xdias-ideal-incl-f2"), 2)


def _chain(pair):
    return functors.verify_adjunction_chain(
        pair, [(fixtures.get("xlb-ideal-e-f2"),
                fixtures.get("leibniz-ff-e-f2"))])


def _break_row(monkeypatch, key, lift=None, restrict=None):
    """Replace the lift or the restriction of one chain row."""
    side, real_restrict = adjunctions._CHAIN_ROWS[key]

    def broken_side(*args):
        homs, real_lift = side(*args)
        return homs, (lambda h: lift(real_lift(h), h)) if lift else real_lift
    monkeypatch.setitem(adjunctions._CHAIN_ROWS, key,
                        (broken_side, restrict or real_restrict))


def test_unbroken_verifiers_pass():
    assert _ud().passed and _xud().passed
    for pair in (("U0'", "J0'"), ("U1'", "J1'"), ("J0'", "U1'"),
                 ("J1'", "U2'")):
        assert _chain(pair).passed, pair


def test_ud_without_one_bracket_morphism(monkeypatch):
    # the other bracket morphisms are all still hit: surjective means
    # every morphism of the codomain is hit, so it holds
    _drop_last(monkeypatch, "enumerate_homs")
    assert _failing(_ud().items) == [
        "cardinalities equal (4 = 3)",
        "restriction to generators is a bracket morphism"]


def test_ud_without_one_morphism_out_of_the_envelope(monkeypatch):
    _drop_last(monkeypatch, "enumerate_generated_homs")
    assert _failing(_ud().items) == ["cardinalities equal (3 = 4)",
                                     "restriction map surjective"]


def test_ud_with_a_zero_transpose_after_enumeration(monkeypatch):
    # the enumeration keeps the real transpose; the splitting reads the
    # zero one
    real = functors.enumerate_generated_homs

    def enumerate_then_break(env, target, cap=None):
        found = real(env, target, cap)
        monkeypatch.setattr(envelope, "envelope_transpose",
                            lambda env, d, phi: AlgebraMorphism.zero(
                                env.algebra, d))
        return found
    monkeypatch.setattr(functors, "enumerate_generated_homs",
                        enumerate_then_break)
    assert _failing(_ud().items) == ["transpose splits the restriction"]


def test_ud_with_an_ill_defined_transpose_after_enumeration(monkeypatch):
    # the real transpose raises when its map does not split the
    # restriction; the report counts that as a failed item, not an error
    real = functors.enumerate_generated_homs

    def ill_defined(env, d, phi):
        raise NotWellDefined("induced map does not extend the generators")

    def enumerate_then_break(env, target, cap=None):
        found = real(env, target, cap)
        monkeypatch.setattr(envelope, "envelope_transpose", ill_defined)
        return found
    monkeypatch.setattr(functors, "enumerate_generated_homs",
                        enumerate_then_break)
    assert _failing(_ud().items) == ["transpose splits the restriction"]


def test_xud_without_one_morphism_out_of_the_envelope(monkeypatch):
    # the same definition of surjective as for ud: every morphism out of
    # the envelope that is left is still hit
    _drop_last(monkeypatch, "enumerate_xmod_homs",
               when=lambda x, y, *rest: y.flavor == "dias")
    assert _failing(_xud().items) == [
        "cardinalities equal (3 = 4)",
        "transpose lands in the enumerated morphisms"]


def test_xud_with_a_constant_transpose(monkeypatch):
    real = adjunctions.xud_transpose
    first = {}

    def constant(r, target, alpha, beta):
        out = real(r, target, alpha, beta)
        return first.setdefault("out", out)
    monkeypatch.setattr(adjunctions, "xud_transpose", constant)
    assert _failing(_xud().items) == [
        "transpose injective", "transpose surjective",
        "precomposition with the units recovers the original"]


def test_xud_with_zero_units(monkeypatch):
    real = adjunctions.xud_unit_maps
    monkeypatch.setattr(adjunctions, "xud_unit_maps", lambda r: tuple(
        Matrix.zero(u.field, u.rows, u.cols) for u in real(r)))
    assert _failing(_xud().items) == [
        "precomposition with the units recovers the original"]


def test_projection_chain_with_a_lift_that_drops_alpha(monkeypatch):
    _break_row(monkeypatch, ("proj-left", 1), lift=lambda m, h: XmodMorphism(
        m.source, m.target,
        AlgebraMorphism.zero(m.source.actee, m.target.actee), m.beta))
    assert _failing(_chain(("U1'", "J1'"))) == [
        "[0] transposes are valid crossed morphisms",
        "[0] bijection onto the enumerated hom-set"]


def test_projection_chain_without_one_crossed_morphism(monkeypatch):
    _drop_last(monkeypatch, "enumerate_xmod_homs")
    assert _failing(_chain(("U1'", "J1'"))) == [
        "[0] cardinalities equal (4 = 3)",
        "[0] bijection onto the enumerated hom-set"]


def test_embedding_chain_with_a_lift_that_drops_beta(monkeypatch):
    _break_row(monkeypatch, ("emb-left", 1), lift=lambda m, h: XmodMorphism(
        m.source, m.target, m.alpha,
        AlgebraMorphism.zero(m.source.actor, m.target.actor)))
    assert _failing(_chain(("J1'", "U2'"))) == [
        "[0] section by the explicit inverse"]


def test_embedding_chain_with_a_zero_restriction(monkeypatch):
    _break_row(monkeypatch, ("emb-left", 0),
               restrict=lambda m: AlgebraMorphism.zero(m.source.actor,
                                                       m.target.actor))
    assert _failing(_chain(("J0'", "U1'"))) == [
        "[0] restriction is a bijection",
        "[0] section by the explicit inverse"]


def test_embedding_chain_without_one_crossed_morphism(monkeypatch):
    _drop_last(monkeypatch, "enumerate_xmod_homs")
    assert _failing(_chain(("J0'", "U1'"))) == [
        "[0] cardinalities equal (3 = 4)",
        "[0] restriction is a bijection"]
