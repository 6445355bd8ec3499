import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diacat import documents, fixtures
from diacat.algebra import abelian_algebra
from diacat.batteries import _BATTERIES, _Named
from diacat.cli import main
from diacat.errors import ParseError
from diacat.fields import GF, QQ


def test_document_round_trip_every_fixture():
    for name in fixtures.names():
        doc = fixtures.document(name)
        if documents.document_kind(doc) == "algebra":
            obj = documents.algebra_from_document(
                doc, check=fixtures.info(name).valid)
            doc2 = documents.algebra_to_document(obj)
        else:
            obj = documents.xmod_from_document(doc)
            doc2 = documents.xmod_to_document(obj)
        assert doc == doc2, name


def test_canonical_json_is_stable():
    doc = fixtures.document("leibniz-ff-e")
    t1 = documents.canonical_json(doc)
    t2 = documents.canonical_json(json.loads(t1))
    assert t1 == t2
    assert t1.endswith("\n")


def test_field_document_forms():
    assert documents.field_to_document(QQ) == {"field": "Q"}
    assert documents.field_to_document(GF(5)) == {"field": "Fp", "p": 5}
    assert documents.field_from_document({"field": "Q"}) == QQ
    assert documents.field_from_document({"field": "Fp", "p": 3}) == GF(3)
    with pytest.raises(ParseError):
        documents.field_from_document({"field": "R"})


def test_parse_errors_are_positioned():
    doc = fixtures.document("leibniz-ff-e")
    bad = json.loads(json.dumps(doc))
    bad["bracket"][0][3] = "1/0"
    with pytest.raises(ParseError) as exc:
        documents.algebra_from_document(bad)
    assert "bracket" in str(exc.value)
    bad2 = json.loads(json.dumps(doc))
    bad2["bracket"][0][0] = 7
    with pytest.raises(ParseError):
        documents.algebra_from_document(bad2)
    bad3 = json.loads(json.dumps(doc))
    bad3["bracket"][0] = [0, 0, 0]
    with pytest.raises(ParseError):
        documents.algebra_from_document(bad3)


def test_rational_coefficients_accepted():
    doc = fixtures.document("leibniz-ff-e")
    doc = json.loads(json.dumps(doc))
    doc["bracket"][0][3] = "3/7"
    g = documents.algebra_from_document(doc)
    assert g.field is QQ or g.field == QQ
    doc["bracket"][0][3] = "5"
    assert documents.algebra_from_document(doc).check().passed


def _run_main(args):
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


def test_cli_check_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    rc, text = _run_main(["fixtures", "emit", "leibniz-ff-e-f2",
                          "--out", str(good)])
    assert rc == 0
    rc, text = _run_main(["check", str(good)])
    assert rc == 0
    rep = json.loads(text)
    assert rep["passed"] and rep["flavor"] == "lb"

    bad = tmp_path / "bad.json"
    rc, _ = _run_main(["fixtures", "emit", "dias-not-assoc-1",
                       "--out", str(bad)])
    assert rc == 0
    rc, text = _run_main(["check", str(bad)])
    assert rc == 1
    rep = json.loads(text)
    assert not rep["passed"]
    failing = [it for it in rep["items"] if not it["passed"]]
    assert failing and failing[0]["where"] is not None

    malformed = tmp_path / "malformed.json"
    doc = json.loads(good.read_text())
    doc["bracket"][0][3] = "1/0"
    malformed.write_text(json.dumps(doc))
    assert main(["check", str(malformed)]) == 2

    assert main(["check", str(tmp_path / "missing.json")]) == 2


def test_cli_check_flavor_override(tmp_path):
    # a Lie document also satisfies the Leibniz axioms under override
    path = tmp_path / "lie.json"
    assert _run_main(["fixtures", "emit", "lie-abelian-1-f2",
                      "--out", str(path)])[0] == 0
    rc, text = _run_main(["check", str(path), "--flavor-override", "lb"])
    assert rc == 0
    assert json.loads(text)["flavor"] == "lb"


@pytest.mark.parametrize("name, override, keys", [
    ("free-dias-1-2-f2", "lb", "['left', 'right']"),
    ("as-nilp-2-f2", "lie", "['product']"),
    ("leibniz-ff-e-f2", "dias", "['bracket']"),
    ("xdias-zero-f2", "as", "['left', 'right']"),
])
def test_cli_check_override_never_drops_another_flavors_products(
        tmp_path, capsys, name, override, keys):
    # read under the override, these products would count as zero and pass
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(fixtures.document(name)))
    capsys.readouterr()
    rc = main(["check", str(path), "--flavor-override", override])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert f"keys {keys} are products of another flavor" in err


@pytest.mark.parametrize("name, override, slots, owner", [
    ("xlb-ideal-e-f2", "lie", "['gq', 'qg']", "lb"),
    ("xlie-abelian-pair-f2", "lb", "['pm']", "lie"),
])
def test_cli_check_override_of_a_crossed_module_names_its_slots(
        tmp_path, capsys, name, override, slots, owner):
    # lb and lie share the product key, so only the action slots differ
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(fixtures.document(name)))
    capsys.readouterr()
    rc = main(["check", str(path), "--flavor-override", override])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert (f"action slots {slots} belong to flavor {owner}, not "
            f"{override}: a crossed-module document cannot be re-read under "
            "another flavor") in err


def test_cli_construct_dims_and_trunc(tmp_path):
    rc, text = _run_main(["construct", "Ud", "leibniz-ff-e-f2",
                          "--trunc", "2"])
    assert rc == 0
    doc = json.loads(text)
    assert doc["flavor"] == "dias" and doc["dim"] == 3
    assert main(["construct", "Ud", "leibniz-ff-e-f2"]) == 2
    assert main(["construct", "frobnicate", "leibniz-ff-e-f2"]) == 2
    assert main(["construct", "Ud", "no-such-input", "--trunc", "2"]) == 2

    out = tmp_path / "out.json"
    rc, text = _run_main(["construct", "XUd", "xlb-ideal-e-f2",
                          "--trunc", "2", "--out", str(out)])
    assert rc == 0
    report = json.loads(text)
    assert report["dims"] == [3, 3]
    written = json.loads(out.read_text())
    xm = documents.xmod_from_document(written)
    assert xm.check().passed


def test_cli_construct_envelope_of_zero_leibniz_document(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(documents.algebra_to_document(
        abelian_algebra("lb", GF(2), 0))))
    rc, text = _run_main(["construct", "Ud", str(path), "--trunc", "2"])
    assert rc == 0
    doc = json.loads(text)
    assert doc["flavor"] == "dias" and doc["dim"] == 0


def test_cli_construct_roundtrips():
    rc, text = _run_main(["construct", "roundtrip-cat1", "xlb-ideal-e-f2"])
    assert rc == 0
    back = documents.xmod_from_document(json.loads(text))
    assert back.same_structure(fixtures.get("xlb-ideal-e-f2"))
    rc, _ = _run_main(["construct", "roundtrip-internal",
                       "xdias-ideal-incl-f2"])
    assert rc == 0


def test_roundtrip_reports_equal_then_isomorphism():
    from diacat.algebra import BilinearMap, make_algebra
    from diacat.batteries import _roundtrip
    from diacat.functors import embed

    def lb(triples):
        return make_algebra("lb", GF(2), [BilinearMap.from_triples(
            GF(2), 2, 2, 2, triples)])

    # [e0, e0] = e1 and [e1, e1] = e0: isomorphic by the swap, not equal
    x = embed("J1'", lb([(0, 0, 1, 1)]))
    y = embed("J1'", lb([(1, 1, 0, 1)]))
    assert _roundtrip(x, x, None) == (True, "equal")
    assert _roundtrip(x, y, None) == (True, "isomorphism")
    assert _roundtrip(x, embed("J1'", lb([])), None) == (False, "isomorphism")


def test_cli_verify_exit_codes():
    assert _run_main(["verify", "square:LbDias-XUd-J0"])[0] == 0
    assert _run_main(["verify", "equivalence:internal"])[0] == 0
    assert main(["verify", "nonsense"]) == 2
    assert main(["verify", "square:no-such-square"]) == 2
    assert main(["verify", "adjunction:ud", "--cap", "1"]) == 3
    # wrong-kind or wrong-flavor explicit fixture
    assert main(["verify", "square:2.8-outer", "leibniz-ff-e-f2"]) == 2
    assert main(["verify", "parallelepiped", "free-dias-1-2"]) == 2
    # the batteries that run fixed pairs take no fixture names
    for what, battery in _BATTERIES.items():
        if isinstance(battery.inputs, _Named):
            continue
        for name in ("no-such-fixture", "leibniz-ff-e-f2"):
            assert _run_main(["verify", what, name]) == (2, "")


SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env(hash_seed):
    # cwd="/" would turn a relative PYTHONPATH (such as "src") into "/src",
    # so the child gets the absolute src directory first.  A size cap set by
    # the caller is dropped: test_cli_env_cap covers it, this test does not.
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env.pop("DIACAT_MAX_DIM", None)
    return env


def test_cli_verify_reports_are_byte_reproducible():
    cmd = [sys.executable, "-m", "diacat.cli", "verify", "square:AsDias-I0"]
    a = subprocess.run(cmd, capture_output=True, cwd="/", env=_child_env(0))
    b = subprocess.run(cmd, capture_output=True, cwd="/", env=_child_env(1))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.decode().startswith("{")


def test_cli_fixtures_list_and_emit():
    rc, text = _run_main(["fixtures", "list"])
    assert rc == 0
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) >= 12
    rc, text = _run_main(["fixtures", "emit", "free-dias-1-2"])
    assert rc == 0
    doc = json.loads(text)
    assert doc["dim"] == 3 and doc["flavor"] == "dias"
    assert main(["fixtures", "emit"]) == 2
    assert main(["fixtures", "emit", "nope"]) == 2


def test_cli_env_cap(monkeypatch):
    monkeypatch.setenv("DIACAT_MAX_DIM", "1")
    assert main(["verify", "adjunction:ud"]) == 3
    monkeypatch.setenv("DIACAT_MAX_DIM", "banana")
    assert main(["verify", "adjunction:ud"]) == 2


def test_non_string_flavor_is_a_parse_error(tmp_path):
    for name in ("leibniz-ff-e-f2", "xlb-ideal-e-f2"):
        doc = fixtures.document(name)
        doc["flavor"] = []
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        rc, text = _run_main(["check", str(path)])
        assert (rc, text) == (2, ""), name


def test_construct_on_input_failing_its_axioms_exits_1(tmp_path, capsys):
    # the fixture by name, like its document, fails the dialgebra axioms
    # when it is read
    path = tmp_path / "bad.json"
    assert main(["fixtures", "emit", "dias-not-assoc-1",
                 "--out", str(path)]) == 0
    for source in ("dias-not-assoc-1", str(path)):
        capsys.readouterr()
        assert main(["construct", "LB", source]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("failure: "), source
