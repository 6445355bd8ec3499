"""Rationals hold an integral scalar as an ``int`` and any other as a
``Fraction``: every operation agrees in value with plain ``Fraction``
arithmetic, and its result is an ``int`` exactly when it is integral.
``fractions`` is loaded by the first rational operation that needs it, not
by importing the command line."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from diacat.fields import QQ

SEED = 20261020


def _scalars():
    """Seeded integral, non-integral and negative scalars, and the parsed
    strings "3/1" and "-4/2", which are integral."""
    rng = random.Random(SEED)
    out = [QQ.zero(), QQ.one(), QQ.parse("3/1"), QQ.parse("-4/2")]
    for _ in range(12):
        out.append(QQ.of(rng.randint(-9, 9)))
        out.append(QQ.of(Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
        out.append(QQ.parse(f"{rng.randint(-20, 20)}/{rng.randint(1, 8)}"))
    return out


def _held_as_int_when_integral(value, expected):
    assert value == expected
    assert (type(value) is int) == (expected.denominator == 1), value
    assert QQ.format(value) == str(expected)


def test_parsed_integral_strings_are_ints():
    assert (QQ.parse("3/1"), QQ.parse("-4/2")) == (3, -2)
    assert type(QQ.parse("3/1")) is int and type(QQ.parse("-4/2")) is int
    assert type(QQ.zero()) is int and type(QQ.one()) is int


def test_rational_operations_agree_with_fractions():
    scalars = _scalars()
    assert any(type(a) is int for a in scalars)
    assert any(type(a) is Fraction for a in scalars)
    assert any(a < 0 for a in scalars)
    for a in scalars:
        fa = Fraction(a)
        _held_as_int_when_integral(a, fa)
        _held_as_int_when_integral(QQ.neg(a), -fa)
        assert QQ.is_zero(a) == (fa == 0)
        if fa:
            _held_as_int_when_integral(QQ.inv(a), 1 / fa)
        for b in scalars:
            fb = Fraction(b)
            _held_as_int_when_integral(QQ.add(a, b), fa + fb)
            _held_as_int_when_integral(QQ.sub(a, b), fa - fb)
            _held_as_int_when_integral(QQ.mul(a, b), fa * fb)
            if fb:
                _held_as_int_when_integral(QQ.div(a, b), fa / fb)


SRC = Path(__file__).resolve().parents[1] / "src"

# a fresh interpreter: import the command line, then run rational
# operations that build a ``Fraction``; print what each gave, as JSON
LAZY_FRACTIONS = """\
import json, sys
import diacat.cli
from diacat.errors import ParseError
from diacat.fields import QQ
out = {"loaded": "fractions" in sys.modules}
parsed = QQ.parse("6/4")
from fractions import Fraction
values = [parsed, QQ.of(Fraction(4, 2)), QQ.inv(3)]
out["values"] = [[repr(v), type(v).__name__] for v in values]
out["errors"] = []
for text in ("1/0", "x"):
    try:
        QQ.parse(text)
    except ParseError as exc:
        out["errors"].append(str(exc))
print(json.dumps(out))
"""


def test_rationals_load_fractions_when_they_first_need_it():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", LAZY_FRACTIONS], env=env,
                         check=True, capture_output=True, text=True)
    assert json.loads(run.stdout) == {
        "loaded": False,
        "values": [["Fraction(3, 2)", "Fraction"], ["2", "int"],
                   ["Fraction(1, 3)", "Fraction"]],
        "errors": ["bad rational coefficient '1/0': Fraction(1, 0)",
                   "bad rational coefficient 'x': Invalid literal for "
                   "Fraction: 'x'"]}
