"""Rationals hold an integral scalar as an ``int`` and any other as a
``Fraction``: every operation agrees in value with plain ``Fraction``
arithmetic, and its result is an ``int`` exactly when it is integral."""

import random
from fractions import Fraction

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
