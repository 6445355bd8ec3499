"""Coefficient fields for exact linear algebra.

Scalars are plain Python values.  Over the rationals an integral scalar is
an ``int``, so that integer arithmetic costs what ``int`` arithmetic costs,
and any other is a ``fractions.Fraction`` (lowest terms, positive
denominator); an ``int`` and a ``Fraction`` of equal value compare, hash
and format alike.  Over a prime field a scalar is an int in ``[0, p)``.
Containers (matrices, tensors, algebras) carry the ``Field`` descriptor;
the descriptor supplies the arithmetic.  ``fractions`` is imported by the
three operations that build a ``Fraction`` (``Rationals.of``, ``inv`` and
``parse``) when they run, so a job over a prime field never loads it.

The sparse-vector helpers ``sp_add_into``, ``sp_from_dense`` and
``sp_to_dense`` live here, below both ``linalg`` and ``algebra``: the axiom
checker runs on them without loading ``linalg``, which re-exports them.
"""

from __future__ import annotations

from .errors import ParseError


class Field:
    name: str

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def of(self, x):
        """Coerce an int (or scalar of this field) into the field."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == self.zero()

    def parse(self, text):
        """Parse a coefficient string such as "5", "-2" or "3/7"."""
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def elements(self):
        """Iterate all field elements; only finite fields support this."""
        raise NotImplementedError(f"{self.name} is not finite")

    def __repr__(self):
        return self.name


def _integral(q):
    """A rational as an ``int`` when its denominator is 1."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


class Rationals(Field):
    name = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, x):
        if type(x) is int:
            return x
        from fractions import Fraction
        return _integral(Fraction(x))

    def add(self, a, b):
        return _integral(a + b)

    def sub(self, a, b):
        return _integral(a - b)

    def mul(self, a, b):
        return _integral(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        from fractions import Fraction
        return _integral(1 / Fraction(a))

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        from fractions import Fraction
        try:
            return _integral(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational coefficient {text!r}: {exc}") from exc

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


# Miller-Rabin on the first thirteen primes as bases decides primality of
# every n below PRIME_BOUND (Sorenson and Webster, 2015); the first twelve
# alone are fooled by the composite 318665857834031151167461
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND."""
    if n < 2 or any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1     # n - 1 = d 2^s with d odd
    for b in _BASES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise ValueError(f"modulus {p} is not below {PRIME_BOUND}, "
                             "where primality is decided exactly")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def of(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, text):
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                d = self.of(int(den))
                if d == 0:
                    raise ParseError(f"bad coefficient {text!r}: zero denominator mod {self.p}")
                return self.mul(self.of(int(num)), self.inv(d))
            return self.of(int(text))
        except ValueError as exc:
            raise ParseError(f"bad coefficient {text!r} over {self.name}: {exc}") from exc

    def format(self, a):
        return str(a % self.p)

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


# ---------------------------------------------------------------------------
# sparse vectors: dicts from index to nonzero scalar


def sp_add_into(field, acc: dict, other: dict, scale=None):
    for k, c in other.items():
        if scale is not None:
            c = field.mul(scale, c)
        if k in acc:
            s = field.add(acc[k], c)
            if field.is_zero(s):
                del acc[k]
            else:
                acc[k] = s
        elif not field.is_zero(c):
            acc[k] = c


def sp_from_dense(field, v) -> dict:
    return {i: c for i, c in enumerate(v) if not field.is_zero(c)}


def sp_to_dense(field, d: dict, n) -> list:
    out = [field.zero()] * n
    for k, c in d.items():
        out[k] = c
    return out
