"""Exact arithmetic for numbers of the form a + b*sqrt(d).

Values of this shape show up as intersection points of rational lines
with the rank-normalized discriminant parabolas.  All predicates here
(sign, comparison, equality) are decided by rational arithmetic alone;
floating point is used only for display.

The exact kernels live here alone: the signs of u + v*sqrt(d) (_root_sign)
and of r + b1*sqrt(d1) + b2*sqrt(d2) (_mixed_sign) on ints or Fractions,
and the order (_form_sign) and floor (_floor_form) of integer forms
(P + Q*sqrt(D))/S.  QuadReal and the segment walk of lepotier call them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Union

RationalLike = Union[int, Fraction]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                 61, 67, 71, 73, 79, 83, 89, 97)

_FACTOR_LIMIT = 10**12

# the digit limit Python puts on int text; a decimal exponent above it would
# make Fraction build a power of ten of that many digits
MAX_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', 'p', or a decimal string into an exact Fraction."""
    try:
        _, e, exponent = text.lower().partition("e")
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise ValueError("decimal exponent out of range")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _reduce_radicand(b: Fraction, d: int) -> tuple[Fraction, int]:
    """Pull square factors out of d, folding them into b.

    Radicands up to _FACTOR_LIMIT are made fully square-free.  Huge
    radicands (they appear at larger recursion depths, where full
    factorization is not feasible) only get square factors of small
    primes removed; every predicate in this module is exact regardless
    of square-freeness.
    """
    if d < 0:
        raise ValueError("negative radicand")
    if d in (0, 1):
        return b * d, 0
    root = math.isqrt(d)
    if root * root == d:
        return b * root, 0
    s = 1
    for p in _SMALL_PRIMES:
        p2 = p * p
        while d % p2 == 0:
            d //= p2
            s *= p
    if d <= _FACTOR_LIMIT:
        # strip every factor up to the cube root of the cofactor, keeping
        # odd powers in core; the cofactor is then 1, a prime, a prime
        # squared or a product of two primes
        core, f = 1, 2
        while f * f * f <= d:
            if d % f:
                f += 1 if f == 2 else 2
            elif d % (f * f):
                d //= f
                core *= f
            else:
                d //= f * f
                s *= f
        root = math.isqrt(d)
        if root * root == d:
            s, d = s * root, 1
        d *= core
    return b * s, d


def _root_sign(u: RationalLike, v: RationalLike, d: int) -> int:
    """Sign of u + v*sqrt(d) for rational u, v and an integer d >= 0, by comparing squares."""
    su, sv = (u > 0) - (u < 0), ((v > 0) - (v < 0)) if d else 0
    if su * sv >= 0:
        return su or sv
    t = u * u - v * v * d
    return su if t > 0 else -su if t < 0 else 0


def _mixed_sign(r: RationalLike, b1: RationalLike, d1: int, b2: RationalLike, d2: int) -> int:
    """Exact sign of r + b1*sqrt(d1) + b2*sqrt(d2) for d1 > 0 and d2 >= 0."""
    # u = b1*sqrt(d1) + b2*sqrt(d2) has the sign of sqrt(d1) u = b1 d1 + b2 sqrt(d1 d2)
    su, sr = _root_sign(b1 * d1, b2, d1 * d2), (r > 0) - (r < 0)
    if su * sr >= 0:
        return sr or su
    # r and u have opposite signs: compare r^2 with u^2 = b1^2 d1 + b2^2 d2 + 2 b1 b2 sqrt(d1 d2)
    return sr * _root_sign(r * r - b1 * b1 * d1 - b2 * b2 * d2, -2 * b1 * b2, d1 * d2)


def _form_sign(u: tuple, v: tuple) -> int:
    """Sign of u - v for forms (P, Q, D, S) = (P + Q*sqrt(D))/S, S > 0, on integers.

    Times S_u S_v the difference is T + B_u sqrt(D_u) + B_v sqrt(D_v).
    """
    (p1, q1, d1, s1), (p2, q2, d2, s2) = u, v
    t, b1, b2 = p1 * s2 - p2 * s1, q1 * s2, -q2 * s1
    if q1 == 0:
        return _root_sign(t, b2, d2)
    if q2 == 0 or d1 == d2:
        return _root_sign(t, b1 + b2, d1)
    return _mixed_sign(t, b1, d1, b2, d2)


def _floor_form(p: int, q: int, d: int, s: int) -> int:
    """Floor of (P + Q*sqrt(D))/S for integers P, Q, D >= 0 and S > 0, D > 0 if Q < 0.

    It is the floor of (P + floor(Q sqrt(D)))/S, and floor(Q sqrt(D)) is
    isqrt(Q^2 D) for Q >= 0 and -ceil(sqrt(Q^2 D)) = -1 - isqrt(Q^2 D - 1)
    for Q < 0.
    """
    n = q * q * d
    return (p + (math.isqrt(n) if q >= 0 else -1 - math.isqrt(n - 1))) // s


@total_ordering
class QuadReal:
    """a + b*sqrt(d) with rational a, b and a nonnegative integer d.

    Rational values are normalized to b == 0, d == 0.  The radicand is
    reduced once, when a value is built from outside; arithmetic keeps
    its operands' radicand as it is.  Arithmetic stays within one
    quadratic extension; adding surds over distinct radicands raises,
    but comparisons across radicands are exact.  Operands are coerced
    in one place, ``_coerce``: an int or Fraction becomes a QuadReal and
    any other operand raises TypeError, except that ``==`` with one is
    False.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 0):
        a, b = Fraction(a), Fraction(b)
        if b != 0:
            b, d = _reduce_radicand(b, int(d))
            if d == 0:
                # the radicand was a perfect square: fold into the rational part
                a, b = a + b, Fraction(0)
        else:
            d = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _over(cls, a: Fraction, b: Fraction, d: int) -> "QuadReal":
        """a + b*sqrt(d) for a radicand d that is already reduced."""
        out = object.__new__(cls)
        object.__setattr__(out, "a", a)
        object.__setattr__(out, "b", b)
        object.__setattr__(out, "d", d if b != 0 else 0)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QuadReal is immutable")

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("irrational quadratic value")
        return self.a

    @staticmethod
    def _coerce(x: "QuadReal | RationalLike") -> "QuadReal":
        if isinstance(x, QuadReal):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadReal(x)
        raise TypeError(f"unsupported operand for QuadReal: {type(x).__name__}")

    def _compatible(self, other: "QuadReal") -> int:
        if self.b == 0 or other.b == 0 or self.d == other.d:
            return self.d if self.b != 0 else other.d
        raise ValueError("values live in different quadratic extensions")

    def __add__(self, other):
        o = self._coerce(other)
        d = self._compatible(o)
        return QuadReal._over(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadReal._over(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        d = self._compatible(o)
        return QuadReal._over(self.a * o.a + self.b * o.b * d,
                              self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadReal":
        if self.sign() == 0:
            raise ZeroDivisionError("division by zero")
        n = self.a * self.a - self.b * self.b * self.d
        # n == 0 would force a = b sqrt(d) with d square-ish; sign()==0 already caught value 0
        return QuadReal._over(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def sign(self) -> int:
        return _root_sign(self.a, self.b, self.d)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if self.b == 0 or o.b == 0 or self.d == o.d:
            return (self - o).sign()
        return _mixed_sign(self.a - o.a, self.b, self.d, -o.b, o.d)

    def __eq__(self, other):
        if not isinstance(other, (QuadReal, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        raise TypeError("irrational QuadReal is unhashable")

    def __floor__(self) -> int:
        # the value is (P + Q sqrt(d))/S in integers, S > 0
        s = math.lcm(self.a.denominator, self.b.denominator)
        return _floor_form(self.a.numerator * (s // self.a.denominator),
                           self.b.numerator * (s // self.b.denominator), self.d, s)

    def __float__(self) -> float:
        try:
            return float(self.a) + float(self.b) * math.sqrt(self.d)
        except OverflowError:
            # d is past the float range: take b sqrt(d) as one root of b^2 d
            return float(self.a) + math.copysign(math.sqrt(self.b * self.b * self.d), self.b)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadReal({self.a})"
        return f"QuadReal({self.a} + {self.b}*sqrt({self.d}))"

    def to_json(self) -> dict:
        return {"a": format_rational(self.a), "b": format_rational(self.b), "d": self.d}

    @classmethod
    def from_json(cls, obj: dict) -> "QuadReal":
        return cls(parse_rational(obj["a"]), parse_rational(obj["b"]), int(obj["d"]))


Number = Union[int, Fraction, QuadReal]


def nsign(x: Number) -> int:
    """Sign of a rational or quadratic number."""
    if isinstance(x, QuadReal):
        return x.sign()
    return (x > 0) - (x < 0)
