"""Exact rational arithmetic, rank-three character vectors, and plane geometry.

Everything downstream reduces to predicates defined here: the Euler
pairing on characters, discriminants, the 3-vector cross product and
3x3 determinants, and point-in-polygon tests with explicit edge and
vertex inclusion flags.
No floating point in any decision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .surd import Number, QuadReal, format_rational, parse_rational


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record(cls):
    """Make cls an immutable value record, as dataclass(frozen=True) would.

    The fields are the names annotated in the class body, in order, and a
    class attribute of the same name is a field's default.  The class gets
    ``__init__`` (which then calls ``__post_init__``, if defined),
    ``__repr__``, ``__eq__`` and ``__hash__`` over the fields, except those
    it defines itself; assigning or deleting an attribute raises
    AttributeError.  ``__init__``, ``__eq__`` and ``__hash__`` are compiled
    from source for each class, so they cost what hand-written ones do.  An
    attribute set on the instance but not annotated is derived: it stays
    out of all four.
    """
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    params = ", ".join(f"{n}=_cls.{n}" if n in own else n for n in names)
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    sources = {
        "__init__": (f"def __init__(self, {params}):\n"
                     + "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
                     + ("    self.__post_init__()\n" if "__post_init__" in own else "")),
        "__eq__": ("def __eq__(self, other):\n"
                   "    if other.__class__ is self.__class__:\n"
                   f"        return ({mine}) == ({theirs})\n"
                   "    return NotImplemented\n"),
        "__hash__": f"def __hash__(self):\n    return hash(({mine}))\n",
    }
    space = {"_cls": cls, "_set": object.__setattr__}
    exec("".join(src for name, src in sources.items() if name not in own), space)

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    space["__repr__"] = __repr__
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        if name not in own:
            space[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, space[name])
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def to_fraction(x: Number) -> Fraction:
    """Exact rational value of x, x itself for a Fraction; raises for irrational surds."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, QuadReal):
        return x.as_fraction()
    return Fraction(x)


@_record
class CharVec:
    """A character (ch0, ch1, ch2) with exact rational entries."""

    ch0: Fraction
    ch1: Fraction
    ch2: Fraction

    def __init__(self, ch0, ch1, ch2):
        object.__setattr__(self, "ch0", Fraction(ch0))
        object.__setattr__(self, "ch1", Fraction(ch1))
        object.__setattr__(self, "ch2", Fraction(ch2))

    def __add__(self, other: "CharVec") -> "CharVec":
        return CharVec(self.ch0 + other.ch0, self.ch1 + other.ch1, self.ch2 + other.ch2)

    def __sub__(self, other: "CharVec") -> "CharVec":
        return CharVec(self.ch0 - other.ch0, self.ch1 - other.ch1, self.ch2 - other.ch2)

    def __neg__(self) -> "CharVec":
        return CharVec(-self.ch0, -self.ch1, -self.ch2)

    def scale(self, k) -> "CharVec":
        k = Fraction(k)
        return CharVec(k * self.ch0, k * self.ch1, k * self.ch2)

    def __rmul__(self, k) -> "CharVec":
        return self.scale(k)

    def __iter__(self):
        return iter((self.ch0, self.ch1, self.ch2))

    def is_zero(self) -> bool:
        return self.ch0 == 0 and self.ch1 == 0 and self.ch2 == 0

    def proj(self) -> "AffPt":
        """Projection to the affine plane (ch1/ch0, ch2/ch0)."""
        if self.ch0 == 0:
            raise ValueError("no affine projection: ch0 = 0")
        return AffPt(self.ch1 / self.ch0, self.ch2 / self.ch0)

    def to_json(self) -> list[str]:
        return [format_rational(self.ch0), format_rational(self.ch1), format_rational(self.ch2)]

    @classmethod
    def from_json(cls, items: Sequence[str]) -> "CharVec":
        return cls(*(parse_rational(s) for s in items))


def _scaled_ints(xs: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """A common positive denominator of rationals and the integers it makes."""
    den = math.lcm(*(x.denominator for x in xs))
    return den, tuple(x.numerator * (den // x.denominator) for x in xs)


def _point_ints(p: AffPt) -> tuple[int, int, int]:
    """The integer vector d (1, x, y), d = den(x) den(y) > 0, of a rational point."""
    x, y = to_fraction(p.x), to_fraction(p.y)
    return (x.denominator * y.denominator, x.numerator * y.denominator,
            y.numerator * x.denominator)


def _primitive(v: Sequence[int]) -> tuple[int, tuple[int, int, int]]:
    """(c, v // c) for a nonzero integer 3-vector, c its gcd signed like its
    first nonzero entry, so the primitive vector's first nonzero entry is positive.
    """
    c = math.gcd(*v)
    if (v[0] or v[1] or v[2]) < 0:
        c = -c
    return c, (v[0] // c, v[1] // c, v[2] // c)


def _chi2(v: Sequence[int], w: Sequence[int]) -> int:
    """Twice the Euler pairing, on integer characters (ch0, ch1, 2 ch2).

    For v = (r, c, e) and w = (R, C, E) this is
    2rR + 3(rC - Rc) + rE + Re - 2cC.
    """
    r, c, e = v
    R, C, E = w
    return 2 * r * R + 3 * (r * C - R * c) + r * E + R * e - 2 * c * C


def euler_chi(v: CharVec, w: CharVec) -> Fraction:
    """The (non-symmetric) Euler pairing of two characters, half of _chi2."""
    return Fraction(_chi2((v.ch0, v.ch1, 2 * v.ch2), (w.ch0, w.ch1, 2 * w.ch2))) / 2


def slope(v: CharVec) -> Fraction:
    if v.ch0 == 0:
        raise ValueError("slope undefined: ch0 = 0")
    return v.ch1 / v.ch0


def delta(v: CharVec) -> Fraction:
    """Discriminant (1/2) slope^2 - ch2/ch0."""
    mu = slope(v)
    return mu * mu / 2 - v.ch2 / v.ch0


def cross3(u: Sequence, v: Sequence) -> tuple:
    """The cross product of two 3-vectors (tuples or characters)."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def det3(u: Sequence, v: Sequence, w: Sequence):
    """The determinant of three 3-vectors (tuples or characters)."""
    u0, u1, u2 = u
    k0, k1, k2 = cross3(v, w)
    return u0 * k0 + u1 * k1 + u2 * k2


@_record
class AffPt:
    """A point of the affine (ch1/ch0, ch2/ch0) plane; coordinates may be surds."""

    x: Number
    y: Number

    def delta(self) -> Number:
        return self.x * self.x * Fraction(1, 2) - self.y

    def to_json(self):
        def one(c):
            if isinstance(c, QuadReal) and not c.is_rational:
                return c.to_json()
            if isinstance(c, QuadReal):
                return format_rational(c.a)
            return format_rational(Fraction(c))
        return {"x": one(self.x), "y": one(self.y)}


def collinear(p: AffPt, q: AffPt, r: AffPt) -> bool:
    return det3((1, p.x, p.y), (1, q.x, q.y), (1, r.x, r.y)) == 0


@_record
class ProjLine:
    """A projective line c0*ch0 + c1*ch1 + c2*ch2 = 0 in character coordinates.

    On the affine chart (1, x, y) this is c0 + c1 x + c2 y = 0.
    """

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        if self.c0 == 0 and self.c1 == 0 and self.c2 == 0:
            raise ValueError("degenerate line: all coefficients zero")

    def eval_at(self, p: AffPt) -> Number:
        return self.c0 + self.c1 * p.x + self.c2 * p.y

    def y_at(self, x: Number) -> Number:
        if self.c2 == 0:
            raise ValueError("vertical line has no y(x)")
        return -(self.c0 + self.c1 * x) / self.c2


@_record
class Segment:
    """The clipped piece of a wall line: the closed segment from a to b."""

    a: AffPt
    b: AffPt

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("degenerate segment")


@_record
class Polygon:
    """A simple polygon with per-edge and per-vertex inclusion flags.

    Edge i joins vertices[i] to vertices[i+1] (cyclically).  The region
    may be star-shaped; membership is decided by exact crossing parity.
    The vertices are rational; ``scaled`` holds a common positive
    denominator and the integer vertices it makes.
    """

    vertices: tuple[AffPt, ...]
    edge_included: tuple[bool, ...]
    vertex_included: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n < 3 or len(self.edge_included) != n or len(self.vertex_included) != n:
            raise ValueError("degenerate polygon")
        qs = [(to_fraction(v.x), to_fraction(v.y)) for v in self.vertices]
        area2 = Fraction(0)
        for i in range(n):
            (px, py), (qx, qy) = qs[i], qs[(i + 1) % n]
            if (px, py) == (qx, qy):
                raise ValueError("degenerate polygon: repeated vertex")
            area2 += px * qy - qx * py
        if area2 == 0:
            raise ValueError("degenerate polygon: zero area")
        den, ints = _scaled_ints([c for q in qs for c in q])
        object.__setattr__(self, "scaled", (den, tuple(zip(ints[::2], ints[1::2]))))


def point_in_polygon(p: AffPt, poly: Polygon) -> bool:
    """Exact membership of a rational point with the polygon's inclusion flags.

    The point is decided by _in_polygon_ints on its integer vector; a surd
    point is refused with to_fraction's ValueError.
    """
    return _in_polygon_ints(*_point_ints(p), poly)


def _in_polygon_ints(w: int, X: int, Y: int, poly: Polygon) -> bool:
    """point_in_polygon at the point (X/w, Y/w), for integers with w > 0.

    With the polygon's integer vertices (vx, vy) over its denominator den,
    each vertex relative to the point, times w den > 0, is
    (vx w - X den, vy w - Y den), which keeps every sign of the test, so
    the point is the origin.  The doubled signed area of the origin with
    an edge (a, b) is ax by - ay bx.  Boundary cases are resolved first: a
    vertex at the origin, then an edge of zero area whose ends lie on
    opposite sides of it.  The interior test is even-odd crossing counting
    with a horizontal ray to the right: an edge spanning the ray's level
    (half-open rule) crosses it exactly when its area has the sign of its
    rise, since the origin is strictly off the boundary there.
    """
    den, verts = poly.scaled
    X, Y = X * den, Y * den
    rel = [(vx * w - X, vy * w - Y) for vx, vy in verts]
    for (dx, dy), flag in zip(rel, poly.vertex_included):
        if dx == 0 and dy == 0:
            return flag
    crossings = 0
    for (ax, ay), (bx, by), flag in zip(rel, rel[1:] + rel[:1], poly.edge_included):
        area = ax * by - ay * bx
        if area == 0 and ax * bx + ay * by < 0:
            return flag
        rises = by > 0
        if (ay > 0) != rises and (area > 0) == rises:
            crossings += 1
    return crossings % 2 == 1
