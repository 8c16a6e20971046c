"""Central charges on the character lattice and exact phase machinery.

A charge in normal form is determined by a point (s, q) of the geometric
region: it sends a character to the complex number

    (-ch2 + q*ch0) + i*(ch1 - s*ch0).

This module evaluates charges exactly, decides heart membership of sheaf
classes at the character level, compares phases without ever computing a
floating-point argument, tests stability of exceptional bundles through
the segment criterion, and recovers the normal form (s, q) of a general
nondegenerate charge from its kernel line.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Optional, Union

from .corekit import (AffPt, CharVec, _point_ints, _primitive, _record, _scaled_ints, cross3,
                      slope, to_fraction)
from .exceptional import ExcBundle, _int_char

# lepotier is imported inside the three functions that decide region
# membership, so evaluating a charge loads no curve code


@_record
class RatComplex:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __add__(self, other: "RatComplex") -> "RatComplex":
        return RatComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "RatComplex") -> "RatComplex":
        return RatComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "RatComplex":
        return RatComplex(-self.re, -self.im)

    def __mul__(self, other: "RatComplex") -> "RatComplex":
        return RatComplex(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)

    def scale(self, k) -> "RatComplex":
        k = Fraction(k)
        return RatComplex(k * self.re, k * self.im)

    def __rmul__(self, k) -> "RatComplex":
        return self.scale(k)

    def cross(self, other: "RatComplex") -> Fraction:
        """Signed area with the other value; zero iff real-proportional."""
        return self.re * other.im - self.im * other.re

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def approx(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


@_record
class SQCharge:
    """A charge in normal form, anchored at the kernel point (1, s, q).

    Constructing through ``at`` verifies that (s, q) lies in the
    geometric region at the requested depth; the plain constructor
    does not.
    """

    s: Fraction
    q: Fraction

    def __init__(self, s, q):
        object.__setattr__(self, "s", Fraction(s))
        object.__setattr__(self, "q", Fraction(q))

    @classmethod
    def at(cls, s, q, depth: int) -> "SQCharge":
        from .lepotier import RegionClass, classify_point
        s = Fraction(s)
        q = Fraction(q)
        if classify_point(AffPt(s, q), depth) is not RegionClass.GEO_LP:
            raise ValueError("(s, q) is not inside the geometric region")
        return cls(s, q)

    @property
    def point(self) -> AffPt:
        return AffPt(self.s, self.q)

    def as_general(self) -> "GeneralCharge":
        return GeneralCharge(w0=RatComplex(self.q, -self.s),
                             w1=RatComplex(0, 1),
                             w2=RatComplex(-1, 0))


@_record
class GeneralCharge:
    """An arbitrary exact linear map from characters to complex numbers.

    The value on a character x is  w0*ch0(x) + w1*ch1(x) + w2*ch2(x)
    with rational-complex coefficients.  Degenerate maps (image inside
    a real line) are representable; ``kernel_point`` rejects them.
    """

    w0: RatComplex
    w1: RatComplex
    w2: RatComplex

    @classmethod
    def from_ab(cls, a: RatComplex, b: RatComplex) -> "GeneralCharge":
        """The charge -ch2 + a*ch1 + b*ch0."""
        return cls(w0=b, w1=a, w2=RatComplex(-1, 0))


Charge = Union[SQCharge, GeneralCharge]


def z_eval(Z: Charge, v: CharVec) -> RatComplex:
    """Exact complex value of the charge on a character."""
    if isinstance(Z, SQCharge):
        return RatComplex(-v.ch2 + Z.q * v.ch0, v.ch1 - Z.s * v.ch0)
    return Z.w0.scale(v.ch0) + Z.w1.scale(v.ch1) + Z.w2.scale(v.ch2)


@_record
class ShiftedChar:
    """A character with a homological shift, standing for E[n].

    The character is taken on trust as the class of a slope-semistable
    sheaf (or torsion sheaf); phases are only meaningful under that
    reading.
    """

    char: CharVec
    shift: int = 0

    def to_json(self) -> dict:
        return {"char": self.char.to_json(), "shift": self.shift}

    @classmethod
    def from_json(cls, obj: dict) -> "ShiftedChar":
        return cls(CharVec.from_json(obj["char"]), int(obj["shift"]))


class HeartPos(enum.Enum):
    IN_HEART = "InHeart"
    NEEDS_SHIFT_ONE = "NeedsShiftOne"
    TORSION = "Torsion"


def heart_position(s, x: Union[ExcBundle, CharVec], *,
                   declared_sheaf: bool = False) -> HeartPos:
    """Locate a sheaf class relative to the slope-s tilted heart.

    Positive-rank classes land in the heart when their slope exceeds s
    and need a single shift otherwise; rank-zero classes are torsion and
    always lie in the heart.  A bare character carries no torsion-freeness
    information, so plain CharVec input must be declared as the class of
    a slope-semistable sheaf by the caller.
    """
    if isinstance(x, ExcBundle):
        v = x.char
    else:
        if not declared_sheaf:
            raise ValueError(
                "torsion-freeness cannot be read off a character; "
                "pass declared_sheaf=True for a slope-semistable sheaf class")
        v = x
    if v.is_zero():
        raise ValueError("zero class has no heart position")
    if v.ch0 == 0:
        return HeartPos.TORSION
    if v.ch0 < 0:
        raise ValueError("sheaf classes have nonnegative rank")
    return HeartPos.IN_HEART if slope(v) > to_fraction(s) else HeartPos.NEEDS_SHIFT_ONE


def _heart_shift(s: Fraction, v: CharVec) -> int:
    pos = heart_position(s, v, declared_sheaf=True)
    return 1 if pos is HeartPos.NEEDS_SHIFT_ONE else 0


def in_upper(re, im) -> bool:
    """Whether the direction (re, im) has an angle in (0, 1] half-turns.

    These are the vectors with positive imaginary part, or zero
    imaginary part and negative real part.
    """
    return im > 0 or (im == 0 and re < 0)


def _upper_ray(re, im) -> tuple[int, int, int]:
    """Flip a nonzero rational pair into the upper half-plane, in integers.

    Returns (p, q, j): (p, q) is the primitive integer vector on the ray
    of (-1)^j * (re, im), which lies in the upper half-plane of
    ``in_upper``.  Fractions are accepted; _upper_ray_ints takes integers.
    """
    return _upper_ray_ints(re.numerator * im.denominator, im.numerator * re.denominator)


def _upper_ray_ints(p: int, q: int) -> tuple[int, int, int]:
    j = 0
    if q < 0 or q == 0 and p > 0:
        p, q, j = -p, -q, 1
    elif q == 0 and p == 0:
        raise ValueError("zero vector has no direction")
    g = math.gcd(p, q)
    return p // g, q // g, j


def _angle_cmp(p: int, q: int, r: int, s: int) -> int:
    """-1, 0 or 1 as the angle of the upper direction (p, q) is below, at
    or above the angle of (r, s).

    Both angles lie in (0, 1] half-turns, so they differ by less than a
    half-turn and the sign of the cross product orders them.
    """
    c = q * r - p * s
    return (c > 0) - (c < 0)


@_record
class Phase(object):
    """An exact phase k + a, with a in (0, 1] the angle of a direction.

    The direction (re, im) is stored as a primitive integer vector in
    the closed upper half-plane minus the positive real axis, so that
    its angle, measured in half-turns, lies in (0, 1].  The value of
    the phase is k plus that angle.  Comparisons are exact; the angle
    itself is only materialized approximately for display.
    """

    re: int
    im: int
    k: int = 0

    def __init__(self, re, im, k: int = 0):
        re = Fraction(re)
        im = Fraction(im)
        if re == 0 and im == 0:
            raise ValueError("zero vector has no phase")
        if not in_upper(re, im):
            raise ValueError("phase direction must lie in the upper half-plane")
        p, q, _ = _upper_ray(re, im)
        object.__setattr__(self, "re", p)
        object.__setattr__(self, "im", q)
        object.__setattr__(self, "k", int(k))

    @classmethod
    def _of(cls, re: int, im: int, k: int) -> "Phase":
        """A phase from a primitive upper direction, without the checks."""
        out = object.__new__(cls)
        out.__dict__.update(re=re, im=im, k=k)
        return out

    def shifted(self, n: int) -> "Phase":
        return Phase._of(self.re, self.im, self.k + n)

    def exact_value(self) -> Optional[Fraction]:
        """The value as a rational, when the angle is a quarter multiple."""
        if self.im == 0:
            return Fraction(self.k + 1)
        if self.re == 0:
            return self.k + Fraction(1, 2)
        if self.re == -self.im:
            return self.k + Fraction(3, 4)
        if self.re == self.im:
            return self.k + Fraction(1, 4)
        return None

    def approx(self) -> float:
        return self.k + math.atan2(self.im, self.re) / math.pi

    def compare(self, other: "Phase") -> int:
        if self.k != other.k:
            return -1 if self.k < other.k else 1
        return _angle_cmp(self.re, self.im, other.re, other.im)

    def __lt__(self, other: "Phase") -> bool:
        return self.compare(other) < 0

    # a > b and a >= b are answered by b < a and b <= a
    def __le__(self, other: "Phase") -> bool:
        return self.compare(other) <= 0

    def __str__(self) -> str:
        exact = self.exact_value()
        if exact is not None:
            return str(exact)
        return f"~{self.approx():.6f}"


class PhaseOrder(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def _phase_of(Z: SQCharge, x: ShiftedChar) -> Phase:
    z0 = z_eval(Z, x.char)
    if z0.is_zero():
        raise ValueError("class in kernel")
    h = _heart_shift(Z.s, x.char)
    u = -z0 if h % 2 else z0
    if not in_upper(u.re, u.im):
        raise ValueError("charge value falls outside the heart half-plane")
    return Phase(u.re, u.im, x.shift - h)


def phase(Z: SQCharge, x: ShiftedChar) -> Phase:
    """Exact phase of a heart object, a value in (0, 1].

    The shift must match the heart position of the underlying class:
    zero for classes already in the heart (including torsion), one for
    positive-rank classes of slope at most s.
    """
    if z_eval(Z, x.char).is_zero():
        raise ValueError("class in kernel")
    h = _heart_shift(Z.s, x.char)
    if x.shift != h:
        raise ValueError("shift inconsistent with the heart position")
    return _phase_of(Z, x)


def phase_less(Z: SQCharge, x: ShiftedChar, y: ShiftedChar) -> PhaseOrder:
    """Exact phase comparison of two shifted classes under one charge.

    Each homological shift adds one to the phase; the comparison itself
    reduces to integer ordering plus a cross-product sign, with no
    floating-point in the path.
    """
    c = _phase_of(Z, x).compare(_phase_of(Z, y))
    return PhaseOrder(c)


class StabResult(enum.Enum):
    STABLE_UNSHIFTED = "StableUnshifted"
    STABLE_SHIFTED = "StableShifted"
    NOT_STABLE = "NotStable"
    UNKNOWN = "Unknown"


def _stable_in_region(E: ExcBundle, P: AffPt, depth: int) -> Optional[StabResult]:
    """The verdict of exc_stable_at, or None when P is off the geometric
    region; stab-region skips such a point.  P's integer vector (w, X, Y)
    serves the walk, at max(depth, E.label.m), whose other end is E's
    projected character (2r, 2c, e), from E's (r, c, e), and P's class.  A
    walk that clears the segment has cleared P, so P is classified only on
    another answer, or at E's own point, which the walk excuses.
    """
    from .lepotier import GeoAnswer, RegionClass, _classify_ints, _contains_ints
    w, X, Y = _point_ints(P)
    r, c, e = _int_char(E.label.p, E.label.m)
    answer = _contains_ints((2 * r, 2 * c, e), (w, X, Y), max(depth, E.label.m), True)
    if ((answer is not GeoAnswer.YES or X * r == c * w and 2 * Y * r == e * w)
            and _classify_ints(w, X, Y) is not RegionClass.GEO_LP):
        return None
    if answer is GeoAnswer.UNKNOWN:
        return StabResult.UNKNOWN
    if answer is GeoAnswer.NO:
        return StabResult.NOT_STABLE
    # whether P's slope X/w is below E's c/r
    return StabResult.STABLE_UNSHIFTED if X * r < c * w else StabResult.STABLE_SHIFTED


def exc_stable_at(E: ExcBundle, P: AffPt, depth: int) -> StabResult:
    """Stability of an exceptional bundle at a geometric-region point.

    The criterion is that the half-open segment from the bundle's
    projected character to P stays inside the region.  When the slope
    of E exceeds the point's first coordinate the bundle itself is the
    stable object, otherwise its single shift is.  The refinement depth
    is raised to the label's own depth so the bundle's anchoring data
    is always present in the approximation; unless the walk clears the
    segment, P is classified too, and off the region refused.
    The rule lives in _stable_in_region, which stab-region calls too.
    """
    result = _stable_in_region(E, P, depth)
    if result is None:
        raise ValueError("stability test requires a point in the geometric region")
    return result


@_record
class KernelPoint:
    """A generator of the kernel line of a nondegenerate charge.

    The generator is scaled to a primitive integer vector whose first
    nonzero coordinate is positive.  When the rank coordinate is
    nonzero the kernel meets the affine (s, q) plane in a single point.
    """

    gen: CharVec

    @property
    def is_finite(self) -> bool:
        return self.gen.ch0 != 0

    def point(self) -> AffPt:
        if not self.is_finite:
            raise ValueError("kernel direction has rank zero: point at infinity")
        return self.gen.proj()

    @classmethod
    def spanned_by(cls, k: tuple) -> "KernelPoint":
        """The kernel point of the line through a rational 3-vector."""
        if not any(k):
            raise ValueError("degenerate charge: image lies in a real line")
        _, ints = _scaled_ints(k)
        return cls(CharVec(*_primitive(ints)[1]))


def kernel_point(Z: GeneralCharge) -> KernelPoint:
    """The kernel line of the charge, as a projective point.

    The real and imaginary parts of the coefficients form a 2 x 3 real
    matrix; nondegeneracy means rank two, and the kernel is spanned by
    the cross product of the rows.
    """
    return KernelPoint.spanned_by(
        cross3((Z.w0.re, Z.w1.re, Z.w2.re), (Z.w0.im, Z.w1.im, Z.w2.im)))


@_record
class GLElement:
    """An orientation-preserving 2 x 2 matrix with a branch integer.

    The matrix acts on charge values (re, im); the branch integer picks
    the lift of the induced circle action to phases, pinned down by the
    convention that branch zero moves phases by less than a full turn
    upward from the base angle of the first column.  ``scaled`` holds a
    common positive denominator and the integer matrix it makes, and
    ``base`` the phase in [0, 2) of the first column's direction.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    k: int = 0

    def __init__(self, a, b, c, d, k: int = 0):
        entries = tuple(Fraction(x) for x in (a, b, c, d))
        for name, x in zip("abcd", entries):
            object.__setattr__(self, name, x)
        object.__setattr__(self, "k", int(k))
        if self.det <= 0:
            raise ValueError("matrix must preserve orientation")
        object.__setattr__(self, "scaled", _scaled_ints(entries))
        # the positive real direction has phase 0 here, not 2
        a, _, c, _ = self.scaled[1]
        p, q, j = _upper_ray_ints(a, c)
        object.__setattr__(self, "base", Phase._of(p, q, -1 if j and q == 0 else j))

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "GLElement":
        return cls(1, 0, 0, 1)

    @classmethod
    def rotation(cls, co, si, k: int = 0) -> "GLElement":
        """Rotation by a rational point (co, si) on the unit circle."""
        co = Fraction(co)
        si = Fraction(si)
        if co * co + si * si != 1:
            raise ValueError("rotation needs a rational point on the unit circle")
        return cls(co, -si, si, co, k)

    def act(self, z: RatComplex) -> RatComplex:
        den, (a, b, c, d) = self.scaled
        re, im = z.re, z.im
        x = re.numerator * im.denominator
        y = im.numerator * re.denominator
        den *= re.denominator * im.denominator
        return RatComplex(Fraction(a * x + b * y, den), Fraction(c * x + d * y, den))

    def act_charge(self, Z: GeneralCharge) -> GeneralCharge:
        return GeneralCharge(self.act(Z.w0), self.act(Z.w1), self.act(Z.w2))


def normalize_charge(Z: GeneralCharge, depth: int
                     ) -> Optional[tuple[Fraction, Fraction, GLElement]]:
    """Recover the normal form of a nondegenerate charge, if it has one.

    The pair (s, q) is read directly off the kernel line rather than
    from any closed-form coordinate formula in the coefficients; the
    kernel computation settles the sign conventions unambiguously.  The
    charge is a transform of the normal-form charge at (s, q) exactly
    when that point is in the geometric region and the change of basis
    preserves orientation; the transform sends the normal form's values
    on (0,1,0) and (0,0,1) to this charge's, which forces the matrix
    columns to be -w2 and w1.
    """
    from .lepotier import RegionClass, classify_point
    kp = kernel_point(Z)
    if not kp.is_finite:
        return None
    p = kp.point()
    if classify_point(p, depth) is not RegionClass.GEO_LP:
        return None
    s = to_fraction(p.x)
    q = to_fraction(p.y)
    det = Z.w1.re * Z.w2.im - Z.w1.im * Z.w2.re
    if det <= 0:
        return None
    g = GLElement(-Z.w2.re, Z.w1.re, -Z.w2.im, Z.w1.im)
    return s, q, g
