"""The six-parameter chart of stability conditions built on a triple.

A point of the chart assigns each bundle of an exceptional triple a
nonzero central-charge value together with a phase branch.  This module
validates chart parameters, reconstructs the charge, builds the triangle
and pentagon polygons, classifies a point into its cell (geometric head,
two legs, or pure tail), realizes the universal-cover group action with
exact branch bookkeeping, and transports plus-leg points to the chart of
the left-mutated triple and back.

The classifier never solves for the charge: its kernel is written
directly in the triple's characters and the three values, in integers,
as a vector (w, X, Y) tested against the open pentagon's five side
lines by their signs, with no Fraction, gcd or crossing count between
the values and the verdict and no region test (classify_cell_report
gives the argument).  A triple keeps its pentagon, its side lines, dual
basis and transport pairing from its first chart call on.  A point
keeps its values as one integer vector, a common denominator and six
integers, and its phases as primitive integer directions; the group
action maps both by the element's integer matrix, transport forms its
new values on the same vector, and the values are made only when read.
Phases are compared and lifted on their integers by Phase's angle order,
validity and both gaps in one pass.

Exactness convention: a phase is entered as an integer branch plus a
rational point on the unit circle lying in the upper half-plane, so the
phase value is branch + angle with the angle in (0, 1].  Charge values
are then rational complex pairs and every comparison in the classifier
is exact.  Floating-point phases are accepted through a rationalizing
constructor for convenience.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Optional, Sequence

from .corekit import (AffPt, CharVec, _chi2, _primitive, _record, _scaled_ints, cross3, det3,
                      format_rational, parse_rational)
from .exceptional import _int_char
from .geometric import (GeneralCharge, GLElement, KernelPoint, Phase, RatComplex, ShiftedChar,
                        _angle_cmp, _upper_ray, _upper_ray_ints, in_upper)
from .polygon import Polygon
from .surd import QuadReal
from .triples import ExcTriple, mutate_left, mutate_right

# largest tangent denominator of a rationalized float phase
_MAX_DEN = 10 ** 6


@_record
class ThetaParams:
    """Chart parameters: three charge values with phase branches.

    Slot j holds the exact complex value z_j of the charge on the j-th
    bundle and the integer branch k_j; the phase of the slot is
    k_j + a_j with a_j in (0, 1] the angle of (-1)**k_j * z_j, which
    must therefore lie in the closed upper half-plane minus the
    positive real axis.  Magnitudes and phases are derived views; the
    stored data stays rational under the group action and transport.

    Two derived attributes stay out of the record's key.  ``_phases``
    holds the three phases (None when a value is zero).  ``_ints`` holds
    the values as one integer vector (den, (x1, y1, x2, y2, x3, y3)),
    z_j = (x_j + i y_j) / den with den > 0 and no common factor among
    the seven numbers, which is ``_scaled_ints`` of the six parts.  The
    group action, the kernel and transport compute on ``_ints`` alone
    and build their results with ``_of``; such a record makes z1, z2
    and z3 from ``_ints`` on first read.
    """

    z1: RatComplex
    z2: RatComplex
    z3: RatComplex
    k1: int = 0
    k2: int = 0
    k3: int = 0

    def __post_init__(self):
        phases = []
        for z, k in self.slots():
            if z.is_zero():
                continue
            p, q, j = _upper_ray(z.re, z.im)
            if j != k % 2:
                raise ValueError("branch parity inconsistent with the value direction")
            phases.append(Phase._of(p, q, k))
        self.__dict__.update(_phases=tuple(phases) if len(phases) == 3 else None,
                             _ints=_scaled_ints([x for z in self.values() for x in (z.re, z.im)]))

    @classmethod
    def _of(cls, ints: tuple, ks: Sequence[int], phases: tuple) -> "ThetaParams":
        """Parameters from their values' integer vector, which is reduced,
        and their three phases, without the checks."""
        den, xs = ints
        g = math.gcd(den, *xs)
        if g != 1:
            den //= g
            xs = tuple(x // g for x in xs)
        out = object.__new__(cls)
        out.__dict__.update(zip(("k1", "k2", "k3"), ks), _phases=phases, _ints=(den, xs))
        return out

    def __getattr__(self, name: str):
        # only z1, z2, z3 of a record made by _of are missing: make them once
        if name not in ("z1", "z2", "z3"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den, xs = self._ints
        zs = (RatComplex(Fraction(x, den), Fraction(y, den)) for x, y in zip(xs[::2], xs[1::2]))
        self.__dict__.update(zip(("z1", "z2", "z3"), zs))
        return self.__dict__[name]

    @classmethod
    def from_units(cls, ms: Sequence, units: Sequence[tuple], branches: Sequence[int]
                   ) -> "ThetaParams":
        """Build from magnitudes, upper half-plane unit pairs, and branches.

        The phase of slot j is branches[j] plus the angle of units[j],
        so the value is ms[j] * (-1)**branches[j] * units[j].
        """
        zs = []
        for m, (c, s), k in zip(ms, units, branches):
            m = Fraction(m)
            if m < 0:
                raise ValueError("magnitude must be nonnegative")
            c = Fraction(c)
            s = Fraction(s)
            if c * c + s * s != 1:
                raise ValueError("exact phase needs a rational point on the unit circle")
            if not in_upper(c, s):
                raise ValueError("unit vector must lie in the upper half-plane")
            sign = -1 if k % 2 else 1
            zs.append(RatComplex(sign * m * c, sign * m * s))
        return cls(zs[0], zs[1], zs[2], int(branches[0]), int(branches[1]), int(branches[2]))

    @classmethod
    def from_floats(cls, ms: Sequence[float], phis: Sequence[float]) -> "ThetaParams":
        """Rationalize floating magnitudes and phases to a nearby exact point.

        The unit vector for each phase is produced by the half-angle
        substitution, which gives an exact rational point on the unit
        circle close to the requested angle.
        """
        units = []
        branches = []
        for phi in phis:
            k = math.ceil(phi) - 1
            # exact, since phi - k rounds in floats once |phi| >= 2^53
            a = Fraction(phi) - k
            if a == 1:
                units.append((-1, 0))
            else:
                t = math.tan(math.pi * float(a) / 2)
                th = Fraction(t).limit_denominator(_MAX_DEN)
                if th <= 0:
                    th = Fraction(1, _MAX_DEN)
                c = (1 - th * th) / (1 + th * th)
                s = 2 * th / (1 + th * th)
                units.append((c, s))
            branches.append(k)
        mq = [Fraction(str(m)) for m in ms]
        return cls.from_units(mq, units, branches)

    def slots(self) -> tuple[tuple[RatComplex, int], ...]:
        return ((self.z1, self.k1), (self.z2, self.k2), (self.z3, self.k3))

    def values(self) -> tuple[RatComplex, RatComplex, RatComplex]:
        return (self.z1, self.z2, self.z3)

    def phases(self) -> tuple[Phase, Phase, Phase]:
        if self._phases is None:
            raise ValueError("zero value has no phase")
        return self._phases

    def magnitudes(self) -> tuple[QuadReal, QuadReal, QuadReal]:
        out = []
        for z, _ in self.slots():
            n = z.re * z.re + z.im * z.im
            d = n.denominator
            out.append(QuadReal(0, Fraction(1, d), n.numerator * d))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "z": [[format_rational(z.re), format_rational(z.im)] for z in self.values()],
            "k": [self.k1, self.k2, self.k3],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ThetaParams":
        zs = [RatComplex(parse_rational(re), parse_rational(im)) for re, im in data["z"]]
        ks = [int(k) for k in data["k"]]
        return cls(zs[0], zs[1], zs[2], ks[0], ks[1], ks[2])


def _phase_gaps(p: ThetaParams) -> Optional[tuple[bool, bool]]:
    """Whether f2 - f1 and f3 - f2 are at least one, for valid parameters,
    else None; one _angle_cmp per pair of directions decides all five tests."""
    if p._phases is None:
        return None
    f1, f2, f3 = p._phases
    k1, k2, k3 = f1.k, f2.k, f3.k
    c12 = _angle_cmp(f1.re, f1.im, f2.re, f2.im)
    c23 = _angle_cmp(f2.re, f2.im, f3.re, f3.im)
    c13 = _angle_cmp(f1.re, f1.im, f3.re, f3.im)
    if ((k1 < k2 or k1 == k2 and c12 < 0) and (k2 < k3 or k2 == k3 and c23 < 0)
            and (k1 + 1 < k3 or k1 + 1 == k3 and c13 < 0)):
        return k1 + 1 < k2 or k1 + 1 == k2 and c12 <= 0, k2 + 1 < k3 or k2 + 1 == k3 and c23 <= 0
    return None


def _below(f: Phase, n: int, g: Phase) -> bool:
    """Whether f + n < g, for an integer n, on the phases' integers."""
    k = f.k + n
    return k < g.k or k == g.k and _angle_cmp(f.re, f.im, g.re, g.im) < 0


def validate_params(p: ThetaParams) -> bool:
    """Check positivity of magnitudes and the phase ordering constraints.

    The constraints are strict ascending phases with the outer gap
    exceeding one; all comparisons are exact.
    """
    return _phase_gaps(p) is not None


def charge_from_params(t: ExcTriple, p: ThetaParams) -> GeneralCharge:
    """The unique charge taking the prescribed values on the triple.

    The three integer characters v_j = (ch0, ch1, 2 ch2) form a basis
    (their determinant is twice a unit).  Since v_i . (v_j x v_k) is
    det3(v1, v2, v3) for (i, j, k) in cyclic order and zero when i
    repeats, the charge's coefficients against (ch0, ch1, 2 ch2) are
    (z1 v2 x v3 + z2 v3 x v1 + z3 v1 x v2) / det3; the ch2 coefficient
    is twice the last one.
    """
    if not validate_params(p):
        raise ValueError("invalid chart parameters")
    d, duals, *_ = _triple_data(t)
    den, xs = p._ints
    res, ims = xs[::2], xs[1::2]
    return GeneralCharge(*(
        RatComplex(Fraction(s * sum(x * e[i] for x, e in zip(res, duals)), den * d),
                   Fraction(s * sum(y * e[i] for y, e in zip(ims, duals)), den * d))
        for i, s in enumerate((1, 1, 2))))


def _triple_data(t: ExcTriple) -> tuple[int, tuple, Polygon, tuple, int, tuple]:
    """The determinant, dual basis, pentagon and pentagon side lines of a triple.

    The determinant and dual basis are those of the integer characters
    v_j = (ch0, ch1, 2 ch2), so the determinant is twice det3 of the
    characters.  Then come the coordinates of the three characters
    scaled by 2, (2 ch0, 2 ch1, 2 ch2), as one integer tuple per
    coordinate, the pairing chi(E2, E3) that transport takes, and the
    pentagon's five side lines, for _in_pentagon.  The pentagon's
    vertices are integer vectors (w, X, Y), w > 0, of the points
    (X/w, Y/w): e_j is (2r, 2c, e) and its dropped point
    (2r^2, 2cr, er - 2), for v_j = (r, c, e); side i's line is cross3 of
    its ends.  The labels fix all of it, so it is computed on the triple's
    first call and kept on it as the derived attribute ``_data``.
    """
    try:
        return t._data
    except AttributeError:
        pass
    v1, v2, v3 = (_int_char(lbl.p, lbl.m) for lbl in t.labels)
    d = det3(v1, v2, v3)
    assert d != 0, "triple characters must form a basis"
    duals = (cross3(v2, v3), cross3(v3, v1), cross3(v1, v2))
    e1, e2, e3 = ((2 * r, 2 * c, e) for r, c, e in (v1, v2, v3))
    (r1, c1, f1), (r3, c3, f3) = v1, v3
    ring = (e1, (2 * r1 * r1, 2 * c1 * r1, f1 * r1 - 2), e2,
            (2 * r3 * r3, 2 * c3 * r3, f3 * r3 - 2), e3)
    pentagon = Polygon(tuple(AffPt(Fraction(X, w), Fraction(Y, w)) for w, X, Y in ring),
                       edge_included=(False,) * 5,
                       vertex_included=(False,) * 5)
    sides = tuple(cross3(a, b) for a, b in zip(ring, ring[1:] + ring[:1]))
    # the chords' slopes mu1 + 3/2 and mu3 - 3/2 differ by 3 - (mu3 - mu1) > 0, so
    # the pentagon turns clockwise at e2, with E3's dropped point strictly right
    # of E1's chord: _in_pentagon's OR takes that reflex vertex
    assert sum(a * x for a, x in zip(sides[1], ring[3])) < 0, "e2 is not a reflex vertex"
    data = d, duals, pentagon, tuple(zip(e1, e2, e3)), _chi2(v2, v3) // 2, sides
    object.__setattr__(t, "_data", data)
    return data


def tr_polygon(t: ExcTriple) -> Polygon:
    """The triangle on the three projected characters.

    The two lower edges belong to the region, the top edge and all
    three vertices do not.
    """
    e1, e2, e3 = (b.char.proj() for b in (t.E1, t.E2, t.E3))
    return Polygon((e1, e2, e3),
                   edge_included=(True, True, False),
                   vertex_included=(False, False, False))


def mz_polygon(t: ExcTriple) -> Polygon:
    """The open pentagon bounding the chart's geometric head.

    Counterclockwise vertices: the first character's projection, its
    dropped point, the middle projection, the last character's dropped
    point, and the last projection.  No edge or vertex belongs to the
    region.
    """
    return _triple_data(t)[2]


class CellLabel(enum.Enum):
    GEO_CELL = "GeoCell"
    PLUS_LEG = "PlusLeg"
    MINUS_LEG = "MinusLeg"
    PURE_CELL = "PureCell"
    # never returned, as no depth leaves a cell undecided; kept since callers name it
    UNKNOWN = "Unknown"


@_record
class CellReport:
    """Classification outcome with its supporting evidence."""

    label: CellLabel
    depth: int
    kernel: Optional[KernelPoint] = None
    reason: str = ""


def classify_cell(t: ExcTriple, p: ThetaParams, depth: int) -> CellLabel:
    return _classify_cell(t, p)[0]


def classify_cell_report(t: ExcTriple, p: ThetaParams, depth: int) -> CellReport:
    """Assign the parameter point to its cell of the chart.

    Order of decision: the pure tail is recognized first from the two
    phase gaps (this also collects every degenerate charge, since
    collinear values force integer gaps); otherwise the geometric head
    is certified by the kernel point lying inside the open pentagon,
    with positive orientation.  Failing that, the small outer gap picks
    the leg.  No outcome is unknown, and none depends on the depth.

    No region test is needed: the open pentagon lies in the geometric
    region, as the paper's Stab^dag(P^2) = Geo u Alg requires.  Its
    vertical sides, E1's and E3's exclusions, are open; its lower edges,
    E1's right chord and E3's left chord, which _tent checks pass through
    e2, are the curve on those tents' slope spans and above the curve
    strip past the contact points; and every exclusion strictly between
    E1 and E3 starts at or below that chain, so none meets the pentagon.

    The charge is never solved for.  It sends sum a_j c_j to
    sum a_j z_j, which vanishes exactly when a is proportional to
    Re z x Im z, so the kernel is spanned by
    v = (z2 x z3) c1 + (z3 x z1) c2 + (z1 x z2) c3.  The orientation
    determinant w1 x w2 of the charge's coefficients is the rank
    coordinate of the cross product Re w x Im w, which is
    ch0(v) / det3(c1, c2, c3).  It is computed in integers, on the
    values' integer vector ``_ints`` and the characters scaled by
    2, against the determinant of the integer characters, which is
    twice det3; a positive scale changes neither the kernel line nor the
    signs of v.  So the rank-zero and orientation tests read the sign of
    w = ch0(v) alone, and the kernel point (X/w, Y/w) meets the pentagon by
    five integer signs on v = (w, X, Y), negated when w < 0 (_in_pentagon).
    No gcd is taken to decide: the report's KernelPoint, the primitive
    generator of v, is built once the cell is decided; classify_cell
    builds none.
    """
    label, reason, v = _classify_cell(t, p)
    kernel = None if v is None else KernelPoint(CharVec(*_primitive(v)[1]))
    return CellReport(label, depth, kernel, reason)


def _classify_cell(t: ExcTriple, p: ThetaParams
                   ) -> tuple[CellLabel, str, Optional[tuple[int, int, int]]]:
    """The cell, the reason and the kernel vector (None in the pure tail)."""
    gaps = _phase_gaps(p)
    if gaps is None:
        raise ValueError("invalid chart parameters")
    gap12_ge1, gap23_ge1 = gaps
    if gap12_ge1 and gap23_ge1:
        return CellLabel.PURE_CELL, "both phase gaps are at least one", None
    d, _, _, doubled, _, sides = _triple_data(t)
    v = _kernel_ints(p._ints[1], doubled)
    w, X, Y = v
    if w == 0:
        reason = "kernel line has rank zero"
    elif not (_in_pentagon(w, X, Y, sides) if w > 0 else _in_pentagon(-w, -X, -Y, sides)):
        reason = "kernel point outside the open pentagon"
    elif (w > 0) != (d > 0):
        reason = "orientation determinant not positive"
    else:
        return CellLabel.GEO_CELL, "kernel point in the pentagon and region", v
    # a leg: not both gaps are at least one, or the pure tail had returned
    label, gap = (CellLabel.MINUS_LEG, "lower") if gap23_ge1 else (CellLabel.PLUS_LEG, "upper")
    return label, f"{reason}; {gap} phase gap below one", v


def _kernel_ints(xs: tuple, doubled: tuple) -> tuple[int, int, int]:
    """A positive multiple of (z2 x z3) c1 + (z3 x z1) c2 + (z1 x z2) c3,
    which spans the kernel, from the values' integer vector's six integers
    (x1, y1, x2, y2, x3, y3) and the characters scaled by 2.
    """
    a1, a2, a3 = cross3(xs[::2], xs[1::2])
    (r1, r2, r3), (c1, c2, c3), (e1, e2, e3) = doubled
    v = (a1 * r1 + a2 * r2 + a3 * r3, a1 * c1 + a2 * c2 + a3 * c3, a1 * e1 + a2 * e2 + a3 * e3)
    assert any(v), "a degenerate charge is in the pure tail"
    return v


def _in_pentagon(w: int, X: int, Y: int, sides: tuple) -> bool:
    """Whether (X/w, Y/w), for integers with w > 0, lies in the open
    pentagon of a triple, on _triple_data's five side lines.

    A side's line is cross3 of its ends' vectors, so its dot product with
    (w, X, Y) is det3 of the two ends and the point: positive exactly when
    the point is strictly left of the side.  The counterclockwise pentagon
    has one reflex vertex, e2, where the chords meet, so it is the part of
    the strip between the two exclusion sides and below the top side that
    lies above the lower of the two chord lines: the point is inside when
    it is left of those three sides and of at least one chord.
    """
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2), (a3, b3, c3), (a4, b4, c4) = sides
    return (a0 * w + b0 * X + c0 * Y > 0 and a3 * w + b3 * X + c3 * Y > 0
            and a4 * w + b4 * X + c4 * Y > 0
            and (a1 * w + b1 * X + c1 * Y > 0 or a2 * w + b2 * X + c2 * Y > 0))


def stable_set_pure(t: ExcTriple) -> tuple[ShiftedChar, ShiftedChar, ShiftedChar]:
    """Generators of the stable objects over the pure tail.

    Every stable object there is an integer shift of one of the three
    bundles; the returned classes are the shift-zero generators.
    """
    return (ShiftedChar(t.E1.char, 0),
            ShiftedChar(t.E2.char, 0),
            ShiftedChar(t.E3.char, 0))


def gl_act(g: GLElement, p: ThetaParams) -> ThetaParams:
    """Act on chart parameters by a universal-cover element.

    Values transform by the matrix; each branch is recomputed from the
    canonical lift of the induced phase action, pinned so that branch
    zero sends the phase of the positive real direction into [0, 2),
    then offset by two per unit of the element's own branch (a full
    turn adds two to every phase).  Phase gaps relative to integers are
    preserved, so validity is preserved.  All of it is found in
    integers: the element's integer matrix maps the values' integer
    vector, whose denominator it multiplies by its own, and each slot's
    primitive direction onto the ray of the new value, whose branch is
    lifted above the base phase on the same integers; that direction
    with the new branch is the new slot's phase, the one Phase built.
    """
    if p._phases is None:
        raise ValueError("cannot act on a zero value")
    e, (a, b, c, d) = g.scaled
    den, (x1, y1, x2, y2, x3, y3) = p._ints
    base, turn = g.base, 2 * g.k
    ks, phases = [], []
    for f in p._phases:
        u, v = f.re, f.im
        re, im, j = _upper_ray_ints(a * u + b * v, c * u + d * v)
        lift, cmp = _lift(re, im, j, base)
        # the lifted phase is at most base + 1
        assert lift < base.k + 1 or lift == base.k + 1 and cmp <= 0, "lift window missed"
        ks.append(f.k + turn + lift)
        phases.append(Phase._of(re, im, ks[-1]))
    ys = (a * x1 + b * y1, c * x1 + d * y1, a * x2 + b * y2, c * x2 + d * y2,
          a * x3 + b * y3, c * x3 + d * y3)
    return ThetaParams._of((e * den, ys), ks, tuple(phases))


def gl_inverse(g: GLElement) -> GLElement:
    """The inverse element, with the branch that undoes the lift.

    Composing the canonical lifts of a matrix and its inverse gives a
    full turn unless the matrix fixes the positive real direction, in
    which case it gives the identity; the branch compensates.
    """
    det = g.det
    delta = 0 if g.base.exact_value() == 0 else 1
    return GLElement(g.d / det, -g.b / det, -g.c / det, g.a / det,
                     -g.k - delta)


def transport_plus_leg(t: ExcTriple, p: ThetaParams, depth: int
                       ) -> tuple[ExcTriple, ThetaParams]:
    """Carry a plus-leg point to the chart of the left-mutated triple.

    The charge is unchanged: the new middle value is the pairing times
    the old middle value minus the old last value, the new last slot
    repeats the old middle slot, and the new middle branch is the
    unique one placing its phase strictly between the old last phase
    minus one and the old middle phase.
    """
    if classify_cell(t, p, depth) is not CellLabel.PLUS_LEG:
        raise ValueError("not in the identified patch")
    f1, f2, f3 = p._phases
    if not _below(f1, 1, f2):
        raise ValueError("not in the identified patch")
    chi = _triple_data(t)[4]
    den, (x1, y1, x2, y2, x3, y3) = p._ints
    x, y = chi * x2 - x3, chi * y2 - y3
    f2n = _branch_in_window(x, y, 1, f3, f2)
    t2 = mutate_left(t)
    p2 = ThetaParams._of((den, (x1, y1, x, y, x2, y2)), (p.k1, f2n.k, p.k2), (f1, f2n, f2))
    return t2, p2


def transport_plus_leg_inverse(t2: ExcTriple, p2: ThetaParams, depth: int
                               ) -> tuple[ExcTriple, ThetaParams]:
    """Undo the plus-leg transport from the mutated chart.

    The old last value is the pairing times the new last value minus
    the new middle value, and its branch is the unique one placing its
    phase strictly between the new last phase and the new middle phase
    plus one.
    """
    if classify_cell(t2, p2, depth) is not CellLabel.PLUS_LEG:
        raise ValueError("not in the identified patch")
    g1, g2, g3 = p2._phases
    chi = _triple_data(t2)[4]
    den, (x1, y1, x2, y2, x3, y3) = p2._ints
    x, y = chi * x3 - x2, chi * y3 - y2
    f3o = _branch_in_window(x, y, 0, g3, g2)
    t1 = mutate_right(t2)
    p1 = ThetaParams._of((den, (x1, y1, x3, y3, x, y)), (p2.k1, p2.k3, f3o.k), (g1, g3, f3o))
    return t1, p1


def _lift(re: int, im: int, j: int, lo: Phase) -> tuple[int, int]:
    """The least branch k of parity j with k + angle(re, im) above lo, for
    an upper direction (re, im), and _angle_cmp of (re, im) against lo's.

    Branches of one parity differ by two, and a phase of branch k lies
    in (k, k + 1], so the least such branch is lo.k or one of the next two.
    """
    k = lo.k + (lo.k - j) % 2
    cmp = _angle_cmp(re, im, lo.re, lo.im)
    return k + 2 if k == lo.k and cmp <= 0 else k, cmp


def _branch_in_window(x: int, y: int, n: int, lo: Phase, hi: Phase) -> Phase:
    """The phase f of the value in direction (x, y) on the unique branch
    putting f + n in the open window (lo, hi + 1).

    The window must be shorter than one; candidate branches differ by
    two, so only the least one above lo can land inside.
    """
    if x == 0 and y == 0:
        raise ValueError("transported value vanishes")
    re, im, j = _upper_ray_ints(x, y)
    f = Phase._of(re, im, _lift(re, im, j + n, lo)[0] - n)
    if _below(f, n - 1, hi):
        return f
    raise ValueError("no phase branch lands in the transport window")
