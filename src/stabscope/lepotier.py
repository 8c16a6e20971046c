"""Exact decisions against the Le Potier curve by walks down the dyadic tree.

Each dyadic label contributes a "tent", two line segments descending from
the half-discriminant parabola to the point one rank-squared unit below
the projected character, and a vertical exclusion segment from that
character down to the tent apex.  Tents are disjoint and ordered like
their labels, so no decision needs the whole curve.

A point walks down the label tree of its unit cell: the midpoint label's
tent either covers the slope or lies on one side of it, so a point costs
one step per unit of depth.  A segment visits the integer labels of the
unit cells of its slope span where its discriminant reaches 0, at most a
few cells at each end, then the gaps between adjacent labels p/2^k and
(p+1)/2^k in those cells.  The midpoint of the gap between slopes a < b
<= a + 1 of ranks r_a, r_b has rank r = r_a * r_b * (3 - (b - a)), at least
2 * r_a * r_b, so by induction no label of the gap ranks below it, and a
segment whose discriminant stays below (1/2)(1 - 1/r^2) over the gap clears
it at any depth.  Otherwise the midpoint label's exclusion and chords are
checked and both halves are walked; a gap still open at the depth budget
makes the answer Unknown.  A vertical segment at slope x is walked as the
level segment at its lower end over the span [x, x], so it takes the same
cells, gaps, bounds and chords as any other.  Above
the strip only the label of rank r = den(x) can have the slope x, so a
point is on an exclusion exactly when its discriminant reaches
(1/2)(1 - 1/r^2) and _slope_search finds that label; that search stops at
rank r and takes no budget, so there every depth gives the same answer.
Points and segment ends are rational, and a surd one is refused with a
ValueError.  A point is decided on its integer vector (w, X, Y), w > 0:
with n = X^2 - 2 w Y, 2 w^2 times its discriminant, it is above the strip
when n < w^2, below it when n > 2 w^2, and reaches the exclusion's top
when n r^2 >= w^2 (r^2 - 1), r = w/gcd(w, X).  In the strip it takes the
sign of the covering label's integer chord line on its side of the apex,
and above the apex it is on the exclusion.  The point walk finds that
label as (p, m) on the integer characters, each midpoint's side from the
sign of X r - c w; x = X/w becomes a Fraction only to be compared with
the contact point on that side.  A character on an exclusion is a
multiple of its label's own exactly when it projects to the top, at
equality.  No decision builds a tent: the tents, segments and exclusions
that meet a window are stabscope.curve's output, for curve emit, and
their names still resolve here, loaded on first use.

The segment walk takes its signs on integers, from its ends' integer
vectors w (1, x, y), w > 0.  Its line y = m x + c is their cross3, made
primitive as (L, L m, L c) with L > 0 and no Fraction arithmetic, and each
label p/2^m keeps, from its integer character, its slopes el, apex and er
as (P + Q*sqrt(D))/S and its chords and exclusion ends as integer lines
(K, A, B), K = 2 r^2, cached by the integers (p, m), so a lookup builds
and hashes no DyadicLabel.  The cell, gap, chord and exclusion tests are
each the sign of an integer polynomial of degree <= 2 at such a slope;
times S^2 it is U + V*sqrt(D) with integers U and V, whose sign is
surd._root_sign.  Slopes are ordered against the segment's ends and each
other by integer brackets, lo = floor(x 2^96) and hi = lo, or lo + 1 when
x 2^96 is not an integer, from surd._floor_form and cached with the
label's lines: disjoint brackets are conclusive, as each holds its value,
and only overlapping ones fall back to the exact order surd._form_sign of
the integer forms, so the walk reads nothing of a label but its integer
character; a tent whose span [el, er] the brackets alone put off the
segment's takes no sign at all.  Each gap carries its left end's er and
its right end's el, so a step looks up only its midpoint (2p+1)/2^(k+1),
in lowest terms by construction, whose r^2 is K/2.  Tents are built from
the same forms and checked on them, so surds appear only in a tent's
points, which curve emit prints, and in the point walk's contact points.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction

from . import _moved
from .corekit import AffPt, CharVec, _point_ints, _primitive, _scaled_ints, cross3
from .exceptional import CACHE_SIZE, _contact, _contact_form, _int_char, _slope_search
from .surd import _floor_form, _form_sign, _root_sign

__getattr__ = _moved(__name__, "curve")


class RegionClass(enum.Enum):
    GEO_LP = "GeoLP"
    ON_EXCLUSION = "OnExclusion"
    ON_CURVE = "OnCurve"
    BELOW_CURVE = "BelowCurve"
    UNKNOWN = "Unknown"


class DlpResult(enum.Enum):
    YES_EXCEPTIONAL = "YesExceptional"
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


class GeoAnswer(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


def _tent_at(w: int, X: int, depth: int) -> tuple[int, int] | None:
    """The label (p, m), m <= depth, whose tent's closed slope span holds x = X/w, or None.

    The point walk of classify_point, for integers with w > 0.  Like
    _slope_search it keeps the gap between adjacent labels p/2^m and
    (p+1)/2^m of x's unit cell that x lies in.  The midpoint's tent either
    covers x or lies wholly on one side of it: x is on the apex's right
    when X r >= c w, for the midpoint's integer character (r, c, e), and
    the contact point on that side decides the cover.
    """
    x, p = Fraction(X, w), X // w
    if x <= _contact(p, 0, 1).x:
        return p, 0
    if x >= _contact(p + 1, 0, -1).x:
        return p + 1, 0
    for m in range(1, depth + 1):
        q = 2 * p + 1
        r, c, _ = _int_char(q, m)
        right = X * r >= c * w
        if (x <= _contact(q, m, 1).x) if right else (x >= _contact(q, m, -1).x):
            return q, m
        p = 2 * p + right
    return None


def classify_point(p: AffPt, depth: int) -> RegionClass:
    """Locate a rational plane point relative to the curve and the exclusion segments.

    Above the strip the only question is membership in an exclusion
    segment, which takes no budget, so there the answer is the same at
    every depth; inside the strip the covering label's chord and exclusion
    lines (when one covers x at this depth) settle the answer for good, and
    uncovered strip slopes remain Unknown because deeper tents accumulate
    there.  The point is decided by _classify_ints on its integer vector; a
    surd point is refused with to_fraction's ValueError.
    """
    if depth < 0:
        raise ValueError("negative depth")
    return _classify_ints(*_point_ints(p), depth)


def _classify_ints(w: int, X: int, Y: int, depth: int) -> RegionClass:
    """classify_point at the point (X/w, Y/w), for integers with w > 0.

    n = X^2 - 2 w Y is 2 w^2 times the discriminant, so the point is above
    the strip when n < w^2 and below it when n > 2 w^2.  Above the strip
    it is on an exclusion when _top_gap is >= 0 and _slope_search finds
    the label of its slope, building none that _CHARS holds.  In the strip
    it is _strip_class.
    """
    n, w2 = X * X - 2 * w * Y, w * w
    if n < w2:
        g = math.gcd(w, X)
        if _top_gap(w, X, n) >= 0 and _slope_search(X // g, w // g) is not None:
            return RegionClass.ON_EXCLUSION
        return RegionClass.GEO_LP
    if n > 2 * w2:
        return RegionClass.BELOW_CURVE
    return _strip_class(w, X, Y, depth)


def _top_gap(w: int, X: int, n: int) -> int:
    """n r^2 - w^2 (r^2 - 1), for n = X^2 - 2 w Y and r = den(X/w) = w/gcd(w, X).

    This is 2 w^2 r^2 times the discriminant of (X/w, Y/w) less
    (1/2)(1 - 1/r^2), that of the top of the exclusion at slope X/w, if
    there is one: only a label of rank r can have that slope, and its
    exclusion spans the discriminants from (1/2)(1 - 1/r^2) to
    (1/2)(1 + 1/r^2).
    """
    r2 = (w // math.gcd(w, X)) ** 2
    return n * r2 - w * w * (r2 - 1)


def _strip_class(w: int, X: int, Y: int, depth: int) -> RegionClass:
    """_classify_ints in the strip, by the signs of the covering label's _tent_ends lines.

    K Y - A X - B w has the sign of the height less that of y = (A x + B)/K on
    the chord on x's side of the apex c/r.  A point above the apex at c/r is
    on the exclusion: a strip point's discriminant is at least 1/2, and the
    exclusion's top, at (1/2)(1 - 1/r^2), is below that.
    """
    found = _tent_at(w, X, depth)
    if found is None:
        return RegionClass.UNKNOWN
    _, apex_x, _, chord_l, chord_r, _, _ = _tent_ends(*found)
    c, _, _, r = apex_x[2]
    k, a, b = chord_l if X * r <= c * w else chord_r
    sign = k * Y - a * X - b * w
    if sign == 0:
        return RegionClass.ON_CURVE
    if sign < 0:
        return RegionClass.BELOW_CURVE
    if X * r == c * w:
        return RegionClass.ON_EXCLUSION
    return RegionClass.GEO_LP


def dlp_exists(v: CharVec, depth: int) -> DlpResult:
    """Whether a semistable sheaf with this positive-rank character exists.

    v is read as an integer vector (w, X, Y) with w > 0, a positive
    multiple of (ch0, ch1, ch2).  On an exclusion at slope x, v is a
    multiple of an exceptional character exactly when it projects to the
    top, of discriminant (1/2)(1 - 1/den(x)^2), where _top_gap is 0.
    Above the strip the verdict takes no budget; only a point in the
    strip whose covering tent is deeper than depth answers Unknown.
    """
    if v.ch0 <= 0:
        raise ValueError("existence test requires positive rank")
    if depth < 0:
        raise ValueError("negative depth")
    _, (w, X, Y) = _scaled_ints((v.ch0, v.ch1, v.ch2))
    cls = _classify_ints(w, X, Y, depth)
    if cls is RegionClass.ON_EXCLUSION and _top_gap(w, X, X * X - 2 * w * Y) == 0:
        return DlpResult.YES_EXCEPTIONAL
    if cls in (RegionClass.BELOW_CURVE, RegionClass.ON_CURVE):
        return DlpResult.YES
    if cls is RegionClass.UNKNOWN:
        return DlpResult.UNKNOWN
    return DlpResult.NO


# bits of the integer brackets of the segment walk's slopes
_BRACKET_BITS = 96


def _slope(p: int, q: int, d: int, s: int) -> tuple[int, int, tuple[int, int, int, int]]:
    """The slope entry (lo, hi, (P, Q, D, S)) of x = (P + Q sqrt(D))/S, S > 0.

    lo = floor(x 2^B), B = _BRACKET_BITS, by surd._floor_form.  hi = lo
    when x 2^B is an integer, which is checked only for a rational x,
    written with Q = D = 0, and hi = lo + 1 otherwise, so lo <= x 2^B <= hi.
    """
    n = p << _BRACKET_BITS
    lo = _floor_form(n, q, d << 2 * _BRACKET_BITS, s)
    return lo, lo + (q != 0 or lo * s != n), (p, q, d, s)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _tent_ends(p: int, m: int) -> tuple[tuple, ...]:
    """The slopes el, apex and er of p/2^m, and its chords and exclusion, in integers.

    From the integer character (r, c, e = 2 ch2), el and er are the forms
    of exceptional._contact_form and the apex is c/r, each a slope entry
    of _slope.  Then come the left and right chords, of slopes c/r -+ 3/2
    through the apex (c/r, e/(2r) - 1/r^2), and the exclusion's bottom
    and top heights, each as a line (K, A, B), y = (A x + B)/K with K = 2 r^2.
    """
    r, c, e = _int_char(p, m)
    k, bottom = 2 * r * r, e * r - 2
    return (_slope(*_contact_form(r, c, -1)), _slope(c, 0, 0, r),
            _slope(*_contact_form(r, c, 1)),
            (k, r * (2 * c - 3 * r), bottom - 2 * c * c + 3 * r * c),
            (k, r * (2 * c + 3 * r), bottom - 2 * c * c - 3 * r * c),
            (k, 0, bottom), (k, 0, e * r))


def _compare(u: tuple, v: tuple) -> int:
    """Sign of u - v for slope entries (lo, hi, form).

    Disjoint brackets decide; otherwise the forms are compared exactly.
    """
    if u[1] < v[0]:
        return -1
    if u[0] > v[1]:
        return 1
    return _form_sign(u[2], v[2])


def _span(lo: tuple, hi: tuple, ends: tuple[tuple, tuple]) -> tuple[tuple, tuple]:
    """The slope interval [lo, hi] cut to the segment's ends, possibly empty."""
    return (lo if _compare(lo, ends[0]) > 0 else ends[0],
            hi if _compare(hi, ends[1]) < 0 else ends[1])


def _disc_sign(seg: tuple[int, int, int], r2: int, x: tuple) -> int:
    """Sign of the segment's discriminant less (1/2)(1 - 1/r2) at a slope form x.

    For the segment (L, Lm, Lc), y = m x + c, the discriminant is
    x^2/2 - m x - c.  Less the bound and times 2 r2 L it is the integer
    quadratic a2 x^2 + a1 x + a0 below, and at x = (P + Q sqrt(D))/S,
    times S^2, it is U + V sqrt(D) with integers U and V.
    """
    (lcd, lm, lc), (p, q, d, s) = seg, x
    a2, a1, a0 = r2 * lcd, -2 * r2 * lm, -2 * r2 * lc - (r2 - 1) * lcd
    k = a2 * p + a1 * s
    return _root_sign(p * k + a2 * q * q * d + a0 * s * s, q * (k + a2 * p), d)


def _line_sign(seg: tuple[int, int, int], line: tuple[int, int, int], x: tuple) -> int:
    """Sign of the segment's height less a line's at a slope form x.

    Both are (K, A, B) for y = (A x + B)/K; the difference times K L is
    linear with integer coefficients, and at x = (P + Q sqrt(D))/S, times
    S, it is U + V sqrt(D).
    """
    (lcd, lm, lc), (k, a, b), (p, q, d, s) = seg, line, x
    a1 = lm * k - lcd * a
    return _root_sign(a1 * p + (lc * k - lcd * b) * s, a1 * q, d)


def _segment_ints(u: tuple, v: tuple) -> tuple[bool, tuple[int, int, int]] | None:
    """Whether the second of two ends comes first, and the line, or None.

    Each end (x, y) is an integer vector (w, X, Y) = w (1, x, y), w > 0,
    and lies below the strip, at discriminant x^2/2 - y > 1, when
    X^2 - 2 w Y > 2 w^2; then the answer is None.  cross3 of the two
    vectors, (k0, k1, k2), is the line k0 + k1 x + k2 y = 0 through both,
    with k2 = w_a w_b (x_b - x_a) and, where that is 0, k1 = w_a w_b (y_a - y_b).
    So the ends swap, to run left to right and then upwards, when k2 < 0 or
    k2 = 0 < k1.  The line y = m x + c is then (L, L m, L c) = (k2, -k1, -k0)/g
    with g = gcd(k0, k1, k2) of the sign of k2, by corekit._primitive, which
    makes it primitive with L = lcm(den m, den c) > 0; a vertical segment
    takes the level line (den y, 0, num y) through its lower end, the
    primitive (w, 0, Y).
    """
    if any(X * X - 2 * w * Y > 2 * w * w for w, X, Y in (u, v)):
        return None
    k0, k1, k2 = cross3(u, v)
    if k2 == 0:
        w, _, y = v if k1 > 0 else u
        return k1 > 0, _primitive((w, 0, y))[1]
    c, line = _primitive((k2, -k1, -k0))
    return c < 0, line


def geo_contains_segment(a: AffPt, b: AffPt, depth: int,
                         exclude_a: bool = False) -> GeoAnswer:
    """Decide whether the segment from a to b stays in the open region.

    The region consists of points strictly above the curve and off every
    exclusion segment.  With exclude_a the endpoint a itself is allowed
    to sit on an exclusion or on the curve (half-open segment).  It is
    _contains_ints on the ends' integer vectors; a surd end is refused.
    """
    if depth < 0:
        raise ValueError("negative depth")
    if a == b:
        raise ValueError("degenerate segment")
    return _contains_ints(_point_ints(a), _point_ints(b), depth, exclude_a)


def _contains_ints(u: tuple, v: tuple, depth: int, exclude_a: bool) -> GeoAnswer:
    """geo_contains_segment at the ends' distinct integer vectors w (1, x, y), w > 0.

    Every segment takes the one segment walk, also where both ends are at
    discriminant <= 0: there an integer apex (n, n^2/2) is the top of the
    rank-1 exclusion at slope n, which the walk checks like any other
    exclusion.  A vertical segment takes it too, as the level segment at
    its lower end over the one-slope span [x, x]: that end has the larger
    discriminant, so it meets every cell, gap bound and chord that the
    segment meets.
    """
    line = _segment_ints(u, v)
    if line is None:
        return GeoAnswer.NO
    # every sign below is taken on seg = (L, L m, L c) of the segment's line
    # y = m x + c, whose discriminant is x^2/2 - m x - c.  A vertical segment
    # is the level segment at its lower end, so only there can a be excused.
    swap, seg = line
    (w0, X0, _), (w1, X1, _) = (v, u) if swap else (u, v)
    g0, g1 = math.gcd(w0, X0), math.gcd(w1, X1)
    ends = (_slope(X0 // g0, 0, 0, w0 // g0), _slope(X1 // g1, 0, 0, w1 // g1))
    vertical = ends[0][2] == ends[1][2]
    allowed = ends[swap] if exclude_a and not (vertical and swap) else None

    def blocks(entries: tuple[tuple, ...]) -> bool:
        """Whether a label's exclusion or a tent chord, from its entries, stops the segment."""
        el_x, apex_x, er_x, chord_l, chord_r, bottom, top = entries
        # the tent's span [el, er] is off the segment's by the brackets alone
        if er_x[1] < ends[0][0] or el_x[0] > ends[1][1]:
            return False
        # a vertical segment runs up along an exclusion, so a excuses it only at the top
        if (_compare(ends[0], apex_x) <= 0 <= _compare(ends[1], apex_x)
                and _line_sign(seg, bottom, apex_x[2]) >= 0 >= _line_sign(seg, top, apex_x[2])
                and not (allowed is not None and _compare(apex_x, allowed) == 0
                         and (not vertical or _line_sign(seg, top, apex_x[2]) == 0))):
            return True
        return not (_above_chord(seg, chord_l, _span(el_x, apex_x, ends), allowed)
                    and _above_chord(seg, chord_r, _span(apex_x, er_x, ends), allowed))

    def reaches_zero(n: int) -> bool:
        """Whether the discriminant reaches 0 over the unit cell [n, n + 1]."""
        lo = ends[0][2] if X0 > n * w0 else (n, 0, 0, 1)
        hi = ends[1][2] if X1 < (n + 1) * w1 else (n + 1, 0, 0, 1)
        return _disc_sign(seg, 1, lo) >= 0 or _disc_sign(seg, 1, hi) >= 0

    # Every exclusion and chord lies at discriminant >= 0, so only the
    # unit cells where the segment reaches 0 hold labels that can stop it.
    # The discriminant is convex along the segment, so these cells are a
    # prefix and a suffix of the span, at most a few cells each (the ends
    # are at discriminant <= 1).  The span takes at least one cell, so a
    # vertical segment at an integer n still meets the label n.
    n0 = X0 // w0
    n1 = max(-(-X1 // w1), n0 + 1)
    left = n0
    while left < n1 and reaches_zero(left):
        left += 1
    right = n1
    while right > left and reaches_zero(right - 1):
        right -= 1
    cells = [*range(n0, left), *range(right, n1)]
    integers = {n: _tent_ends(n, 0) for c in cells for n in (c, c + 1)}
    if any(blocks(entries) for entries in integers.values()):
        return GeoAnswer.NO
    unknown = False
    # (p, k, er_x, el_x) is the gap between the adjacent labels p/2^k and
    # (p+1)/2^k, with the first's er and the second's el
    gaps = [(n, 0, integers[n][2], integers[n + 1][0]) for n in reversed(cells)]
    while gaps:
        p, k, er_x, el_x = gaps.pop()
        mid = _tent_ends(2 * p + 1, k + 1)
        lo, hi = _span(er_x, el_x, ends)
        # the discriminant is convex along the segment, so its values at the
        # two ends bound it over the stretch; no label of the gap ranks below
        # mid, whose rank r has r^2 = K/2 for its chords' K = 2 r^2
        r2 = mid[3][0] >> 1
        if _compare(lo, hi) > 0 or (_disc_sign(seg, r2, lo[2]) < 0
                                and _disc_sign(seg, r2, hi[2]) < 0):
            continue
        if k == depth:
            unknown = True
            continue
        if blocks(mid):
            return GeoAnswer.NO
        gaps += [(2 * p + 1, k + 1, mid[2], el_x), (2 * p, k + 1, er_x, mid[0])]
    return GeoAnswer.UNKNOWN if unknown else GeoAnswer.YES


def _above_chord(seg: tuple[int, int, int], chord: tuple[int, int, int],
                 span: tuple[tuple, tuple], allowed: tuple | None) -> bool:
    """Whether the segment stays strictly above a tent chord over a slope span.

    The difference of two lines is linear, so positivity at both ends of
    the span is conclusive.  A zero at one end is tolerated only at the
    half-open endpoint's slope.
    """
    lo, hi = span
    if _compare(lo, hi) > 0:
        return True
    for x in span:
        sign = _line_sign(seg, chord, x[2])
        if sign < 0 or (sign == 0 and (allowed is None or _compare(x, allowed) != 0)):
            return False
    return True
