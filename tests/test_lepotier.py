"""Boundary-curve construction and region classification."""

import functools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import (_arith_cover, label_calls, label_walk, region_by_fractions, strip_by_tent,
                      tent_height)

from stabscope import curve, exceptional, geometric, lepotier
from stabscope.corekit import (AffPt, CharVec, Polygon, ProjLine, _point_ints, _primitive,
                               _scaled_ints, cross3, point_in_polygon, slope, to_fraction)
from stabscope.exceptional import (DyadicLabel, ExcBundle, _int_char, char_of, el, eplus,
                                   er, is_exceptional_char, slope_to_label)
from stabscope.geometric import StabResult, exc_stable_at
from stabscope.lepotier import (DlpResult, ExclusionSegment, GeoAnswer,
                                RegionClass, build_curve, classify_point,
                                dlp_exists, geo_contains_segment)
from stabscope.surd import QuadReal, nsign


def pt(x, y) -> AffPt:
    return AffPt(Fraction(x), Fraction(y))


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def min_rank(depth: int) -> int:
    """Smallest rank among exceptional characters at exactly this depth."""
    return fib(2 * depth + 1)


def delta_safe(depth: int) -> Fraction:
    """The discriminant below which a point clears every label deeper than depth.

    Such a point is above the half-discriminant parabola and above the
    top of every exclusion of rank at least min_rank(depth + 1).
    """
    r = min_rank(depth + 1)
    return Fraction(1, 2) * (1 - Fraction(1, r * r))


def test_fibonacci_certificate():
    assert [fib(n) for n in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert delta_safe(0) == Fraction(3, 8)
    assert delta_safe(1) == Fraction(12, 25)
    assert delta_safe(2) == Fraction(1, 2) * (1 - Fraction(1, 13 * 13))
    assert all(delta_safe(d) < delta_safe(d + 1) < Fraction(1, 2)
               for d in range(8))


def test_min_rank_matches_enumeration():
    for depth in range(11):
        step = 1 << depth
        ranks = [char_of(DyadicLabel(p, depth)).ch0
                 for p in range(1, 4 * step, 2 if depth else 1)]
        assert min_rank(depth) == min(ranks)


def test_gap_midpoint_has_the_smallest_rank_of_its_gap():
    # the midpoint of the gap between adjacent slopes a < b of depth <= 9
    # has rank r_a * r_b * (3 - (b - a)), so no label of the gap ranks below it
    top = 10
    ranks = {p: char_of(DyadicLabel(p, top)).ch0 for p in range(1 << top)}
    for k in range(top):
        step = 1 << (top - k)
        for p in range(1 << k):
            lo, hi = char_of(DyadicLabel(p, k)), char_of(DyadicLabel(p + 1, k))
            mid = ranks[p * step + step // 2]
            assert mid == lo.ch0 * hi.ch0 * (3 - (hi.ch1 / hi.ch0 - lo.ch1 / lo.ch0))
            assert min(ranks[q] for q in range(p * step + 1, (p + 1) * step)) == mid


def test_build_curve_depth_zero():
    approx = build_curve(0, (Fraction(-1, 2), Fraction(3, 2)))
    xs = sorted({e.x for e in approx.exclusions})
    assert Fraction(0) in xs and Fraction(1) in xs
    labels = {str(s.label) for s in approx.segments}
    assert {"0", "1"} <= labels
    assert all(s.side in ("left", "right") for s in approx.segments)


def test_build_curve_adds_deeper_labels():
    xs1 = {e.x for e in build_curve(1, (Fraction(0), Fraction(1))).exclusions}
    assert Fraction(1, 2) in xs1
    xs2 = {e.x for e in build_curve(2, (Fraction(0), Fraction(1))).exclusions}
    assert Fraction(2, 5) in xs2 and Fraction(3, 5) in xs2


def test_segment_endpoints_in_strip():
    approx = build_curve(3, (Fraction(-2), Fraction(2)))
    half = Fraction(1, 2)
    for seg in approx.segments:
        for end in (seg.start, seg.end):
            d = end.delta()
            assert nsign(d - half) >= 0 and nsign(d - 1) <= 0
    for t in approx.tents:
        assert t.left.start.delta() == half
        assert t.right.end.delta() == half
        r = char_of(t.label).ch0
        assert t.apex.delta() == half + Fraction(1, 2 * r * r)


def test_exclusion_geometry():
    approx = build_curve(2, (Fraction(0), Fraction(1)))
    for exc in approx.exclusions:
        c = char_of(exc.label)
        assert exc.x == c.ch1 / c.ch0
        r = c.ch0
        assert exc.y_top - exc.y_bottom == Fraction(1, r * r)
        assert exc.y_top == c.ch2 / c.ch0


def test_classify_point_examples():
    assert classify_point(pt("1/2", 0), 4) is RegionClass.GEO_LP
    assert classify_point(pt(0, "-3/5"), 0) is RegionClass.ON_EXCLUSION
    assert classify_point(pt(0, -2), 0) is RegionClass.BELOW_CURVE
    assert classify_point(pt("9/20", "-41/100"), 1) is RegionClass.GEO_LP
    assert classify_point(pt(0, -1), 2) is RegionClass.ON_CURVE
    assert classify_point(pt(0, 0), 2) is RegionClass.ON_EXCLUSION


def test_exceptional_vertex_is_own_exclusion_top():
    for text in ("0", "1", "1/2", "3/4", "-3/2"):
        c = char_of(DyadicLabel.parse(text))
        p = c.proj()
        assert classify_point(p, 4) is RegionClass.ON_EXCLUSION, text


def test_classify_monotone_refinement():
    # a decided verdict is stable under deeper search
    pts = [pt(Fraction(i, 8), Fraction(j, 8) - 1)
           for i in range(-8, 9) for j in range(0, 17)]
    for p in pts:
        decided = None
        for depth in [*range(0, 7), 40]:
            got = classify_point(p, depth)
            if decided is None:
                if got is not RegionClass.UNKNOWN:
                    decided = got
            else:
                assert got is decided, (p, depth)


def test_classify_slope_negation_symmetry():
    for i in range(0, 17):
        for j in range(-12, 5):
            p = pt(Fraction(i, 16), Fraction(j, 16))
            q = pt(-p.x, p.y)
            assert classify_point(p, 5) is classify_point(q, 5), p


@seed(21)
@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_duality_for_points_and_characters(case):
    # dualising negates the slope and keeps the discriminant; around the
    # curve, the strip and the exclusions at random slopes and ranks
    rng = random.Random(case)
    x = Fraction(rng.randint(-96, 96), rng.randint(1, 32))
    y = x * x / 2 - Fraction(rng.randint(-8, 48), 32)
    depth = rng.randint(0, 6)
    assert classify_point(pt(x, y), depth) is classify_point(pt(-x, y), depth), (x, y, depth)
    r = rng.randint(1, 12)
    c = rng.randint(-3 * r, 3 * r)
    # ch2 in (1/2)Z with the discriminant in about [-0.25, 1.5]
    k = rng.randint(c * c // r - 3 * r, c * c // r + r // 2)
    v = CharVec(r, c, Fraction(k, 2))
    assert dlp_exists(v, depth) is dlp_exists(CharVec(r, -c, v.ch2), depth), (v, depth)


def test_dlp_examples():
    assert dlp_exists(CharVec(2, 2, 1), 2) is DlpResult.YES_EXCEPTIONAL
    assert dlp_exists(CharVec(3, 1, -2), 2) is DlpResult.YES
    assert dlp_exists(CharVec(2, 1, 1), 2) is DlpResult.NO
    with pytest.raises(ValueError):
        dlp_exists(CharVec(0, 1, 1), 2)
    with pytest.raises(ValueError):
        dlp_exists(CharVec(-1, 1, 1), 2)


def test_dlp_monotone_in_ch2():
    for ch0, ch1 in [(3, 1), (4, 1), (5, 2), (7, 3)]:
        seen_yes = False
        for k in range(8, -12, -1):
            got = dlp_exists(CharVec(ch0, ch1, Fraction(k, 4)), 5)
            if got is DlpResult.UNKNOWN:
                continue
            if seen_yes:
                assert got is DlpResult.YES, (ch0, ch1, k)
            elif got is DlpResult.YES:
                seen_yes = True


def test_geo_contains_segment_examples():
    assert geo_contains_segment(pt(0, 1), pt(1, 1), 0) is GeoAnswer.YES
    assert geo_contains_segment(pt(0, 0), pt("1/2", 0), 2,
                                exclude_a=True) is GeoAnswer.YES
    assert geo_contains_segment(pt(0, 0), pt("1/2", 0), 2) is GeoAnswer.NO
    with pytest.raises(ValueError):
        geo_contains_segment(pt(0, 1), pt(0, 1), 2)


def _fraction_line(pa, pb):
    """The segment's line in Fractions: None if an end is at discriminant > 1,
    else whether pb is the left (or, at equal x, lower) end and (L, L m, L c)
    with L = lcm(den m, den c), the level line y = y0 at the lower end of a
    vertical segment.
    """
    if any(AffPt(x, y).delta() > 1 for x, y in (pa, pb)):
        return None
    (x0, y0), (x1, y1) = sorted((pa, pb))
    m = 0 if x0 == x1 else (y1 - y0) / (x1 - x0)
    lcd, (lm, lc) = _scaled_ints((m, y0 - m * x0))
    return pa > pb, (lcd, lm, lc)


def _rational_end(rng):
    """A rational point of either sign near the strip, with integer
    coordinates or denominators up to 10^30, sometimes at discriminant 1."""
    if rng.random() < 0.2:
        return Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-40, 40))
    den = rng.choice((1, 2, 3, 12, 10 ** 6 + 3, 10 ** 30, rng.randrange(1, 10 ** 30)))
    x = Fraction(rng.randint(-9 * den, 9 * den), den)
    t = rng.choice((Fraction(1), Fraction(rng.randint(-3 * den, den + den // 4), den)))
    return x, x * x / 2 - t


def test_segment_line_matches_the_fraction_formulas():
    rng = random.Random(22)
    seen = Counter()
    for i in range(3000):
        pa = _rational_end(rng)
        pb = [_rational_end(rng), (pa[0], _rational_end(rng)[1]), (_rational_end(rng)[0], pa[1])][i % 3]
        if pa == pb:
            continue
        for u, v in ((pa, pb), (pb, pa)):
            want = _fraction_line(u, v)
            assert lepotier._segment_ints(_point_ints(AffPt(*u)), _point_ints(AffPt(*v))) == want, (u, v)
            if want is None:
                seen["below the strip"] += 1
            else:
                seen["vertical" if u[0] == v[0] else "slanted", want[0]] += 1
                # cross3 of the raw vectors d (1, x, y) has a common factor
                seen["reduced"] += want[1][0] < abs(u[0] - v[0]) * math.prod(
                    c.denominator for c in (*u, *v))
        seen["at discriminant 1"] += sum(AffPt(x, y).delta() == 1 for x, y in (pa, pb))
    # every branch is met: the swap both ways, the lower end of a vertical
    # segment either way round, a common factor, ends at and past the bound
    assert min(seen.values()) >= 20 and len(seen) == 7, seen


def test_rational_surd_ends_take_the_same_walk():
    rng = random.Random(23)
    for i in range(120):
        pa = _rational_end(rng)
        pb = [_rational_end(rng), (pa[0], _rational_end(rng)[1])][i % 2]
        if pa == pb:
            continue
        surd_ends = [AffPt(QuadReal(x), QuadReal(y)) for x, y in (pa, pb)]
        for exclude_a in (False, True):
            assert (geo_contains_segment(*surd_ends, 3, exclude_a)
                    is geo_contains_segment(pt(*pa), pt(*pb), 3, exclude_a)), (pa, pb)


def test_geo_contains_segment_detects_deep_crossing():
    a = pt("1/2", "-1/4")
    b = pt("1/2", "-5/8")
    assert geo_contains_segment(a, b, 3, exclude_a=True) is GeoAnswer.NO


def test_a_point_in_an_uncovered_gap_on_the_contact_parabola_is_decided():
    # Between two adjacent tents there is a slope gap no depth-3 segment
    # covers; a point of the contact parabola inside that gap is under a
    # deeper tent, which the point walk finds at every depth.
    depth = 3
    approx = build_curve(depth, (Fraction(0), Fraction(1)))
    tents = [t for t in approx.tents if nsign(t.apex.x) >= 0]
    left, right = tents[0], tents[1]
    lo, hi = left.right.end.x, right.left.start.x
    scale = 10 ** 30
    lo_above = Fraction(math.floor(lo * scale) + 1, scale)
    hi_below = Fraction(math.floor(hi * scale), scale)
    x = (lo_above + hi_below) / 2
    assert nsign(x - lo) > 0 and nsign(hi - x) > 0
    p = AffPt(x, x * x / 2 - Fraction(1, 2))
    assert not label_walk(x, depth)[1]
    want = region_by_fractions(p)
    assert want in (RegionClass.GEO_LP, RegionClass.ON_CURVE)
    assert all(classify_point(p, d) is want for d in (0, depth, depth + 4))


# Reference decisions from every tent and exclusion that build_curve
# enumerates over the query's unit cells, with nothing pruned.

@functools.cache
def _cells(depth, lo, hi):
    return build_curve(depth, (Fraction(lo), Fraction(hi)))


def _curve_near(x0, x1, depth):
    return _cells(depth, math.floor(x0), math.ceil(x1))


# a label of slope x ranks den(x), and a label of depth m ranks at least
# 2^m, so x's label has depth <= den(x).bit_length(), at most 13 for the
# denominators up to 4096 of _random_point
_LABEL_DEPTH = 13


@functools.cache
def _labels_by_slope(n):
    """Every label of depth <= _LABEL_DEPTH in [n, n + 1], keyed by its slope from char_of."""
    k = _LABEL_DEPTH
    return {slope(char_of(DyadicLabel(p, k))): DyadicLabel(p, k)
            for p in range(n << k, (n + 1 << k) + 1)}


def _exclusion_hit(label, p):
    """Whether p is on the label's exclusion, read off char_of; None has none."""
    if label is None:
        return False
    c = char_of(label)
    top = c.ch2 / c.ch0
    return top - 1 / c.ch0 ** 2 <= p.y <= top


def _reference_point(p, depth):
    """classify_point from the tents of depth <= depth that build_curve lists,
    or where none covers p.x, of the depth of conftest.label_walk's label."""
    half = Fraction(1, 2)
    if p.delta() < half:
        assert p.x.denominator.bit_length() <= _LABEL_DEPTH
        label = _labels_by_slope(math.floor(p.x)).get(p.x)
        return RegionClass.ON_EXCLUSION if _exclusion_hit(label, p) else RegionClass.GEO_LP
    if p.delta() > 1:
        return RegionClass.BELOW_CURVE
    for depth in (depth, label_walk(p.x)[0].m):
        approx = _curve_near(p.x, p.x, depth)
        tents = [t for t in approx.tents if t.left.start.x <= p.x <= t.right.end.x]
        if tents:
            break
    assert len(tents) == 1, p
    yt = tent_height(tents[0], p.x)
    if p.y == yt:
        return RegionClass.ON_CURVE
    if p.y < yt:
        return RegionClass.BELOW_CURVE
    exc = [e for e in approx.exclusions if e.label == tents[0].label][0]
    if p.x == exc.x and p.y <= exc.y_top:
        return RegionClass.ON_EXCLUSION
    return RegionClass.GEO_LP


def _reference_segment(a, b, depth, exclude_a):
    if a.delta() > 1 or b.delta() > 1:
        return GeoAnswer.NO
    x0, x1 = sorted((a.x, b.x))
    approx = _curve_near(x0, x1, depth)

    def ys(x):
        """The lowest and highest segment height over slope x."""
        if a.x == b.x:
            return min(a.y, b.y), max(a.y, b.y)
        y = a.y + (b.y - a.y) * (x - a.x) / (b.x - a.x)
        return y, y

    def only_a(x, y):
        return exclude_a and AffPt(x, y) == a

    for e in approx.exclusions:
        if x0 <= e.x <= x1:
            lo, hi = ys(e.x)
            lo, hi = max(lo, e.y_bottom), min(hi, e.y_top)
            if lo <= hi and not (lo == hi and only_a(e.x, lo)):
                return GeoAnswer.NO
    for seg in approx.segments:
        lo, hi = max(seg.start.x, x0), min(seg.end.x, x1)
        for x in ((lo, hi) if lo <= hi else ()):
            y = ys(x)[0]
            sign = nsign(y - seg.line.y_at(x))
            if sign < 0 or (sign == 0 and not only_a(x, y)):
                return GeoAnswer.NO
    safe = delta_safe(depth)
    for left, right in zip(approx.tents, approx.tents[1:]):
        lo, hi = max(left.right.end.x, x0), min(right.left.start.x, x1)
        if lo <= hi and any(x * x / 2 - ys(x)[0] >= safe for x in (lo, hi)):
            return GeoAnswer.UNKNOWN
    return GeoAnswer.YES


def _random_point(rng, x_lo, x_hi):
    den = rng.choice([1, 2, 3, 8, 13, 64, 101, 4096])
    x = Fraction(rng.randint(math.floor(x_lo * den), math.ceil(x_hi * den)), den)
    lo, hi = rng.choice([(-0.3, 1.2), (0.3, 0.6), (0.45, 0.52), (0.49, 0.51)])
    delta = Fraction(rng.randint(int(lo * 4096), int(hi * 4096)), 4096)
    return AffPt(x, x * x / 2 - delta)


def _exceptional_point(rng):
    m = rng.randint(0, 4)
    return char_of(DyadicLabel(rng.randint(-2 << m, 2 << m), m)).proj()


def _chord_point(rng):
    """A rational point inside a tent chord of a label of depth <= 3."""
    m = rng.randint(0, 3)
    label = DyadicLabel(rng.randint(-2 << m, 2 << m), m)
    r = char_of(label).ch0
    x = eplus(label).x + rng.choice([-1, 1]) * Fraction(1, 4 * r * r)
    tent = [t for t in _curve_near(x, x, 3).tents if t.label == label][0]
    return AffPt(x, tent_height(tent, x))


def test_walk_matches_enumeration():
    rng = random.Random(2024)
    for _ in range(700):
        depth = rng.randint(0, 7)
        p = _random_point(rng, -2, 2)
        assert classify_point(p, depth) is _reference_point(p, depth), (p, depth)
        kind = rng.choice(["plain", "cross", "vertical", "exceptional", "chord"])
        a = p
        if kind == "exceptional":
            a = _exceptional_point(rng)
        elif kind == "chord":
            a = _chord_point(rng)
        if kind == "vertical":
            b = AffPt(a.x, a.y + Fraction(rng.randint(-64, 64), 64))
        else:
            width = Fraction(2) if kind == "cross" else Fraction(1, 4)
            b = _random_point(rng, a.x - width, a.x + width)
        if a == b:
            continue
        exclude_a = rng.random() < 0.5
        want = _reference_segment(a, b, depth, exclude_a)
        got = geo_contains_segment(a, b, depth, exclude_a=exclude_a)
        assert got is want, (a, b, depth, exclude_a)


def _bisect_label(mu, depth):
    """The label of slope mu and depth <= depth, by bisection to the full depth."""
    p = math.floor(mu)
    if p == mu:
        return DyadicLabel(p)
    for m in range(1, depth + 1):
        mid = DyadicLabel(2 * p + 1, m)
        c = char_of(mid)
        if c.ch1 / c.ch0 == mu:
            return mid
        p = 2 * p + (c.ch1 / c.ch0 < mu)
    return None


def test_exclusion_verdict_is_the_same_at_every_depth():
    # the reference bisects to depth den(x).bit_length(), below which no
    # label ranks den(x), and ignores the budget
    rng = random.Random(909)
    hits = 0
    for _ in range(3000):
        depth = rng.randint(0, 10)
        m = rng.randint(0, 8)
        c = char_of(DyadicLabel(rng.randint(-4 << m, 4 << m), m))
        x = c.ch1 / c.ch0
        if rng.random() < 0.2:
            x += Fraction(rng.choice([-1, 1]), rng.randint(2, 1 << 12))
        y = c.ch2 / c.ch0 - Fraction(rng.randint(-8, 16), 16) / c.ch0 ** 2
        p = AffPt(x, y)
        if p.delta() >= Fraction(1, 2):
            continue
        hit = _exclusion_hit(_bisect_label(x, x.denominator.bit_length()), p)
        hits += hit
        want = RegionClass.ON_EXCLUSION if hit else RegionClass.GEO_LP
        assert classify_point(p, depth) is want, (p, depth)
    assert hits > 500


def test_depth_is_cheap_above_the_strip():
    start = time.perf_counter()
    p = pt("117/100", "103/100")
    assert p.delta() < 0
    assert classify_point(p, 100000) is RegionClass.GEO_LP
    top = char_of(DyadicLabel(5, 3)).proj()
    assert classify_point(top, 100000) is RegionClass.ON_EXCLUSION
    assert time.perf_counter() - start < 1.0


def test_a_deep_strip_point_takes_no_budget():
    # the apex slope c/r of the label 1/2^4000, a 5 554-bit rank, at
    # discriminant 3/4: below the apex, at the default depth, in under 1 s
    r, c, _ = _int_char(1, 4000)
    x = Fraction(c, r)
    p = AffPt(x, x * x / 2 - Fraction(3, 4))
    start = time.perf_counter()
    assert classify_point(p, 8) is RegionClass.BELOW_CURVE
    assert time.perf_counter() - start < 1.0
    assert dlp_exists(CharVec(r, c, r * p.y), 0) is DlpResult.YES


def _apexes_on_segment(a, b, exclude_a):
    """GeoAnswer from every integer point (n, n^2/2) of the segment's span."""
    ux, uy = b.x - a.x, b.y - a.y
    x0, x1 = sorted((a.x, b.x))
    for n in range(math.ceil(x0), math.floor(x1) + 1):
        wx, wy = Fraction(n) - a.x, Fraction(n * n, 2) - a.y
        # on the segment from a to b, with the end a left out under exclude_a
        if ux * wy == uy * wx and 0 <= ux * wx + uy * wy <= ux * ux + uy * uy:
            if not (exclude_a and wx == wy == 0):
                return GeoAnswer.NO
    return GeoAnswer.YES


def test_nonpositive_discriminant_segments_match_the_apex_scan():
    rng = random.Random(4141)
    blocked = 0
    for _ in range(2000):
        ends = []
        for _ in range(2):
            if rng.random() < 0.4:
                n = rng.randint(-20, 20)
                ends.append(pt(n, Fraction(n * n, 2)))
            else:
                x = Fraction(rng.randint(-80, 80), rng.randint(1, 8))
                ends.append(AffPt(x, x * x / 2 + Fraction(rng.randint(0, 40), rng.randint(1, 9))))
        a, b = ends
        if rng.random() < 0.1:
            b = AffPt(a.x, a.y + rng.randint(-3, 3))
        if a == b or b.delta() > 0:
            continue
        exclude_a = rng.random() < 0.5
        want = _apexes_on_segment(a, b, exclude_a)
        blocked += want is GeoAnswer.NO
        assert geo_contains_segment(a, b, 4, exclude_a=exclude_a) is want, (a, b, exclude_a)
    assert blocked > 300


def test_wide_nonpositive_discriminant_segment_is_constant_time():
    start = time.perf_counter()
    x = Fraction(10 ** 6) + Fraction(1, 2)
    E = ExcBundle.of(DyadicLabel(0))
    assert exc_stable_at(E, AffPt(x, x * x / 2), 4) is StabResult.STABLE_SHIFTED
    assert time.perf_counter() - start < 1.0


def test_wide_segments_match_enumeration():
    rng = random.Random(3131)
    for _ in range(80):
        depth = rng.randint(0, 3)
        a = _random_point(rng, -6, 6)
        b = _random_point(rng, a.x - 12, a.x + 12)
        if a == b:
            continue
        exclude_a = rng.random() < 0.5
        want = _reference_segment(a, b, depth, exclude_a)
        assert geo_contains_segment(a, b, depth, exclude_a=exclude_a) is want, (a, b, depth)


def test_wide_segment_with_positive_discriminant_ends_is_constant_time():
    start = time.perf_counter()
    x0, x1 = -Fraction(10 ** 6) - Fraction(1, 2), Fraction(10 ** 6) + Fraction(1, 2)
    a, b = pt(x0, x0 * x0 / 2 - Fraction(1, 4)), pt(x1, x1 * x1 / 2 - Fraction(1, 4))
    assert geo_contains_segment(a, b, 4) is GeoAnswer.YES
    n = 10 ** 6
    for apex, end in ((pt(n, Fraction(n * n, 2)), a), (pt(-n, Fraction(n * n, 2)), b)):
        assert geo_contains_segment(end, apex, 4) is GeoAnswer.NO
        assert geo_contains_segment(apex, end, 4) is GeoAnswer.NO
        assert geo_contains_segment(apex, end, 4, exclude_a=True) is GeoAnswer.YES
    assert time.perf_counter() - start < 1.0


def test_boundary_slice_segment_is_decided_by_the_local_bound():
    # a segment from the benchmark's boundary slice: at budget 3 its
    # discriminant over the open gap is above delta_safe(3) but below the
    # bound of the gap's midpoint label
    a = char_of(DyadicLabel(-91, 2)).proj()
    b = pt(Fraction(-4387, 194), Fraction(2775579467, 10876804))
    assert _reference_segment(a, b, 3, True) is GeoAnswer.UNKNOWN
    assert _reference_segment(a, b, 4, True) is GeoAnswer.YES
    assert geo_contains_segment(a, b, 3, exclude_a=True) is GeoAnswer.YES


def test_slope_search_stops_by_rank():
    # exceptional slopes, their neighbours at distance 1/q, and plain
    # rationals; the search, which stops by rank alone, answers as full
    # bisection and within den(x).bit_length() levels
    rng = random.Random(1717)
    found = 0
    for _ in range(1500):
        m = rng.randint(0, 12)
        c = char_of(DyadicLabel(rng.randint(-2 << m, 2 << m), m))
        kind = rng.choice(["exceptional", "neighbour", "plain"])
        if kind == "exceptional":
            x = c.ch1 / c.ch0
        elif kind == "neighbour":
            x = c.ch1 / c.ch0 + Fraction(rng.choice([-1, 1]), rng.randint(2, 1 << 20))
        else:
            x = Fraction(rng.randint(-1 << 16, 1 << 16), rng.randint(1, 1 << 14))
        want = _bisect_label(x, 12)
        got = slope_to_label(x)
        if want is None:
            assert got is None or (got.m > 12 and slope(char_of(got)) == x), x
        else:
            found += 1
            assert got == want, x
        assert got is None or got.m <= x.denominator.bit_length(), x
    assert found > 400


@pytest.mark.parametrize("call,args", [
    (classify_point, (pt("1/2", 0), -3)),
    (classify_point, (pt("1/2", -3), -3)),
    (classify_point, (pt("1/3", "-25/36"), -1)),
    (dlp_exists, (CharVec(1, 0, 0), -1)),
    (dlp_exists, (CharVec(3, 1, -2), -1)),
    (geo_contains_segment, (pt(0, 0), pt("1/3", 1), -2)),
    (geo_contains_segment, (pt(0, "-3/5"), pt("1/3", "-1/2"), -1)),
    (geo_contains_segment, (pt("1/3", "-1/2"), pt("1/3", 0), -1)),
], ids=["point-above", "point-below", "point-strip", "dlp-exceptional",
        "dlp-strip", "segment-above", "segment-strip", "segment-vertical"])
def test_negative_depth_raises(call, args):
    with pytest.raises(ValueError, match="negative depth"):
        call(*args)


def test_a_surd_end_raises_at_any_discriminant():
    # the segment walk takes rational ends only: el is a surd point at
    # discriminant 1/2, and above it its slope has surd points at 0 and -1
    c = el(DyadicLabel(1, 1))
    zero, above = AffPt(c.x, c.x * c.x / 2), AffPt(c.x, c.x * c.x / 2 + 1)
    nonpositive = ((zero, pt(1, 2)), (pt(0, 1), above), (zero, above), (above, pt(0, 0)))
    positive = ((c, pt(0, 0)), (pt(0, "-1/4"), c), (AffPt(c.x, c.y - 2), pt(0, 1)))
    assert all(a.delta() <= 0 and b.delta() <= 0 for a, b in nonpositive)
    for a, b in nonpositive + positive:
        with pytest.raises(ValueError, match="irrational quadratic value"):
            geo_contains_segment(a, b, 3)


def test_vertical_segment_at_uncovered_slope_uses_the_local_bound():
    # the slope lies in the gap between the depth-3 tents of 1/8 and 1/4,
    # and the lower end's discriminant is above delta_safe(3) but below the
    # bound of the gap's midpoint label
    a = pt(Fraction(1933, 5000), Fraction(-6139529679, 14450000000))
    b = pt(a.x, a.y + 1)
    assert er(DyadicLabel(1, 3)).x < a.x < el(DyadicLabel(1, 2)).x
    assert delta_safe(3) < a.delta() < Fraction(1, 2)
    assert _reference_segment(a, b, 3, False) is GeoAnswer.UNKNOWN
    assert _reference_segment(a, b, 4, False) is GeoAnswer.YES
    assert geo_contains_segment(a, b, 3) is GeoAnswer.YES
    # the gap's midpoint is 3/16; a lower end at its bound leaves the gap open
    r = char_of(DyadicLabel(3, 4)).ch0
    bound = Fraction(1, 2) * (1 - 1 / r ** 2)
    for d, want in ((bound - Fraction(1, 10 ** 9), GeoAnswer.YES), (bound, GeoAnswer.UNKNOWN)):
        a = pt(a.x, a.x * a.x / 2 - d)
        assert geo_contains_segment(a, pt(a.x, a.y + 1), 3) is want, d
    # both ends at discriminant <= 0, at the uncovered slope, at a covered
    # one and at integers: only a rank-1 exclusion top, an integer apex
    # (n, n^2/2), stops the segment, unless it is the half-open end
    top = a.x * a.x / 2
    cases = [(pt(a.x, top), pt(a.x, top + 1), False, GeoAnswer.YES),
             (pt("1/2", "1/8"), pt("1/2", 1), False, GeoAnswer.YES),
             (pt(0, 0), pt(0, 1), False, GeoAnswer.NO),
             (pt(0, 0), pt(0, 1), True, GeoAnswer.YES),
             (pt(0, 1), pt(0, 0), True, GeoAnswer.NO),
             (pt(-2, 3), pt(-2, 5), False, GeoAnswer.YES)]
    for a, b, exclude_a, want in cases:
        assert geo_contains_segment(a, b, 3, exclude_a=exclude_a) is want, (a, b, exclude_a)
        assert _reference_segment(a, b, 3, exclude_a) is want, (a, b, exclude_a)


def test_unknown_verdicts_are_decided_by_a_larger_budget():
    # a point's verdict takes no budget: the depth-1 label 1/2 covers v's slope
    v = CharVec(2, 1, Fraction(-3, 2))
    assert not label_walk(v.proj().x, 0)[1]
    assert all(dlp_exists(v, d) is DlpResult.YES for d in (0, 1, 2, 3))
    E, P = ExcBundle.of("0"), pt("-7/10", "-16/75")
    assert exc_stable_at(E, P, 0) is StabResult.UNKNOWN
    assert all(exc_stable_at(E, P, d) is StabResult.STABLE_UNSHIFTED for d in (1, 2, 3))


def test_a_larger_budget_keeps_dlp_verdicts():
    # no verdict is Unknown and every depth gives the same one, also where
    # the covering tent is deeper than the budget
    deeper = 0
    for r in range(1, 9):
        for c in range(r + 1):
            for k in range(-40, 41):
                v = CharVec(r, c, Fraction(k, 2))
                p = v.proj()
                if not Fraction(1, 4) <= p.delta() <= Fraction(11, 10):
                    continue
                got = [dlp_exists(v, d) for d in range(6)]
                assert DlpResult.UNKNOWN not in got and got == got[:1] * 6, (v, got)
                deeper += Fraction(1, 2) <= p.delta() <= 1 and not label_walk(p.x, 0)[1]
    assert deeper > 20


def _old_dlp(v, depth):
    """dlp_exists by the label search: classify, then look for v's label."""
    cls = classify_point(v.proj(), depth)
    if cls is RegionClass.ON_EXCLUSION and is_exceptional_char(v):
        return DlpResult.YES_EXCEPTIONAL
    if cls in (RegionClass.BELOW_CURVE, RegionClass.ON_CURVE):
        return DlpResult.YES
    return DlpResult.NO


def _integral_chars(cell, max_rank, lo, hi):
    """Characters with ch2 in Z - 3c/2, slope in [cell, cell + 1) and lo <= Delta <= hi."""
    for r in range(1, max_rank + 1):
        for c in range(cell * r, (cell + 1) * r):
            mu, off = Fraction(c, r), Fraction(c % 2, 2)
            k_lo = math.ceil(r * (mu * mu / 2 - hi) - off)
            k_hi = math.floor(r * (mu * mu / 2 - lo) - off)
            yield from (CharVec(r, c, k + off) for k in range(k_lo, k_hi + 1))


def test_dlp_reads_exceptionality_off_the_exclusion_top():
    chars = [v for cell in (-2, 0) for v in _integral_chars(cell, 12, Fraction(-1, 4),
                                                               Fraction(11, 10))]
    half = Fraction(1, 2)
    above, strip = 0, 0
    for depth in (0, 1, 8):
        for v in chars:
            got = dlp_exists(v, depth)
            assert got is _old_dlp(v, depth), (v, depth)
            d = v.proj().delta()
            above += got is DlpResult.YES_EXCEPTIONAL and d < half
            strip += d >= half and classify_point(v.proj(), depth) is RegionClass.ON_EXCLUSION
    assert above > 20 and strip > 20


def _ints_of(x, y):
    """The integer vector d (1, x, y), d = den(x) den(y), of a rational point."""
    x, y = Fraction(x), Fraction(y)
    d = x.denominator * y.denominator
    return d, x.numerator * y.denominator, y.numerator * x.denominator


def _dlp_by_fractions(v):
    """dlp_exists as it was taken in Fractions: the discriminant read twice."""
    p = v.proj()
    cls = region_by_fractions(p)
    if cls is RegionClass.ON_EXCLUSION and p.delta() == (1 - Fraction(1, p.x.denominator ** 2)) / 2:
        return DlpResult.YES_EXCEPTIONAL
    if cls in (RegionClass.BELOW_CURVE, RegionClass.ON_CURVE):
        return DlpResult.YES
    return DlpResult.NO


def test_integer_region_core_matches_the_fraction_rule():
    rng = random.Random(2525)
    eps = Fraction(1, 2 ** 60)
    points, chars = [], []
    # exclusion tops of ranks up to 10^6, exactly and 2^-60 below and above,
    # and the characters there, some scaled
    ranks = []
    while len(ranks) < 400:
        m = rng.randint(0, 16)
        label = (DyadicLabel(2 * rng.randint(-3 << m, 3 << m) + 1, m + 1)
                 if rng.random() < 0.9 else DyadicLabel(rng.randint(-6, 6)))
        r, c, e = _int_char(label.p, label.m)
        if r > 10 ** 6:
            continue
        ranks.append(r)
        x, y = Fraction(c, r), Fraction(e, 2 * r)
        points += [(x, y), (x, y - eps), (x, y + eps)]
        k = rng.randint(1, 9)
        chars += [CharVec(k * r, k * c, k * y * r + s * k * r * eps) for s in (-1, 0, 1)]
    assert max(ranks) > 10 ** 5 and ranks.count(1) > 10
    # slopes of every kind around the strip, at discriminants 1/2 and 1 exactly
    for _ in range(1500):
        x = Fraction(rng.randint(-300, 300), rng.randint(1, 64))
        d = rng.choice([Fraction(1, 2), Fraction(1),
                        Fraction(rng.randint(-16, 80), rng.randint(1, 64))])
        points.append((x, x * x / 2 - d))
    # tent apexes and points of the chords, on the curve
    for tent in build_curve(3, (Fraction(-2), Fraction(2))).tents:
        a = tent.apex
        points.append((a.x, a.y))
        for side in (-1, 1):
            x = a.x + Fraction(side, 1000 * int(char_of(tent.label).ch0) ** 2)
            points.append((x, tent_height(tent, x)))
    seen = Counter()
    for x, y in points:
        p = AffPt(x, y)
        want = region_by_fractions(p)
        for depth in (0, rng.randint(1, 6)):
            seen[want] += 1
            assert classify_point(p, depth) is want, (p, depth)
            # any positive multiple of the vector gives the same answer
            w, X, Y = _ints_of(x, y)
            k = rng.randint(1, 50)
            assert lepotier._classify_ints(k * w, k * X, k * Y) is want, (p, k)
    assert set(seen) == set(RegionClass) - {RegionClass.UNKNOWN}
    assert seen[RegionClass.ON_CURVE] > 50
    exceptional = 0
    for v in chars:
        depth = rng.randint(0, 4)
        want = _dlp_by_fractions(v)
        exceptional += want is DlpResult.YES_EXCEPTIONAL
        assert dlp_exists(v, depth) is want, (v, depth)
    assert exceptional > 300


def test_classify_point_at_the_half_discriminant_takes_the_point_walk():
    # at discriminant exactly 1/2 a point is in the strip: at slope 1/2 it
    # is on the exclusion of the label 1/2 below it, which the point walk
    # finds at every depth, though depth 0 lists no tent covering 1/2
    p = pt("1/2", "-3/8")
    assert p.delta() == Fraction(1, 2)
    assert not label_walk(p.x, 0)[1]
    assert classify_point(p, 0) is classify_point(p, 1) is RegionClass.ON_EXCLUSION
    # the exclusion top of the label 1/2, at y = -1/4, over d = 8 and over 2
    top = pt("1/2", "-1/4")
    assert lepotier._classify_ints(8, 4, -2) is classify_point(top, 0) is RegionClass.ON_EXCLUSION


def _strip_points(rng, cell, count):
    """Seeded points at discriminants 1/2 to 1 near a unit cell, some on the
    chord that covers them at depth 8 of label_walk.
    """
    points = []
    for _ in range(count):
        den = rng.choice((1, 3, 7, 64, 1000, 2 ** 20 + 7))
        x = cell + Fraction(rng.randint(-den, 2 * den), den)
        y = x * x / 2 - Fraction(rng.randint(512, 1024), 1024)
        label, covered = label_walk(x, 8)
        if covered and rng.random() < 0.3:
            y = tent_height(curve._tent(label), x)
        points.append((x, y))
    return points


def _strip_labels():
    """The labels of depth <= 3 in the cells at 0 and 300."""
    return [DyadicLabel(p, m) for n in (0, 300) for m in range(4)
            for p in range(n << m, (n + 1 << m) + 1)]


def _strip_edges():
    """Points on each chord of the _strip_labels, and 2^-60 off them, and the
    apex, the exclusion and its top, with the class each must take at the
    label's depth.
    """
    eps, unit = Fraction(1, 2 ** 60), 1 << 60
    edges = []
    for label in _strip_labels():
        tent, (r, _, e) = curve._tent(label), _int_char(label.p, label.m)
        apex, top = tent.apex, Fraction(e, 2 * r)
        near_contacts = (Fraction(math.floor(el(label).x * unit) + 1, unit),
                         Fraction(math.floor(er(label).x * unit), unit))
        for x in (apex.x - Fraction(1, 4 * r * r), apex.x + Fraction(1, 4 * r * r), *near_contacts):
            y = tent_height(tent, x)
            edges += [(label, x, y, RegionClass.ON_CURVE), (label, x, y + eps, RegionClass.GEO_LP),
                      (label, x, y - eps, RegionClass.BELOW_CURVE)]
        edges += [(label, apex.x, apex.y, RegionClass.ON_CURVE),
                  (label, apex.x, apex.y - eps, RegionClass.BELOW_CURVE),
                  (label, apex.x, (apex.y + top) / 2, RegionClass.ON_EXCLUSION),
                  (label, apex.x, top, RegionClass.ON_EXCLUSION)]
    return edges


def test_strip_verdicts_on_integer_lines_match_the_tent_rule():
    rng = random.Random(3535)
    seen = Counter()
    for cell in (0, 10, 300, 9000):
        for x, y in _strip_points(rng, cell, 60):
            w, X, Y = _ints_of(x, y)
            want = strip_by_tent(x, y)
            assert lepotier._strip_class(w, X, Y, x.numerator, x.denominator) is want, (x, y)
            for depth in range(9):
                seen[want] += 1
                if Fraction(1, 2) <= x * x / 2 - y <= 1:
                    assert classify_point(AffPt(x, y), depth) is want, (x, y, depth)
    assert set(seen) == set(RegionClass) - {RegionClass.UNKNOWN}
    assert seen[RegionClass.ON_CURVE] > 100
    for label, x, y, want in _strip_edges():
        w, X, Y = _ints_of(x, y)
        assert strip_by_tent(x, y) is want, (label, x, y)
        assert lepotier._strip_class(w, X, Y, x.numerator, x.denominator) is want, (label, x, y)
    # 2^-60 above the exclusion's top, at discriminant below (1/2)(1 - 1/r^2)
    # < 1/2, a point is above the strip, which _strip_class never sees
    for label in _strip_labels():
        (r, c, e), eps = _int_char(label.p, label.m), Fraction(1, 2 ** 60)
        above = AffPt(Fraction(c, r), Fraction(e, 2 * r) + eps)
        assert strip_by_tent(above.x, above.y) is RegionClass.GEO_LP, label
        assert classify_point(above, label.m) is RegionClass.GEO_LP, label
    # the label 1/2 covers the slope 1/2, which no tent of depth 0 covers
    w, X, Y = _ints_of(Fraction(1, 2), Fraction(-3, 8))
    assert lepotier._strip_class(w, X, Y, 1, 2) is RegionClass.ON_EXCLUSION


def test_strip_verdicts_build_no_tent(monkeypatch):
    rng = random.Random(4646)
    points = [AffPt(x, y) for cell in (0, 10, 300) for x, y in _strip_points(rng, cell, 40)
              if Fraction(1, 2) <= x * x / 2 - y <= 1]
    chars = [CharVec(*_ints_of(p.x, p.y)) for p in points]
    depths = [rng.randint(0, 8) for _ in points]
    classes = [classify_point(p, depth) for p, depth in zip(points, depths)]
    answers = [dlp_exists(v, depth) for v, depth in zip(chars, depths)]
    assert set(classes) == set(RegionClass) - {RegionClass.UNKNOWN}
    assert set(answers) == {DlpResult.YES, DlpResult.NO}
    tent = curve._tent

    def cold():
        for cached in (tent, lepotier._tent_ends, exceptional._contact):
            cached.cache_clear()

    def refuse(label):
        raise AssertionError("a tent built for a point decision")

    cold()
    monkeypatch.setattr(curve, "_tent", refuse)
    assert [classify_point(p, depth) for p, depth in zip(points, depths)] == classes
    cold()
    assert [dlp_exists(v, depth) for v, depth in zip(chars, depths)] == answers


def _walk_inputs(rng):
    """Rationals for the point walk: the apex slope c/r of every label of
    depth <= 4 in three cells and of seeded labels of depth 5 to 12, the two
    dyadic slopes 2^-60 apart around each of their contact slopes, and
    seeded fractions.
    """
    unit = 1 << 60
    labels = {DyadicLabel(p, 4) for n in (-3, 0, 7) for p in range(n << 4, (n + 1 << 4) + 1)}
    labels |= {DyadicLabel(rng.randrange(-3 << m, 8 << m) | 1, m)
               for m in rng.choices(range(5, 13), k=24)}
    xs = []
    for label in sorted(labels):
        r, c, _ = _int_char(label.p, label.m)
        xs.append(Fraction(c, r))
        for point in (el(label), er(label)):
            below = Fraction(math.floor(point.x * unit), unit)
            xs += [below, below + Fraction(1, unit)]
    xs += [Fraction(rng.randint(-400, 900), rng.choice((1, 3, 7, 64, 1000, 2 ** 20 + 7)))
           for _ in range(60)]
    return xs


def test_the_point_walk_matches_the_label_walk(monkeypatch):
    # conftest.label_walk is the walk as it was on DyadicLabel, eplus, el and
    # er, taken to the rank bound; the walk on (p, m) gives its label, and of
    # the contact points it read, reads those of the integer labels and of
    # the midpoints within 0.4/r^2 of x, in the same order
    rng = random.Random(3838)
    xs = _walk_inputs(rng)
    reads = []
    contact = lepotier._contact
    monkeypatch.setattr(lepotier, "_contact",
                        lambda p, m, side: reads.append((p, m, side)) or contact(p, m, side))
    found, skipped = Counter(), 0
    for x in xs:
        want_reads = []
        want, covered = label_walk(x, reads=want_reads)
        reads.clear()
        assert covered and lepotier._tent_at(x.numerator, x.denominator) == (want.p, want.m), x
        near = [(p, m, side) for p, m, side in want_reads if m == 0
                or abs(x - eplus(DyadicLabel(p, m)).x) * _int_char(p, m)[0] ** 2 <= Fraction(2, 5)]
        assert reads == near, x
        found[want.m] += 1
        skipped += len(want_reads) - len(near)
    # labels of every depth are found, and the filter spares many surds
    assert set(range(13)) <= set(found) and skipped > 300


def test_the_point_walk_matches_the_arithmetic_cover():
    # conftest._arith_cover finds the covering label's slope by continued
    # fractions and the arithmetic label rule, with no label tree
    rng = random.Random(3939)
    xs = _walk_inputs(rng)
    for _ in range(1500):
        den = rng.randint(1, 10 ** rng.randint(1, 9))
        xs.append(Fraction(rng.randint(-3 * den, 3 * den), den))
    for x in xs:
        r, c, _ = _int_char(*lepotier._tent_at(x.numerator, x.denominator))
        assert _arith_cover(x.numerator, x.denominator) == (c, r), x


def test_tent_exclusion_is_the_characters_vertical():
    for m in range(5):
        for p in range(-2 << m, (2 << m) + 1, 2 if m else 1):
            label = DyadicLabel(p, m)
            c = char_of(label)
            top = c.proj()
            want = ExclusionSegment(label, top.x, top.y, top.y - Fraction(1, c.ch0 ** 2))
            assert curve._tent(label).exclusion == want, label


def test_a_larger_budget_keeps_stability_verdicts():
    rng = random.Random(5)
    unknowns = 0
    for text in ("0", "1/2", "3/4"):
        E = ExcBundle.of(text)
        for _ in range(40):
            P = pt(Fraction(rng.randint(-40, 60), 40), Fraction(rng.randint(-60, 20), 40))
            if any(classify_point(P, d) is not RegionClass.GEO_LP for d in range(6)):
                continue
            got = [exc_stable_at(E, P, d) for d in range(6)]
            unknowns += StabResult.UNKNOWN in got
            decided = [g for g in got if g is not StabResult.UNKNOWN]
            assert decided == decided[-1:] * len(decided), (text, P, got)
    assert unknowns > 0


def test_contact_points_classify_on_the_curve():
    # el and er are surds on y = x^2/2 - 1/2, which the point decisions
    # refuse.  At the rational slope 2^-60 inside each, a point on the tent's
    # chord is on the curve, 1/1000 above it is the geometric region and
    # 1/1000 below is under the curve
    eps, unit = Fraction(1, 1000), 1 << 60
    square = Polygon((pt(-2, -2), pt(2, -2), pt(2, 2), pt(-2, 2)), (True,) * 4, (True,) * 4)
    labels = [DyadicLabel(p, m) for m in range(5) for p in range(-(1 << m), 1 << m)]
    for label in labels:
        tent = curve._tent(label)
        for p, chord, inward in ((el(label), tent.left, 1), (er(label), tent.right, 0)):
            assert not p.x.is_rational
            with pytest.raises(ValueError, match="irrational"):
                classify_point(p, label.m)
            with pytest.raises(ValueError, match="irrational"):
                point_in_polygon(p, square)
            x = Fraction(math.floor(p.x * unit) + inward, unit)
            assert x - Fraction(1, unit) < p.x < x + Fraction(1, unit)
            assert tent.left.start.x < x < tent.right.end.x
            y = chord.line.y_at(x)
            assert classify_point(AffPt(x, y), label.m) is RegionClass.ON_CURVE, (label, x)
            assert classify_point(AffPt(x, y + eps), label.m) is RegionClass.GEO_LP
            assert classify_point(AffPt(x, y - eps), label.m) is RegionClass.BELOW_CURVE


# The segment walk decided with QuadReal arithmetic alone, without rational
# brackets or integer signs, and over every unit cell of the slope span: the
# exact reference of the filtered walk.  A vertical segment is held against
# the tent that covers its slope, found by conftest.label_walk on the QuadReal
# contact points.

def _integer_apex(p):
    """Whether p is (n, n^2/2) for an integer n, the top of the rank-1 exclusion at n."""
    return p.x.denominator == 1 and p.delta() == 0


def _exact_vertical(a, b, depth, exclude_a):
    """A vertical segment against the tent covering its slope, or else the
    bound of the open gap's midpoint at its lower end.
    """
    x, (y_lo, y_hi) = a.x, sorted((a.y, b.y))
    label, covered = label_walk(x, depth)
    if not covered:
        # no label of the gap ranks below its midpoint, and the lower end
        # has the larger discriminant
        r = char_of(label).ch0
        clear = x * x / 2 - y_lo < Fraction(1, 2) - Fraction(1, 2 * r * r)
        return GeoAnswer.YES if clear else GeoAnswer.UNKNOWN
    tent = curve._tent(label)
    if tent.apex.x == x:
        exc = tent.exclusion
        lo, hi = max(y_lo, exc.y_bottom), min(y_hi, exc.y_top)
        if lo <= hi and not (exclude_a and lo == hi == a.y):
            return GeoAnswer.NO
    yt = tent_height(tent, x)
    if y_lo < yt or (y_lo == yt and not (exclude_a and a.y == y_lo)):
        return GeoAnswer.NO
    return GeoAnswer.YES


def _exact_segment(a, b, depth, exclude_a):
    if a.delta() <= 0 and b.delta() <= 0:
        # every exclusion and chord lies at discriminant >= 0, which the
        # segment reaches only at its ends, and there only at a rank-1 top
        blocked = _integer_apex(b) or (not exclude_a and _integer_apex(a))
        return GeoAnswer.NO if blocked else GeoAnswer.YES
    if a.delta() > 1 or b.delta() > 1:
        return GeoAnswer.NO
    if a.x == b.x:
        return _exact_vertical(a, b, depth, exclude_a)
    (x0, y0), (x1, y1) = sorted(((a.x, a.y), (b.x, b.y)))
    line = ProjLine(*cross3((1, x0, y0), (1, x1, y1)))
    allowed = a.x if exclude_a else None

    def above(chord):
        lo, hi = max(chord.start.x, x0), min(chord.end.x, x1)
        for x in ((lo, hi) if lo <= hi else ()):
            sign = nsign(line.y_at(x) - chord.line.y_at(x))
            if sign < 0 or (sign == 0 and x != allowed):
                return False
        return True

    def blocks(label):
        tent = curve._tent(label)
        exc = tent.exclusion
        if x0 <= exc.x <= x1 and exc.x != allowed and exc.y_bottom <= line.y_at(exc.x) <= exc.y_top:
            return True
        return not (above(tent.left) and above(tent.right))

    cells = range(math.floor(x0), math.ceil(x1))
    if any(blocks(DyadicLabel(n)) for n in range(cells.start, cells.stop + 1)):
        return GeoAnswer.NO
    unknown = False
    gaps = [(n, 0) for n in cells]
    while gaps:
        p, k = gaps.pop()
        lo = max(er(DyadicLabel(p, k)).x, x0)
        hi = min(el(DyadicLabel(p + 1, k)).x, x1)
        mid = DyadicLabel(2 * p + 1, k + 1)
        r = char_of(mid).ch0
        safe = Fraction(1, 2) - Fraction(1, 2) / (r * r)
        if lo > hi or all(x * x / 2 - line.y_at(x) < safe for x in (lo, hi)):
            continue
        if k == depth:
            unknown = True
        elif blocks(mid):
            return GeoAnswer.NO
        else:
            gaps += [(2 * p, k + 1), (2 * p + 1, k + 1)]
    return GeoAnswer.UNKNOWN if unknown else GeoAnswer.YES


def _exact_stability(E, P, depth):
    answer = _exact_segment(E.char.proj(), P, max(depth, E.label.m), True)
    if answer is GeoAnswer.NO:
        return StabResult.NOT_STABLE
    if answer is GeoAnswer.UNKNOWN:
        return StabResult.UNKNOWN
    return StabResult.STABLE_UNSHIFTED if P.x < E.slope else StabResult.STABLE_SHIFTED


def _in_contact_bracket(rng):
    """A strip point whose slope is the midpoint of a contact's integer bracket."""
    m = rng.randint(0, 3)
    label = DyadicLabel(rng.randint(-2 << m, 2 << m), m)
    lo, hi, _ = lepotier._tent_ends(label.p, label.m)[rng.choice((0, 2))]
    x = Fraction(lo + hi, 2 << lepotier._BRACKET_BITS)
    return AffPt(x, x * x / 2 - Fraction(rng.randint(1600, 2100), 4096))


def test_a_vertical_segment_in_a_contact_bracket_meets_its_tent():
    # the walk passes over a tent whose span the brackets alone put off the
    # segment's; at a slope in the bracket of a contact the brackets overlap,
    # and only the exact order says whether the tent covers the slope
    answers = Counter()
    for label in _labels_in(-1, 1, 2):
        for side in (0, 2):
            lo, hi, _ = lepotier._tent_ends(label.p, label.m)[side]
            x = Fraction(lo + hi, 2 << lepotier._BRACKET_BITS)
            for num in (1600, 2000, 2060, 2100, 2400):
                a = AffPt(x, x * x / 2 - Fraction(num, 4096))
                b = AffPt(x, a.y + Fraction(1, 64))
                for exclude_a in (False, True):
                    want = _exact_segment(a, b, 4, exclude_a)
                    assert geo_contains_segment(a, b, 4, exclude_a=exclude_a) is want, (label, side, num)
                    answers[want] += 1
    assert set(answers) == set(GeoAnswer), answers


def _segment_start(rng, kind):
    if kind == "apex":
        n = rng.randint(-2, 2)
        return AffPt(Fraction(n), Fraction(n * n, 2))
    if kind == "zero":
        x = Fraction(2 * rng.randint(-20, 20) + 1, rng.choice([2, 6, 8, 26]))
        return AffPt(x, x * x / 2)
    if kind == "bracket":
        return _in_contact_bracket(rng)
    if kind == "chord":
        return _chord_point(rng)
    if kind == "exceptional":
        return _exceptional_point(rng)
    return _random_point(rng, -2, 2)


def test_filtered_walk_matches_the_exact_walk(monkeypatch):
    exact_sign = lepotier._form_sign
    calls = []
    monkeypatch.setattr(lepotier, "_form_sign",
                        lambda u, v: calls.append(1) or exact_sign(u, v))
    rng = random.Random(77)
    fallbacks = 0
    seen, nonpositive = set(), set()
    for _ in range(240):
        depth = rng.randint(0, 6)
        # apex and zero starts are at discriminant 0: an integer apex
        # (n, n^2/2), or a point of non-integer slope
        kind = rng.choice(["plain", "bracket", "chord", "exceptional", "apex", "zero"])
        a = _segment_start(rng, kind)
        u = rng.random()
        b = (_in_contact_bracket(rng) if u < 0.25
             else _segment_start(rng, "apex") if u < 0.45
             else _random_point(rng, a.x - Fraction(1, 2), a.x + Fraction(1, 2)))
        if a.x == b.x:
            continue
        exclude_a = kind in ("chord", "exceptional") or rng.random() < 0.5
        want = _exact_segment(a, b, depth, exclude_a)
        assert geo_contains_segment(a, b, depth, exclude_a=exclude_a) is want, (a, b, depth)
        seen.add(want)
        if a.delta() <= 0 and b.delta() <= 0:
            nonpositive.add((_integer_apex(a), _integer_apex(b), want))
        if kind == "bracket":
            # every exact comparison is a pair of brackets that did not decide
            before = len(calls)
            geo_contains_segment(a, b, depth, exclude_a=exclude_a)
            fallbacks += len(calls) - before
    assert seen == set(GeoAnswer) and fallbacks > 0
    # both ends at discriminant <= 0: an apex at either end, both or neither
    assert {(a, b) for a, b, _ in nonpositive} == {(True, True), (True, False),
                                                   (False, True), (False, False)}
    assert {want for _, _, want in nonpositive} == {GeoAnswer.YES, GeoAnswer.NO}
    results = set()
    for _ in range(60):
        m = rng.randint(0, 3)
        E = ExcBundle.of(DyadicLabel(rng.randint(-2 << m, 2 << m), m))
        P = _in_contact_bracket(rng) if rng.random() < 0.5 else \
            _random_point(rng, E.slope - 1, E.slope + 1)
        depth = rng.randint(0, 5)
        if classify_point(P, max(depth, E.label.m)) is not RegionClass.GEO_LP:
            continue
        want = _exact_stability(E, P, depth)
        assert exc_stable_at(E, P, depth) is want, (E.label, P, depth)
        results.add(want)
    assert len(results) >= 3


def _vertical_slope(rng):
    """An apex slope of a label of depth <= 6, an integer or a random rational,
    in the cells 0, -1, 1, 300 or -9003, with the rank of the label there.
    """
    n = rng.choice((0, -1, 1, 300, -9003))
    kind = rng.random()
    if kind < 0.6:
        m = rng.randint(0, 6)
        label = DyadicLabel((n << m) + rng.randint(0, 1 << m), m)
        c = char_of(label)
        return c.ch1 / c.ch0, c.ch0
    if kind < 0.7:
        return Fraction(n), 1
    x = n + Fraction(rng.randint(0, 4096), rng.choice((3, 7, 64, 1000, 4097)))
    return x, x.denominator


def _vertical_delta(rng, r):
    """A discriminant at 0, 1/2, 1 or an exclusion end (1/2)(1 -+ 1/r^2),
    10^-3 to 10^-12 off one of these, or random in [-0.6, 1.1].
    """
    if rng.random() < 0.2:
        return Fraction(rng.randint(-600, 1100), 1000) + Fraction(1, rng.randint(10 ** 4, 10 ** 5))
    half = Fraction(1, 2)
    d = rng.choice((0, half, 1, half * (1 - Fraction(1, r * r)), half * (1 + Fraction(1, r * r))))
    if rng.random() < 0.5:
        d += rng.choice((-1, 1)) * Fraction(1, 10 ** rng.choice((3, 6, 9, 12)))
    return d


def test_vertical_segments_match_the_point_walk():
    # the integer walk decides a vertical segment as the level segment at
    # its lower end; the reference finds the tent over its slope instead
    rng = random.Random(19)
    answers, excused = set(), 0
    for _ in range(1500):
        x, r = _vertical_slope(rng)
        d_a, d_b = _vertical_delta(rng, r), _vertical_delta(rng, r)
        if d_a == d_b:
            continue
        a, b = AffPt(x, x * x / 2 - d_a), AffPt(x, x * x / 2 - d_b)
        depth = rng.choice((0, 1, 2, 5, 8))
        exclude_a = rng.random() < 0.5
        want = _exact_segment(a, b, depth, exclude_a)
        got = geo_contains_segment(a, b, depth, exclude_a=exclude_a)
        assert got is want, (a, b, depth, exclude_a)
        answers.add(want)
        # a half-open lower end at the top of an exclusion within the budget,
        # which stops the closed segment
        top = d_a == (1 - Fraction(1, r * r)) / 2 and a.y < b.y
        label = slope_to_label(x)
        if exclude_a and top and label is not None and label.m <= depth:
            excused += want is not GeoAnswer.NO
            assert geo_contains_segment(a, b, depth) is GeoAnswer.NO
    assert answers == set(GeoAnswer) and excused > 0


# what a QuadReal computes with: the segment walk and the curve take every
# sign on integer forms and compare slopes as slope entries, so they need none
_SURD_OPS = ("_cmp", "sign", "__add__", "__radd__", "__neg__", "__mul__", "__rmul__")


def test_vertical_segments_take_no_point_walk_or_surd(monkeypatch):
    rng = random.Random(23)
    cases = []
    while len(cases) < 200:
        x, r = _vertical_slope(rng)
        a = AffPt(x, x * x / 2 - _vertical_delta(rng, r))
        b = AffPt(x, x * x / 2 - _vertical_delta(rng, r))
        if a != b:
            cases.append((a, b, rng.choice((0, 2, 5)), rng.random() < 0.5))
    want = [_exact_segment(*case) for case in cases]

    def refuse(*args):
        raise AssertionError("point walk or surd on a vertical segment")

    for name in _SURD_OPS:
        monkeypatch.setattr(QuadReal, name, refuse)
    monkeypatch.setattr(lepotier, "_tent_at", refuse)
    got = [geo_contains_segment(a, b, depth, exclude_a=exclude_a)
           for a, b, depth, exclude_a in cases]
    assert got == want and set(want) == set(GeoAnswer)


def _mirror(p):
    return AffPt(-p.x, p.y)


_DUAL = {StabResult.STABLE_SHIFTED: StabResult.STABLE_UNSHIFTED,
         StabResult.STABLE_UNSHIFTED: StabResult.STABLE_SHIFTED}


def test_duality_mirrors_segment_and_stability_verdicts():
    # the dual bundle of label l is at -l, and (x, y) -> (-x, y) maps the
    # curve, the exclusions and the gaps onto themselves; el of l is -er of -l
    rng = random.Random(31)
    seen = set()
    for _ in range(120):
        depth = rng.randint(0, 6)
        a = _segment_start(rng, rng.choice(["plain", "bracket", "chord", "exceptional"]))
        b = _random_point(rng, a.x - Fraction(1, 2), a.x + Fraction(1, 2))
        if a == b:
            continue
        exclude_a = rng.random() < 0.5
        got = geo_contains_segment(a, b, depth, exclude_a=exclude_a)
        assert geo_contains_segment(_mirror(a), _mirror(b), depth,
                                    exclude_a=exclude_a) is got, (a, b, depth)
        seen.add(got)
    assert seen == set(GeoAnswer)
    seen = set()
    for _ in range(60):
        m = rng.randint(0, 3)
        label = DyadicLabel(rng.randint(-2 << m, 2 << m), m)
        E, dual = ExcBundle.of(label), ExcBundle.of(DyadicLabel(-label.p, label.m))
        assert dual.char.proj() == _mirror(E.char.proj())
        P = _in_contact_bracket(rng) if rng.random() < 0.5 else \
            _random_point(rng, E.slope - 1, E.slope + 1)
        depth = rng.randint(0, 5)
        if classify_point(P, max(depth, E.label.m)) is not RegionClass.GEO_LP:
            continue
        got = exc_stable_at(E, P, depth)
        # on E's own vertical both sides answer StableShifted
        want = got if P.x == E.slope else _DUAL.get(got, got)
        assert exc_stable_at(dual, _mirror(P), depth) is want, (label, P, depth)
        seen.add(got)
    assert seen == set(StabResult)


def _twist(p, n):
    """The image of a plane point under the twist by O(n)."""
    return AffPt(p.x + n, p.y + n * p.x + Fraction(n * n, 2))


def _twist_char(v, n):
    return CharVec(v.ch0, v.ch1 + n * v.ch0, v.ch2 + n * v.ch1 + Fraction(n * n, 2) * v.ch0)


def _exclusion_point(rng):
    """A rational point on the exclusion of a label of depth <= 4."""
    m = rng.randint(0, 4)
    c = char_of(DyadicLabel(rng.randint(-2 << m, 2 << m), m))
    top = c.proj()
    return AffPt(top.x, top.y - Fraction(rng.randint(0, 8), 8 * c.ch0 ** 2))


def test_twist_by_a_line_bundle_keeps_every_verdict():
    # O(n) maps (x, y) to (x + n, y + n x + n^2/2), keeps the discriminant
    # and moves each label by n, so each tent, exclusion and gap onto another
    rng = random.Random(12)
    classes, dlps, answers = set(), set(), set()
    for _ in range(400):
        depth = rng.randint(0, 6)
        n = rng.choice([-3, -2, -1, 1, 2, 5])
        kind = rng.choice(["plain", "exceptional", "exclusion", "chord"])
        a = _exclusion_point(rng) if kind == "exclusion" else _segment_start(rng, kind)
        got = classify_point(a, depth)
        assert classify_point(_twist(a, n), depth) is got, (a, n, depth)
        classes.add(got)
        k = rng.randint(1, 3)
        v = CharVec(k, k * a.x, k * a.y)
        assert _twist_char(v, n).proj() == _twist(a, n)
        got = dlp_exists(v, depth)
        assert dlp_exists(_twist_char(v, n), depth) is got, (v, n, depth)
        dlps.add(got)
        b = _random_point(rng, a.x - Fraction(1, 2), a.x + Fraction(1, 2))
        if rng.random() < 0.2:
            b = AffPt(a.x, b.y)
        if a == b:
            continue
        exclude_a = kind != "plain" or rng.random() < 0.5
        got = geo_contains_segment(a, b, depth, exclude_a=exclude_a)
        assert geo_contains_segment(_twist(a, n), _twist(b, n), depth,
                                    exclude_a=exclude_a) is got, (a, b, n, depth)
        answers.add(got)
    assert classes == set(RegionClass) - {RegionClass.UNKNOWN}
    assert dlps == set(DlpResult) - {DlpResult.UNKNOWN}
    assert answers == set(GeoAnswer)


# The integer forms of the segment walk against the surd and rational ones.

def _labels_in(n0, n1, depth):
    """Every label of depth <= depth in [n0, n1]."""
    return sorted({DyadicLabel(p, m) for m in range(depth + 1)
                   for p in range(n0 << m, (n1 << m) + 1)})


_FORM_LABELS = _labels_in(-2, 2, 4) + _labels_in(300, 301, 3) + _labels_in(-9003, -9002, 3)


def _surd(form):
    p, q, d, s = form
    return QuadReal(Fraction(p, s), Fraction(q, s), d)


def _slope_intercept(line):
    k, a, b = line
    return Fraction(a, k), Fraction(b, k)


def test_integer_forms_match_the_surd_ones():
    for label in _FORM_LABELS:
        el_x, apex_x, er_x, chord_l, chord_r, bottom, top = lepotier._tent_ends(label.p, label.m)
        assert _surd(el_x[2]) == el(label).x and _surd(er_x[2]) == er(label).x, label
        assert _surd(apex_x[2]) == eplus(label).x, label
        tent = curve._tent(label)
        # each chord against the line through the apex and the neighbour's
        # projected character, drawn in Fractions
        for chord, seg, nb in ((chord_l, tent.left, label.left_neighbor()),
                               (chord_r, tent.right, label.right_neighbor())):
            apex, q = eplus(label), char_of(nb).proj()
            line = ProjLine(*cross3((1, apex.x, apex.y), (1, q.x, q.y)))
            assert _slope_intercept(chord) == (-line.c1 / line.c2, -line.c0 / line.c2), label
            assert not any(cross3((seg.line.c0, seg.line.c1, seg.line.c2),
                                  (line.c0, line.c1, line.c2))), label
        exc = tent.exclusion
        assert _slope_intercept(bottom) == (0, exc.y_bottom), label
        assert _slope_intercept(top) == (0, exc.y_top), label


def _cold_tents():
    for cached in (curve._tent, lepotier._tent_ends, exceptional._contact):
        cached.cache_clear()


def test_tent_checks_catch_seeded_mutations(monkeypatch):
    label = DyadicLabel(5, 3)
    ends, form, int_char = lepotier._tent_ends, lepotier._contact_form, lepotier._int_char

    def right_chord_b_plus_one(p, m):
        out = list(ends(p, m))
        k, a, b = out[4]
        out[4] = (k, a, b + 1)
        return tuple(out)

    def left_contact_other_root(r, c, side):
        p, q, d, s = form(r, c, side)
        return (p, -q if side < 0 else q, d, s)

    def left_neighbour_moved(p, m):
        r, c, e = int_char(p, m)
        nb = label.left_neighbor()
        return (r, c, e + 2) if (p, m) == (nb.p, nb.m) else (r, c, e)

    mutations = [(curve, "_tent_ends", right_chord_b_plus_one, "contact point off its chord"),
                 (lepotier, "_contact_form", left_contact_other_root, "contact point off its chord"),
                 (curve, "_int_char", left_neighbour_moved, "chord misses the neighbour")]
    try:
        for module, name, mutant, message in mutations:
            _cold_tents()
            with monkeypatch.context() as patch:
                patch.setattr(module, name, mutant)
                with pytest.raises(AssertionError, match=message):
                    curve._tent(label)
    finally:
        _cold_tents()
    assert curve._tent(label).label == label


def test_the_curve_takes_no_surd_comparison_or_arithmetic(monkeypatch, capsys):
    from stabscope.cli import run

    def refuse(*args):
        raise AssertionError("surd comparison or arithmetic on the curve path")

    for name in _SURD_OPS:
        monkeypatch.setattr(QuadReal, name, refuse)
    try:
        _cold_tents()
        assert len(build_curve(6, (Fraction(-2), Fraction(2))).tents) == 257
        _cold_tents()
        for argv in (["--from=-2", "--to", "2", "--depth", "6", "--format", "csv"],
                     ["--from=-1/2", "--to", "3/2", "--depth", "4"]):
            assert run(["curve", "emit", *argv]) == 0
            out = capsys.readouterr()
            assert out.err == "" and len(out.out) > 10_000
    finally:
        _cold_tents()


def _poly_sign(x, q2, q1, q0):
    """Sign of q2 x^2 + q1 x + q0 for rational q's at a rational or surd x,
    evaluated componentwise in Q(sqrt(d)): the reference of the integer signs.
    """
    if isinstance(x, QuadReal):
        a, b, d = x.a, x.b, x.d
        u, v = q2 * a + q1, q2 * b
        return QuadReal._over(u * a + v * b * d + q0, u * b + v * a, d).sign()
    return nsign((q2 * x + q1) * x + q0)


def _mp(form):
    p, q, d, s = form
    return (p + q * mpmath.sqrt(d)) / s


def _mpq(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _seg(m, c):
    lcd = math.lcm(m.denominator, c.denominator)
    return lcd, m.numerator * (lcd // m.denominator), c.numerator * (lcd // c.denominator)


def _mp_sign(value, exact_zero):
    if exact_zero:
        assert abs(value) < mpmath.mpf(10) ** -40
        return 0
    assert abs(value) > mpmath.mpf(10) ** -40
    return int(mpmath.sign(value))


def test_integer_discriminant_sign_matches_mpmath_and_the_surd_polynomial():
    # x^2/2 - m x - c less (1/2)(1 - 1/r2) at contact slopes and apexes,
    # a third of them made to vanish exactly there
    rng = random.Random(41)
    signs = set()
    with mpmath.workdps(50):
        for _ in range(600):
            label = rng.choice(_FORM_LABELS)
            x = rng.choice(lepotier._tent_ends(label.p, label.m)[:3])[2]
            v = _surd(x)
            r2 = rng.choice((1, char_of(rng.choice(_FORM_LABELS)).ch0 ** 2))
            bound = Fraction(1, 2) - Fraction(1, 2 * r2)
            m = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999))
            zero = rng.random() < 1 / 3
            p, q, d, s = x
            if zero and q:
                # half the minimal polynomial of x: (S x - P)^2 = Q^2 D
                m, c = Fraction(p, s), -Fraction(p * p - q * q * d, 2 * s * s) - bound
            elif zero:
                c = Fraction(p * p, 2 * s * s) - m * Fraction(p, s) - bound
            else:
                c = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 999))
                if rng.random() < 0.5:
                    # a segment 10^-12 off vanishing at x
                    near = Fraction(math.floor((v * v / 2 - m * v - bound) * 10 ** 30), 10 ** 30)
                    c = near + Fraction(rng.choice((-1, 1)), 10 ** 12)
            got = lepotier._disc_sign(_seg(m, c), r2, x)
            assert got == _poly_sign(v, Fraction(1, 2), -m, -c - bound), (label, x, m, c)
            t = _mp(x)
            want = _mp_sign(t * t / 2 - _mpq(m) * t - _mpq(c) - _mpq(bound), zero)
            assert got == want, (label, x, m, c)
            signs.add(got)
    assert signs == {-1, 0, 1}


def test_integer_line_sign_matches_mpmath_and_the_surd_polynomial():
    # a segment's height less a chord's or an exclusion end's, at contact
    # slopes and apexes; the chord itself, and lines through the apex, vanish
    rng = random.Random(43)
    signs = set()
    with mpmath.workdps(50):
        for _ in range(600):
            label = rng.choice(_FORM_LABELS)
            ends = lepotier._tent_ends(label.p, label.m)
            x = rng.choice(ends[:3])
            line = rng.choice(ends[3:])
            a, b = _slope_intercept(line)
            kind = rng.random()
            if kind < 0.2:
                m, c = a, b
            else:
                m = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999))
                if kind < 0.4 and x is ends[1]:
                    apex = Fraction(x[2][0], x[2][3])
                    c = a * apex + b - m * apex
                else:
                    c = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 999))
            zero = kind < 0.2 or (kind < 0.4 and x is ends[1])
            got = lepotier._line_sign(_seg(m, c), line, x[2])
            assert got == _poly_sign(_surd(x[2]), 0, m - a, c - b), (label, x, line, m, c)
            t = _mp(x[2])
            diff = _mpq(m - a) * t + _mpq(c - b)
            assert got == _mp_sign(diff, zero), (label, x, line, m, c)
            signs.add(got)
    assert signs == {-1, 0, 1}


def _bracket_cases(label):
    """Slope entries near a label, each with a key that entries of equal value share.

    They are the label's and its neighbours' slopes, rational ends at its
    apex and inside its contact brackets, its contacts written over the
    radicand 4D, and forms 2^-100 off its contacts over D and over a
    second radicand.
    """
    slope, k = lepotier._slope, 1 << 100
    out = [((lbl, i), e) for lbl in (label.left_neighbor(), label, label.right_neighbor())
           for i, e in enumerate(lepotier._tent_ends(lbl.p, lbl.m)[:3])]
    el_x, apex_x, er_x = lepotier._tent_ends(label.p, label.m)[:3]
    p, _, _, s = apex_x[2]
    out.append(((label, 1), slope(3 * p, 0, 0, 3 * s)))
    for i, (lo, hi, (p, q, d, s)) in ((0, el_x), (2, er_x)):
        x = Fraction(lo + hi, 2 << lepotier._BRACKET_BITS)
        out += [(("inside", i), slope(x.numerator, 0, 0, x.denominator)),
                ((label, i), slope(2 * p, q, 4 * d, 2 * s)),
                (("one radicand", i), slope(p * k + 1, q * k, d, s * k)),
                (("two radicands", i), slope(p * k - 2 * q, q, d * k * k + 1, s * k))]
    return out


def test_bracket_order_matches_the_surd_order_and_mpmath(monkeypatch):
    exact_sign = lepotier._form_sign
    paths = []

    def counted(u, v):
        paths.append("rational" if 0 in (u[1], v[1]) else
                     "one radicand" if u[2] == v[2] else "two radicands")
        return exact_sign(u, v)

    monkeypatch.setattr(lepotier, "_form_sign", counted)
    scale = 1 << lepotier._BRACKET_BITS
    decided = 0
    with mpmath.workdps(50):
        for label in _FORM_LABELS:
            cases = [(key, e, _surd(e[2]), _mp(e[2])) for key, e in _bracket_cases(label)]
            # each bracket is lo = floor(x 2^B) and hi = lo or lo + 1 and holds
            # its value, also for S = 1, either sign of Q and a perfect-square D
            d = lepotier._tent_ends(label.p, label.m)[0][2][2]
            for lo, hi, form in [e for _, e, _, _ in cases] + [
                    lepotier._slope(p, q, dd, 1) for p in (0, 3) for q in (-1, 1) for dd in (d, 9)]:
                x = _surd(form)
                assert Fraction(lo, scale) <= x < Fraction(lo + 1, scale), form
                assert hi - lo in (0, 1) and x <= Fraction(hi, scale), form
            for ku, u, su, mu in cases:
                for kv, v, sv, mv in cases:
                    before = len(paths)
                    got = lepotier._compare(u, v)
                    decided += len(paths) == before
                    assert got == su._cmp(sv) == _mp_sign(mu - mv, ku == kv), (label, u, v)
    assert decided and set(paths) == {"rational", "one radicand", "two radicands"}


def test_the_segment_walk_leaves_the_surd_points_alone():
    rng = random.Random(5)
    segments = []
    for _ in range(60):
        a = _segment_start(rng, rng.choice(["plain", "bracket", "chord", "exceptional"]))
        b = _random_point(rng, a.x - Fraction(1, 2), a.x + Fraction(1, 2))
        if a.x != b.x:
            segments.append((a, b, rng.randint(0, 6)))
    caches = (exceptional._contact, curve._tent, lepotier._tent_ends)
    for cache in caches:
        cache.cache_clear()
    answers = {geo_contains_segment(a, b, depth, exclude_a=True) for a, b, depth in segments}
    assert answers == set(GeoAnswer) and lepotier._tent_ends.cache_info().currsize > 0
    assert [cache.cache_info().currsize for cache in caches[:2]] == [0, 0]


def _label_keyed_segment(a, b, depth, exclude_a=False):
    """geo_contains_segment as it was when its gap walk named each label:
    the ends read as Fractions, each gap's end slopes and its midpoint's rank
    looked up by label, and the integer labels' entries looked up again.
    """
    ends_of = lambda label: lepotier._tent_ends(label.p, label.m)
    pts = [(to_fraction(p.x), to_fraction(p.y)) for p in (a, b)]
    u, v = ((x.denominator * y.denominator, x.numerator * y.denominator,
             y.numerator * x.denominator) for x, y in pts)
    if any(px * px - 2 * py * d > 2 * d * d for d, px, py in (u, v)):
        return GeoAnswer.NO
    k0, k1, k2 = cross3(u, v)
    if k2 == 0:
        y = pts[k1 > 0][1]
        swap, seg = k1 > 0, (y.denominator, 0, y.numerator)
    else:
        c, seg = _primitive((k2, -k1, -k0))
        swap = c < 0
    (x0, _), (x1, _) = reversed(pts) if swap else pts
    ends = tuple(lepotier._slope(x.numerator, 0, 0, x.denominator) for x in (x0, x1))
    vertical = ends[0][2] == ends[1][2]
    allowed = ends[swap] if exclude_a and not (vertical and swap) else None
    compare, span, line_sign = lepotier._compare, lepotier._span, lepotier._line_sign

    def blocks(label):
        el_x, apex_x, er_x, chord_l, chord_r, bottom, top = ends_of(label)
        if (compare(ends[0], apex_x) <= 0 <= compare(ends[1], apex_x)
                and line_sign(seg, bottom, apex_x[2]) >= 0 >= line_sign(seg, top, apex_x[2])
                and not (allowed is not None and compare(apex_x, allowed) == 0
                         and (not vertical or line_sign(seg, top, apex_x[2]) == 0))):
            return True
        return not (lepotier._above_chord(seg, chord_l, span(el_x, apex_x, ends), allowed)
                    and lepotier._above_chord(seg, chord_r, span(apex_x, er_x, ends), allowed))

    def reaches_zero(n):
        return (lepotier._disc_sign(seg, 1, ends[0][2] if x0 > n else (n, 0, 0, 1)) >= 0
                or lepotier._disc_sign(seg, 1, ends[1][2] if x1 < n + 1 else (n + 1, 0, 0, 1)) >= 0)

    n0, n1 = math.floor(x0), max(math.ceil(x1), math.floor(x0) + 1)
    left = n0
    while left < n1 and reaches_zero(left):
        left += 1
    right = n1
    while right > left and reaches_zero(right - 1):
        right -= 1
    cells = [*range(n0, left), *range(right, n1)]
    if any(blocks(DyadicLabel(n)) for n in {n for c in cells for n in (c, c + 1)}):
        return GeoAnswer.NO
    unknown = False
    gaps = [(n, 0) for n in reversed(cells)]
    while gaps:
        p, k = gaps.pop()
        lo, hi = span(ends_of(DyadicLabel(p, k))[2], ends_of(DyadicLabel(p + 1, k))[0], ends)
        mid = DyadicLabel(2 * p + 1, k + 1)
        r2 = _int_char(mid.p, mid.m)[0] ** 2
        if compare(lo, hi) > 0 or (lepotier._disc_sign(seg, r2, lo[2]) < 0
                                   and lepotier._disc_sign(seg, r2, hi[2]) < 0):
            continue
        if k == depth:
            unknown = True
            continue
        if blocks(mid):
            return GeoAnswer.NO
        gaps += [(2 * p + 1, k + 1), (2 * p, k + 1)]
    return GeoAnswer.UNKNOWN if unknown else GeoAnswer.YES


def _label_keyed_stability(E, P, depth):
    """_stable_in_region as it was: the point class, the segment from E's
    projected character and the shift rule on E's Fraction slope."""
    eff = max(depth, E.label.m)
    if classify_point(P, eff) is not RegionClass.GEO_LP:
        return None
    answer = _label_keyed_segment(E.char.proj(), P, eff, exclude_a=True)
    if answer is not GeoAnswer.YES:
        return StabResult.UNKNOWN if answer is GeoAnswer.UNKNOWN else StabResult.NOT_STABLE
    return StabResult.STABLE_UNSHIFTED if P.x < E.slope else StabResult.STABLE_SHIFTED


def _raster_points(rng, E):
    """Points around E as stab-region's raster takes them: a grid from just
    below E's discriminant less 1/4 to 4/5, off E's slope, and points right
    above E's projected character, on its slope."""
    alpha, r = E.slope, E.rank
    d_lo = (1 - 1 / (r * r)) / 2 - Fraction(1, 4)
    shift = Fraction(rng.randint(-4, 4), 64)
    for j in range(4):
        delta = d_lo + (Fraction(4, 5) - d_lo) * Fraction(j, 3)
        for i in range(4):
            x = alpha + Fraction(2 * i - 3, 8) + shift
            yield AffPt(x, x * x / 2 - delta)
    top = E.char.proj()
    yield AffPt(top.x, top.y + Fraction(rng.randint(1, 40), 64))


def _slice_points(rng, n, depth):
    """Points in the cell n just off the apex of a midpoint of a gap of the
    given depth, between that midpoint's exclusion top and discriminant 1/2:
    the gap is open there, at the budget depth and at any budget below it."""
    mid = DyadicLabel(2 * ((n << depth) + rng.randrange(1 << depth)) + 1, depth + 1)
    r, c, _ = _int_char(mid.p, mid.m)
    for _ in range(2):
        x = Fraction(c, r) + Fraction(rng.choice((-1, 1)), r * r << rng.randint(8, 40))
        delta = (1 - Fraction(1, r * r) * Fraction(rng.randint(1, 9), 10)) / 2
        yield AffPt(x, x * x / 2 - delta)


def test_the_integer_walk_matches_the_label_keyed_walk():
    rng = random.Random(32)
    answers, verdicts = Counter(), Counter()
    for n0 in (-2, 0, 3):
        for f in (0, Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), Fraction(5, 16)):
            E = ExcBundle.of(DyadicLabel.from_value(n0 + f))
            slice_depth = rng.randint(0, 6)
            points = [*_raster_points(rng, E), *_slice_points(rng, n0, slice_depth)]
            for P in points:
                depth = rng.randint(0, 8)
                want = _label_keyed_stability(E, P, depth)
                assert geometric._stable_in_region(E, P, depth) is want, (E.label, P, depth)
                verdicts[want] += 1
            # segments between the points, and from and to E's character,
            # half-open or closed, and a vertical one from each point
            top = E.char.proj()
            for a, b in [*zip(points, points[1:]), *((top, P) for P in points),
                         *((P, top) for P in points),
                         *((P, AffPt(P.x, P.y - Fraction(rng.randint(1, 64), 128))) for P in points)]:
                if a == b:
                    continue
                depth, exclude_a = rng.randint(0, 8), rng.random() < 0.5
                want = _label_keyed_segment(a, b, depth, exclude_a)
                assert geo_contains_segment(a, b, depth, exclude_a=exclude_a) is want, (a, b, depth)
                answers[want, a.x == b.x] += 1
    # every answer, of slanted and vertical segments, and every verdict
    assert {key for key in answers} == {(g, v) for g in GeoAnswer for v in (False, True)}, answers
    assert set(verdicts) == {None, *StabResult}, verdicts


def test_warm_segment_and_stability_tests_build_and_hash_no_label(monkeypatch, capsys):
    from stabscope.cli import run
    E = ExcBundle.of(DyadicLabel(3, 3))
    rng = random.Random(4)
    points = list(_raster_points(rng, E))
    # above the strip and off the exclusions a point's class takes no walk
    above = [P for P in points if P.delta() < Fraction(1, 2)
             and classify_point(P, 8) is RegionClass.GEO_LP]
    assert len(above) >= 8

    def segments():
        for P in points:
            for depth in (0, 4, 8):
                geo_contains_segment(E.char.proj(), P, depth, exclude_a=True)
                geo_contains_segment(P, AffPt(P.x, P.y + 1), depth)

    assert label_calls(monkeypatch, segments) == Counter()
    assert label_calls(monkeypatch, lambda: [exc_stable_at(E, P, 8) for P in above]) == Counter()
    # the grid x in [-1, 3/2], y in [1, 2] lies above the strip and off the
    # exclusions; the run builds only the label it parses
    argv = ["stab-region", "--label", "3/8", "--grid=-1,3/2,1,2,6", "--depth", "5"]
    assert label_calls(monkeypatch, lambda: run(argv)) == Counter({"__init__": 1})
    assert capsys.readouterr().out.count("Stable") > 20
    # the point walk in the strip runs on the integers (p, m): it builds no label
    strip = [P for P in points if Fraction(1, 2) <= P.delta() <= 1]
    assert strip
    assert label_calls(monkeypatch, lambda: [classify_point(P, 8) for P in strip]) == Counter()
    # a point on an exclusion above the strip is found by the integer slope
    # search, which builds no label that the character cache holds
    on_exclusion = []
    for label in (DyadicLabel(3, 3), DyadicLabel(-5, 2), DyadicLabel(7, 4), DyadicLabel(2)):
        x, r = slope(char_of(label)), char_of(label).ch0
        # discriminants from the exclusion's top, (1/2)(1 - 1/r^2), to below 1/2
        on_exclusion += [AffPt(x, x * x / 2 - (1 - Fraction(j, 4 * r * r)) / 2) for j in (1, 2, 4)]
    assert {classify_point(P, 8) for P in on_exclusion} == {RegionClass.ON_EXCLUSION}
    assert label_calls(monkeypatch,
                       lambda: [classify_point(P, d) for P in on_exclusion for d in (0, 8)]) == Counter()


def _points_of_every_class(rng, E, n0):
    """Points around E: the raster's, strip points in open gaps, E's
    exclusion below its character and E's slope above it, points on
    chords and just below them, on other exclusions, and anywhere."""
    top, r = E.char.proj(), E.rank
    yield from _raster_points(rng, E)
    yield from _slice_points(rng, n0, rng.randint(0, 6))
    # k = 16 is E's apex
    for k in (1, 3, 8, 12, 16):
        yield AffPt(top.x, top.y - Fraction(k, 8 * r * r))
    for _ in range(3):
        chord = _chord_point(rng)
        yield from (chord, AffPt(chord.x, chord.y - Fraction(1, 4096)))
        yield _exclusion_point(rng)
        yield _random_point(rng, n0 - 1, n0 + 2)


def test_the_walk_first_rule_matches_the_classify_first_rule(monkeypatch):
    rng = random.Random(34)
    verdicts, off = Counter(), []
    for n0 in (-2, 0, 3):
        for f in (0, Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), Fraction(5, 16)):
            E = ExcBundle.of(DyadicLabel.from_value(n0 + f))
            # E's own point is on its exclusion, at every depth, although
            # the walk from it to itself excuses it
            for depth in range(9):
                assert geometric._stable_in_region(E, E.char.proj(), depth) is None
                assert _label_keyed_stability(E, E.char.proj(), depth) is None
            for P in _points_of_every_class(rng, E, n0):
                depth = rng.randint(0, 8)
                want = _label_keyed_stability(E, P, depth)
                assert geometric._stable_in_region(E, P, depth) is want, (E.label, P, depth)
                in_strip = Fraction(1, 2) <= P.delta() <= 1
                verdicts[want, in_strip, classify_point(P, max(depth, E.label.m))] += 1
                if _label_keyed_stability(E, P, 400) is None:
                    off.append((E, P))
    # stable and unstable above the strip and inside it, Unknown in open
    # gaps, and every class but Unknown off the region
    for want in (StabResult.STABLE_UNSHIFTED, StabResult.STABLE_SHIFTED, StabResult.NOT_STABLE):
        assert verdicts[want, False, RegionClass.GEO_LP] and verdicts[want, True, RegionClass.GEO_LP]
    assert verdicts[StabResult.UNKNOWN, True, RegionClass.GEO_LP]
    assert ({cls for want, _, cls in verdicts if want is None}
            == set(RegionClass) - {RegionClass.GEO_LP, RegionClass.UNKNOWN})
    # off the region at depth 400 the walk still answers None, and it looks
    # up the same labels as at depth 40: it stops where the point's class does
    tent_ends = lepotier._tent_ends

    def depths_looked_up(depth):
        seen = Counter()
        with monkeypatch.context() as patch:
            patch.setattr(lepotier, "_tent_ends", lambda p, m: seen.update([m]) or tent_ends(p, m))
            assert all(geometric._stable_in_region(E, P, depth) is None for E, P in off)
        return seen

    at_400 = depths_looked_up(400)
    assert len(off) > 200 and at_400 == depths_looked_up(40) and max(at_400, default=0) < 40


def test_a_stable_strip_point_takes_no_point_walk(monkeypatch):
    E = ExcBundle.of(DyadicLabel(1, 1))
    stable = [P for P in _raster_points(random.Random(5), E)
              if Fraction(1, 2) <= P.delta() <= 1 and classify_point(P, 8) is RegionClass.GEO_LP
              and exc_stable_at(E, P, 8) in (StabResult.STABLE_UNSHIFTED, StabResult.STABLE_SHIFTED)]
    assert len(stable) >= 2
    walks = []
    tent_at = lepotier._tent_at
    monkeypatch.setattr(lepotier, "_tent_at",
                        lambda num, den: walks.append(Fraction(num, den)) or tent_at(num, den))
    assert [exc_stable_at(E, P, 8) for P in stable] == [exc_stable_at(E, P, 8) for P in stable]
    assert walks == []
    # classify_point itself still takes the point walk
    classify_point(stable[0], 8)
    assert walks == [stable[0].x]
