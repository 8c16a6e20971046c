"""The curve's output: each label's tent and exclusion, and the tents over a window.

A tent is two curve segments, from the label's contact points el and er
on the half-discriminant parabola down to its apex, one rank-squared
unit below the projected character, and its exclusion runs from that
character down to the apex.  Each is built from the integer forms of
lepotier._tent_ends and checked on them, and cached by the label's
integers (p, m).  build_curve lists the tents, segments and exclusions
that meet a slope window, for curve emit; no decision reads them.
"""

from __future__ import annotations

from fractions import Fraction

from .corekit import AffPt, ProjLine, _record
from .exceptional import DyadicLabel, _int_char, _label_cache, _labels_between, el, eplus, er
from .lepotier import _compare, _slope, _tent_ends


@_record
class CurveSegment:
    """One straight piece of the curve, oriented left to right."""

    label: DyadicLabel
    side: str  # "left" or "right" of the label's apex
    start: AffPt
    end: AffPt
    line: ProjLine


@_record
class ExclusionSegment:
    """The vertical segment from a projected character down to its tent apex."""

    label: DyadicLabel
    x: Fraction
    y_top: Fraction
    y_bottom: Fraction


@_record
class Tent:
    """A label's two curve segments, meeting at the apex below it, and its exclusion."""

    label: DyadicLabel
    apex: AffPt
    left: CurveSegment
    right: CurveSegment
    exclusion: ExclusionSegment


@_label_cache
def _tent(label: DyadicLabel) -> Tent:
    """The label's tent and exclusion, from its integer character and _tent_ends."""
    r, c, e = _int_char(label)
    # the apex (c/r, e/(2r) - 1/r^2) is at discriminant (c^2 - e r + 2)/(2 r^2)
    assert r * r <= c * c - e * r + 2 <= 2 * r * r, "apex left the curve strip"
    el_x, _, er_x, chord_l, chord_r = _tent_ends(label.p, label.m)[:5]
    for side, x, chord, nb in ((-1, el_x, chord_l, label.left_neighbor()),
                               (1, er_x, chord_r, label.right_neighbor())):
        assert _on_chord(chord, x[2], side), "contact point off its chord"
        # the neighbour's projected character (cn/rn, en/(2 rn)) is on y = (A x + B)/K
        (k, a, b), (rn, cn, en) = chord, _int_char(nb)
        assert 2 * (a * cn + b * rn) == k * en, "chord misses the neighbour"
    # y = (A x + B)/K is the line B + A x - K y = 0
    left_line, right_line = (ProjLine(Fraction(b), Fraction(a), Fraction(-k))
                             for k, a, b in (chord_l, chord_r))
    apex = eplus(label)
    left = CurveSegment(label, "left", el(label), apex, left_line)
    right = CurveSegment(label, "right", apex, er(label), right_line)
    # the exclusion runs from the projected character down to the apex
    exclusion = ExclusionSegment(label, apex.x, Fraction(e, 2 * r), apex.y)
    return Tent(label, apex, left, right, exclusion)


def _on_chord(chord: tuple[int, int, int], x: tuple, side: int) -> bool:
    """Whether the chord (K, A, B) meets y = (x^2 - 1)/2 at the slope form x, on the apex's side.

    There x is a root of K x^2 - 2 A x - 2 B - K, which at (P + Q sqrt(D))/S,
    times S^2, is K (P^2 + Q^2 D) - 2 A P S - (2 B + K) S^2 + 2 Q (K P - A S) sqrt(D);
    D = 9 r^2 - 4 is no square, so both parts vanish.  The chord runs from the
    apex, below the parabola, to the neighbour above it, so the contact is the
    root nearer the apex: the larger (Q > 0) on the left, the smaller on the right.
    """
    (k, a, b), (p, q, d, s) = chord, x
    return (k * (p * p + q * q * d) - 2 * a * p * s - (2 * b + k) * s * s == 0
            and q * (k * p - a * s) == 0 and side * q < 0)


@_record
class CurveApprox:
    """All tents and exclusions of bounded depth over a slope window."""

    tents: tuple[Tent, ...]
    segments: tuple[CurveSegment, ...]
    exclusions: tuple[ExclusionSegment, ...]


def build_curve(depth: int, window: tuple[Fraction, Fraction]) -> CurveApprox:
    """The tents of depth <= depth whose slope span meets the window.

    Of those it keeps the segments that meet the window and the
    exclusions whose slope lies in it, and builds no other tent.  Output
    is deterministic and sorted by apex slope.
    """
    if depth < 0:
        raise ValueError("negative depth")
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if lo > hi:
        raise ValueError("empty window")
    labels = sorted(_labels_between(lo, hi, depth))
    # each label's (el, apex, er) slope entries, read once: a listing longer
    # than the _tent_ends cache would miss it on every second walk
    spans = [_tent_ends(l.p, l.m)[:3] for l in labels]
    for prev, cur in zip(spans, spans[1:]):
        assert _compare(prev[2], cur[0]) < 0, "tent spans overlap"
    w_lo, w_hi = (_slope(w.numerator, 0, 0, w.denominator) for w in (lo, hi))

    def meets(start: tuple, end: tuple) -> bool:
        return _compare(end, w_lo) >= 0 and _compare(w_hi, start) >= 0

    kept = [(_tent(l), span) for l, span in zip(labels, spans) if meets(span[0], span[2])]
    segments = tuple(seg for t, (el_x, apex_x, er_x) in kept
                     for seg, start, end in ((t.left, el_x, apex_x), (t.right, apex_x, er_x))
                     if meets(start, end))
    return CurveApprox(tuple(t for t, _ in kept), segments,
                       tuple(t.exclusion for t, _ in kept if lo <= t.exclusion.x <= hi))
