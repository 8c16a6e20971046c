"""Wall lines in the (s, q) plane from the coplanarity criterion.

Two independent classes have real-proportional charge values exactly
when the charge's kernel point is coplanar with them, so the locus of
such kernel points is the line whose coefficients on (1, s, q) are the
cross product of the two class vectors.  This module builds single
walls and batched, window-clipped arrangements.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .corekit import AffPt, CharVec, ProjLine, Segment, _record, cross3, to_fraction
from .exceptional import ExcBundle

Rect = tuple[Fraction, Fraction, Fraction, Fraction]


@_record
class WallLine:
    """The wall between two classes, optionally clipped to a window."""

    v: CharVec
    w: CharVec
    line: ProjLine
    clip: Optional[Segment] = None


def wall_line(v: CharVec, w: CharVec) -> WallLine:
    """The line of kernel points whose charge makes v and w proportional.

    Every point K on the line satisfies det3(K, v, w) = 0; the
    coefficients are the cross product of the two class vectors.
    """
    coeffs = cross3(v, w)
    if not any(coeffs):
        raise ValueError("no wall: classes parallel everywhere")
    return WallLine(v, w, ProjLine(*coeffs))


def _window_rect(window: Sequence) -> Rect:
    x0, x1, y0, y1 = (to_fraction(t) for t in window)
    if x0 > x1 or y0 > y1:
        raise ValueError("window must be ordered as x0,x1,y0,y1")
    return (x0, x1, y0, y1)


def clip_line(line: ProjLine, window: Sequence) -> Optional[Segment]:
    """Intersect a line with a closed rectangle, as a segment.

    Returns None when the intersection is empty or a single corner
    touch; the rectangle is given as (x0, x1, y0, y1).
    """
    x0, x1, y0, y1 = _window_rect(window)
    pts: list[AffPt] = []

    def push(p: AffPt) -> None:
        if x0 <= p.x <= x1 and y0 <= p.y <= y1 and p not in pts:
            pts.append(p)

    if line.c2 != 0:
        for x in (x0, x1):
            push(AffPt(x, -(line.c0 + line.c1 * x) / line.c2))
    if line.c1 != 0:
        for y in (y0, y1):
            push(AffPt(-(line.c0 + line.c2 * y) / line.c1, y))
    if len(pts) < 2:
        return None
    pts.sort(key=lambda p: (p.x, p.y))
    return Segment(pts[0], pts[-1])


def _sort_key(wl: WallLine, rect: Rect):
    c0, c1, c2 = wl.line.c0, wl.line.c1, wl.line.c2
    if c1 != 0:
        return (0, -(c0 + c2 * rect[2]) / c1)
    return (1, -c0 / c2)


def walls_for(v: CharVec, pool: Sequence[ExcBundle],
              window: Sequence) -> list[WallLine]:
    """Walls of a class against a pool of bundles, clipped to a window.

    Pool members proportional to the class carry no wall and are
    skipped, as are walls that miss the window entirely.  The result is
    ordered by the crossing point on the window's bottom edge, with
    horizontal walls after all others ordered by height; the order is
    deterministic.
    """
    rect = _window_rect(window)
    out = []
    for e in pool:
        try:
            wl = wall_line(v, e.char)
        except ValueError:
            continue
        seg = clip_line(wl.line, rect)
        if seg is None:
            continue
        out.append(WallLine(wl.v, wl.w, wl.line, seg))
    out.sort(key=lambda wl: _sort_key(wl, rect))
    return out
