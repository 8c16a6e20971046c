"""Polygons with per-edge and per-vertex inclusion flags: the chart's triangle and pentagon.

A rational point is decided by one integer core, _in_polygon_ints, on
its homogeneous vector (w, X, Y), w > 0, with plain integer signs.  The
chart decides its cells without it, by five signs on the pentagon's side
lines (algebraic._in_pentagon); this core is point_in_polygon's and the
oracle that those signs are tested against.
"""

from __future__ import annotations

from fractions import Fraction

from .corekit import AffPt, _point_ints, _record, _scaled_ints, to_fraction


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
    if (0, 0) in rel:
        return poly.vertex_included[rel.index((0, 0))]
    crossings = 0
    for i in range(-1, len(rel) - 1):
        (ax, ay), (bx, by) = rel[i], rel[i + 1]
        area = ax * by - ay * bx
        if area == 0 and ax * bx + ay * by < 0:
            return poly.edge_included[i]
        rises = by > 0
        if (ay > 0) != rises and (area > 0) == rises:
            crossings += 1
    return crossings % 2 == 1
