"""Character vectors, pairings, and exact plane geometry predicates."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from stabscope.corekit import (AffPt, CharVec, Polygon, ProjLine, Segment,
                               collinear, cross3, delta, det3, euler_chi,
                               format_rational, parse_rational,
                               point_in_polygon, slope, to_fraction)
from stabscope.surd import QuadReal

fracs = st.fractions(min_value=-100, max_value=100, max_denominator=64)
chars = st.builds(CharVec, fracs, fracs, fracs)


@given(fracs)
def test_rational_text_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


def test_parse_rational_rejects_junk():
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("one half")


@given(chars, chars)
def test_charvec_vector_space_ops(v, w):
    assert v + w - w == v
    assert -v == v.scale(-1)
    assert (v + w).scale(2) == v.scale(2) + w.scale(2)
    assert 3 * v == v.scale(3)
    assert (v - v).is_zero()


@given(chars)
def test_charvec_json_roundtrip(v):
    assert CharVec.from_json(v.to_json()) == v


def test_structure_sheaf_pairing():
    o = CharVec(1, 0, 0)
    assert euler_chi(o, o) == 1
    line = CharVec(1, 1, Fraction(1, 2))
    assert euler_chi(o, line) == 3
    assert euler_chi(line, o) == 0
    point = CharVec(0, 0, 1)
    assert euler_chi(o, point) == 1
    assert euler_chi(point, o) == 1


@given(chars, chars, chars, fracs)
def test_euler_pairing_bilinear(u, v, w, c):
    assert euler_chi(u + v, w) == euler_chi(u, w) + euler_chi(v, w)
    assert euler_chi(u, v + w) == euler_chi(u, v) + euler_chi(u, w)
    assert euler_chi(u.scale(c), v) == c * euler_chi(u, v)
    assert euler_chi(u, v.scale(c)) == c * euler_chi(u, v)


def test_slope_and_discriminant():
    v = CharVec(2, 3, Fraction(3, 2))
    assert slope(v) == Fraction(3, 2)
    assert delta(v) == Fraction(9, 8) - Fraction(3, 4)
    assert slope(CharVec(1, 1, Fraction(1, 2))) == 1
    assert slope(CharVec(2, 1, Fraction(-1, 2))) == Fraction(1, 2)
    assert delta(CharVec(1, 0, 0)) == 0
    assert delta(CharVec(1, 0, -1)) == 1
    assert delta(CharVec(2, 1, Fraction(-1, 2))) == Fraction(3, 8)
    with pytest.raises(ValueError):
        slope(CharVec(0, 1, 1))


def test_det3_basis_values():
    o = CharVec(1, 0, 0)
    o1 = CharVec(1, 1, Fraction(1, 2))
    o2 = CharVec(1, 2, 2)
    pt = CharVec(0, 0, 1)
    assert det3(o, o1, o2) == 1
    assert det3(o, o, pt) == 0
    assert det3(pt, o, o1) == 1


@given(chars, chars, chars)
def test_det3_matches_sympy(u, v, w):
    m = sympy.Matrix([
        [u.ch0, u.ch1, u.ch2],
        [v.ch0, v.ch1, v.ch2],
        [w.ch0, w.ch1, w.ch2],
    ])
    assert det3(u, v, w) == Fraction(str(m.det()))


def test_point_delta_and_projection():
    v = CharVec(2, 3, Fraction(3, 2))
    p = v.proj()
    assert (p.x, p.y) == (Fraction(3, 2), Fraction(3, 4))
    assert p.delta() == delta(v)


def test_affpt_with_surd_coordinates():
    x = QuadReal(Fraction(-3, 2), Fraction(1, 2), 5)
    p = AffPt(x, x * x * Fraction(1, 2) - Fraction(1, 2))
    assert p.delta() == Fraction(1, 2)
    assert not p.x.is_rational
    data = p.to_json()
    assert data["x"] == {"a": "-3/2", "b": "1/2", "d": 5}


def test_to_fraction_keeps_a_fraction_and_reads_a_rational_surd():
    x = Fraction(-(10 ** 30) - 1, 7)
    assert to_fraction(x) is x
    q = QuadReal(Fraction(5, 3), Fraction(2), 4)  # 5/3 + 2 sqrt(4) = 17/3
    assert q.is_rational and to_fraction(q) is q.a == Fraction(17, 3)
    assert to_fraction(-4) == Fraction(-4) and type(to_fraction(-4)) is Fraction
    with pytest.raises(ValueError, match="irrational"):
        to_fraction(QuadReal(Fraction(1, 2), 1, 5))


def test_projline_through_points():
    a, b = AffPt(0, 1), AffPt(1, 3)
    line = ProjLine(*cross3((1, a.x, a.y), (1, b.x, b.y)))
    assert line.eval_at(a) == 0
    assert line.eval_at(b) == 0
    assert line.y_at(2) == 5


def test_collinearity_predicate():
    assert collinear(AffPt(0, 0), AffPt(1, 1), AffPt(2, 2))
    assert not collinear(AffPt(0, 0), AffPt(1, 1), AffPt(2, 3))
    # surd points of one radicand on the rational line y = 2x - 1/3
    r2 = QuadReal(0, 1, 2)
    p, q, r = (AffPt(x, 2 * x - Fraction(1, 3)) for x in (r2, 1 + r2, r2 / 2 - 3))
    assert collinear(p, q, r)
    assert not collinear(p, q, AffPt(r.x + Fraction(1, 1000), r.y))
    # two radicands in one product leave the quadratic extension
    r3 = QuadReal(0, 1, 3)
    with pytest.raises(ValueError, match="different quadratic extensions"):
        collinear(AffPt(r2, r2), AffPt(r3, r3), AffPt(0, 0))


def test_segment_membership_flags():
    with pytest.raises(ValueError):
        Segment(AffPt(1, 1), AffPt(1, 1))


def _unit_square(edge=True, vertex=True):
    pts = (AffPt(0, 0), AffPt(1, 0), AffPt(1, 1), AffPt(0, 1))
    return Polygon(pts, (edge,) * 4, (vertex,) * 4)


def test_polygon_membership_with_flags():
    closed = _unit_square()
    assert point_in_polygon(AffPt(Fraction(1, 2), Fraction(1, 2)), closed)
    assert point_in_polygon(AffPt(0, 0), closed)
    assert point_in_polygon(AffPt(Fraction(1, 2), 0), closed)
    assert not point_in_polygon(AffPt(2, 0), closed)
    opened = _unit_square(edge=False, vertex=False)
    assert point_in_polygon(AffPt(Fraction(1, 2), Fraction(1, 2)), opened)
    assert not point_in_polygon(AffPt(0, 0), opened)
    assert not point_in_polygon(AffPt(Fraction(1, 2), 0), opened)


def test_polygon_rejects_degenerate():
    with pytest.raises(ValueError):
        Polygon((AffPt(0, 0), AffPt(1, 1), AffPt(2, 2)),
                (True,) * 3, (True,) * 3)


def test_nonconvex_polygon_parity():
    pts = (AffPt(0, 0), AffPt(4, 0), AffPt(4, 4), AffPt(2, 1), AffPt(0, 4))
    poly = Polygon(pts, (True,) * 5, (True,) * 5)
    assert point_in_polygon(AffPt(1, 1), poly)
    assert point_in_polygon(AffPt(3, 1), poly)
    assert not point_in_polygon(AffPt(2, 3), poly)


def _crossing_reference(p, poly):
    """Membership by the vertex, open-edge and interpolated-crossing tests."""
    for v, flag in zip(poly.vertices, poly.vertex_included):
        if p == v:
            return flag
    vs = poly.vertices
    edges = list(zip(vs, vs[1:] + vs[:1], poly.edge_included))
    for a, b, flag in edges:
        u, w = (b.x - a.x, b.y - a.y), (p.x - a.x, p.y - a.y)
        if u[0] * w[1] - u[1] * w[0] == 0 and 0 < u[0] * w[0] + u[1] * w[1] < u[0] ** 2 + u[1] ** 2:
            return flag
    crossings = 0
    for a, b, _ in edges:
        ya, yb = a.y - p.y, b.y - p.y
        if (ya > 0) != (yb > 0) and a.x + ya / (ya - yb) * (b.x - a.x) > p.x:
            crossings += 1
    return crossings % 2 == 1


def test_polygon_membership_matches_crossing_reference():
    rng = random.Random(808)
    grid = [Fraction(n, 2) for n in range(-4, 5)]
    inside = 0
    for _ in range(200):
        n = rng.randint(3, 7)
        pts = tuple(AffPt(rng.choice(grid), rng.choice(grid)) for _ in range(n))
        flags = tuple(rng.random() < 0.5 for _ in range(n))
        try:
            poly = Polygon(pts, flags, tuple(rng.random() < 0.5 for _ in range(n)))
        except ValueError:
            continue
        for i in range(24):
            p = AffPt(Fraction(rng.randint(-10, 10), 4), Fraction(rng.randint(-10, 10), 4))
            if i % 6 == 0:
                # a surd point is refused
                p = AffPt(p.x + QuadReal(0, Fraction(1, rng.randint(1, 9)), 2), p.y)
                with pytest.raises(ValueError, match="irrational"):
                    point_in_polygon(p, poly)
                continue
            want = _crossing_reference(p, poly)
            inside += want
            assert point_in_polygon(p, poly) is want, (p, poly)
    assert inside > 300
