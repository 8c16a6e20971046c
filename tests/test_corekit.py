"""Character vectors, pairings, and exact plane geometry predicates."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from stabscope.corekit import (AffPt, CharVec, Polygon, ProjLine, RayOrder,
                               Segment, collinear, cross2, delta, det3,
                               euler_chi, format_rational, parse_rational,
                               point_in_polygon, ray_above, slope, to_fraction, vec)
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
    line = ProjLine.through(a, b)
    assert line.eval_at(a) == 0
    assert line.eval_at(b) == 0
    assert line.y_at(2) == 5
    assert line.same_line(ProjLine(line.c0 * 2, line.c1 * 2, line.c2 * 2))
    assert not line.same_line(ProjLine(0, 1, 0))


def test_collinearity_predicate():
    assert collinear(AffPt(0, 0), AffPt(1, 1), AffPt(2, 2))
    assert not collinear(AffPt(0, 0), AffPt(1, 1), AffPt(2, 3))


def test_segment_membership_flags():
    s = Segment(AffPt(0, 0), AffPt(2, 2), include_a=False, include_b=True)
    assert not s.contains(AffPt(0, 0))
    assert s.contains(AffPt(1, 1))
    assert s.contains(AffPt(2, 2))
    assert not s.contains(AffPt(3, 3))
    assert not s.contains(AffPt(1, 0))
    with pytest.raises(ValueError):
        Segment(AffPt(1, 1), AffPt(1, 1))


def test_ray_comparison_around_base():
    base = AffPt(0, 0)
    down = AffPt(0, -1)
    right = AffPt(1, 0)
    up_right = AffPt(1, 1)
    assert ray_above(base, up_right, right) is RayOrder.ABOVE
    assert ray_above(base, right, up_right) is RayOrder.BELOW
    assert ray_above(base, down, AffPt(0, 5)) is RayOrder.EQUAL
    assert ray_above(base, down, right) is RayOrder.ABOVE
    assert ray_above(base, AffPt(-1, -1), up_right) is RayOrder.EQUAL
    with pytest.raises(ValueError):
        ray_above(base, base, right)


def test_ray_comparison_at_charge_kernel():
    p = AffPt(Fraction(1, 2), 0)
    a = AffPt(1, Fraction(1, 2))
    b = AffPt(2, 2)
    assert ray_above(p, a, b) is RayOrder.BELOW
    assert ray_above(p, b, a) is RayOrder.ABOVE


@given(st.tuples(fracs, fracs), st.tuples(fracs, fracs))
def test_ray_comparison_antisymmetric(u, v):
    base = AffPt(Fraction(1, 3), Fraction(-2, 7))
    a = AffPt(base.x + u[0], base.y + u[1])
    b = AffPt(base.x + v[0], base.y + v[1])
    if a == base or b == base:
        return
    one = ray_above(base, a, b)
    other = ray_above(base, b, a)
    assert one.value == -other.value


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
    for a, b, flag in poly.edges():
        u, w = vec(a, b), vec(a, p)
        if cross2(u, w) == 0 and 0 < u[0] * w[0] + u[1] * w[1] < u[0] ** 2 + u[1] ** 2:
            return flag
    crossings = 0
    for a, b, _ in poly.edges():
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


def test_cross_and_vec_helpers():
    assert vec(AffPt(1, 1), AffPt(3, 0)) == (2, -1)
    assert cross2((1, 0), (0, 1)) == 1
    assert cross2((2, 3), (4, 6)) == 0
