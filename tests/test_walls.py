"""Wall lines from the coplanarity criterion and windowed arrangements."""

import random
from fractions import Fraction

import pytest

from stabscope.corekit import CharVec, cross3, det3
from stabscope.exceptional import DyadicLabel, ExcBundle
from stabscope.geometric import SQCharge, z_eval
from stabscope.walls import clip_line, wall_line, walls_for

SKY = CharVec(0, 0, 1)
O = CharVec(1, 0, 0)
O1 = CharVec(1, 1, Fraction(1, 2))


def test_wall_line_examples():
    wl = wall_line(SKY, O)
    assert (wl.line.c0, wl.line.c1, wl.line.c2) == (0, 1, 0)
    wl = wall_line(O, O1)
    # q = s/2, through both projections
    assert wl.line.eval_at(O.proj()) == 0
    assert wl.line.eval_at(O1.proj()) == 0
    assert wl.line.y_at(Fraction(1)) == Fraction(1, 2)
    with pytest.raises(ValueError, match="parallel"):
        wall_line(CharVec(2, 2, 1), O1)


def test_wall_line_symmetric_as_sets():
    rng = random.Random(13)
    for _ in range(40):
        v = CharVec(*(Fraction(rng.randint(-5, 5)) for _ in range(3)))
        w = CharVec(*(Fraction(rng.randint(-5, 5)) for _ in range(3)))
        try:
            one = wall_line(v, w).line
            other = wall_line(w, v).line
        except ValueError:
            continue
        assert not any(cross3((one.c0, one.c1, one.c2), (other.c0, other.c1, other.c2)))


def test_wall_points_satisfy_coplanarity():
    rng = random.Random(29)
    checked = 0
    while checked < 60:
        v = CharVec(*(Fraction(rng.randint(-5, 5)) for _ in range(3)))
        w = CharVec(*(Fraction(rng.randint(-5, 5)) for _ in range(3)))
        try:
            wl = wall_line(v, w)
        except ValueError:
            continue
        line = wl.line
        if line.c1 == 0 and line.c2 == 0:
            continue
        for s_num in (-3, 0, 2, 7):
            s = Fraction(s_num, 2)
            if line.c2 != 0:
                q = line.y_at(s)
            else:
                s = -line.c0 / line.c1
                q = Fraction(s_num)
            K = CharVec(1, s, q)
            assert det3(K, v, w) == 0
            z1 = z_eval(SQCharge(s, q), v)
            z2 = z_eval(SQCharge(s, q), w)
            assert z1.re * z2.im - z1.im * z2.re == 0
        checked += 1


def test_wall_at_infinity_for_rank_zero_pair():
    wl = wall_line(SKY, CharVec(0, 1, 0))
    assert (wl.line.c1, wl.line.c2) == (0, 0)
    window = (Fraction(-5), Fraction(5), Fraction(-5), Fraction(5))
    assert clip_line(wl.line, window) is None


def test_clip_line_inside_window():
    wl = wall_line(SKY, O)
    window = (Fraction(-2), Fraction(2), Fraction(-3), Fraction(1))
    seg = clip_line(wl.line, window)
    assert seg is not None
    assert seg.a.x == 0 and seg.b.x == 0
    assert {seg.a.y, seg.b.y} == {Fraction(-3), Fraction(1)}
    off = clip_line(wall_line(SKY, CharVec(1, 7, 0)).line, window)
    assert off is None


def test_walls_for_skyscraper_pool():
    pool = [ExcBundle.of(DyadicLabel(n)) for n in range(-2, 3)]
    window = (Fraction(-2), Fraction(2), Fraction(-3), Fraction(1))
    found = walls_for(SKY, pool, window)
    xs = [wl.clip.a.x for wl in found]
    assert xs == [Fraction(n) for n in range(-2, 3)]
    for wl in found:
        assert wl.v == SKY
        assert wl.clip.a.x == wl.clip.b.x


def test_walls_for_skips_proportional_and_missing():
    pool = [ExcBundle.of(DyadicLabel(0)), ExcBundle.of(DyadicLabel(9))]
    window = (Fraction(-1), Fraction(1), Fraction(-1), Fraction(1))
    found = walls_for(O, pool, window)
    # O is proportional to the first pool member; the second's wall is the
    # line through (0,0) and (9,81/2), which does cross this window.
    assert len(found) == 1
    assert found[0].w == ExcBundle.of(DyadicLabel(9)).char
    assert walls_for(O, [], window) == []


def test_walls_for_deterministic_order():
    pool = [ExcBundle.of(DyadicLabel(p, 1)) for p in (-3, -1, 1, 3)]
    pool += [ExcBundle.of(DyadicLabel(n)) for n in (-1, 0, 1)]
    window = (Fraction(-2), Fraction(2), Fraction(-1), Fraction(1))
    one = walls_for(SKY, pool, window)
    two = walls_for(SKY, list(reversed(pool)), window)
    assert [w.w for w in one] == [w.w for w in two]


def test_horizontal_walls_sort_after_all_others():
    pool = [ExcBundle.of(DyadicLabel(p, 1)) for p in range(-4, 5)]
    window = (-2, 2, -1, 1)
    # every wall passes through (0, 1/2), horizontally for the labels -1 and 1
    found = walls_for(CharVec(2, 0, 1), pool, window)
    flat = [wl.line.c1 == 0 for wl in found]
    assert flat == [False] * 7 + [True] * 2
    # a rank-zero class of degree one has a horizontal wall with every bundle,
    # at the bundle's height, and they come ordered by it
    found = walls_for(CharVec(0, 1, 0), pool, window)
    heights = [-wl.line.c0 / wl.line.c2 for wl in found]
    assert len(found) == 7 and all(wl.line.c1 == 0 for wl in found)
    assert heights == sorted(heights) and heights[0] < heights[-1]
