"""Shared randomized-input builders and helpers for the test suite.

Exact phase inputs are built from rational points on the unit circle
(Pythagorean unit vectors) so every generated parameter set is exact.
"""

import functools
import math
import os
import random
from collections import Counter
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import stabscope
from stabscope import curve
from stabscope.algebraic import ThetaParams, validate_params
from stabscope.corekit import to_fraction
from stabscope.exceptional import (DyadicLabel, ExcTriple, TriplePattern, el, eplus, er,
                                   slope_to_label, triple_from)
from stabscope.lepotier import RegionClass
from stabscope.surd import nsign

_PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29),
                (7, 24, 25), (9, 40, 41), (12, 35, 37), (28, 45, 53)]

UPPER_UNITS: list[tuple[Fraction, Fraction]] = [(Fraction(-1), Fraction(0)),
                                                (Fraction(0), Fraction(1))]
for _a, _b, _c in _PYTHAGOREAN:
    for _x, _y in ((_a, _b), (_b, _a)):
        UPPER_UNITS.append((Fraction(_x, _c), Fraction(_y, _c)))
        UPPER_UNITS.append((Fraction(-_x, _c), Fraction(_y, _c)))


def random_triple(rng: random.Random, max_m: int = 5) -> ExcTriple:
    patterns = list(TriplePattern)
    while True:
        m = rng.randint(0, max_m)
        span = 3 << m
        base = DyadicLabel(rng.randint(-span, span), m)
        try:
            return triple_from(rng.choice(patterns), base)
        except ValueError:
            continue


def random_valid_params(rng: random.Random) -> ThetaParams:
    while True:
        ms = [Fraction(rng.randint(1, 12), rng.randint(1, 6))
              for _ in range(3)]
        units = [rng.choice(UPPER_UNITS) for _ in range(3)]
        k1 = rng.randint(-2, 2)
        branches = [k1, k1 + rng.randint(0, 2), k1 + rng.randint(1, 3)]
        p = ThetaParams.from_units(ms, units, branches)
        if validate_params(p):
            return p


def fresh_run(argv, program=None):
    """Run the CLI, or a Python program, with argv in a new interpreter.

    Returns the completed process and the seconds it took.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(stabscope.__file__).parents[1]), env.get("PYTHONPATH", "")])
    head = ["-m", "stabscope.cli"] if program is None else ["-c", program]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *head, *argv],
                          env=env, capture_output=True, timeout=30)
    return done, time.perf_counter() - start


def label_calls(monkeypatch, run) -> Counter:
    """The DyadicLabel __init__, __hash__ and __eq__ calls of run's second,
    warm call; the first fills the caches."""
    run()
    calls = Counter()
    with monkeypatch.context() as patch:
        for name in ("__init__", "__hash__", "__eq__"):
            method = getattr(DyadicLabel, name)
            patch.setattr(DyadicLabel, name,
                          lambda *args, _n=name, _m=method: calls.update([_n]) or _m(*args))
        run()
    return calls


# The rational point tests as they were taken in Fractions before their
# integer cores (lepotier._classify_ints, polygon._in_polygon_ints): the
# references that the cores and the chart classifier are checked against.

def tent_height(tent, x):
    """The height of a tent at a slope x of its span, on its Fraction chord line:
    the left chord up to the apex slope, the right one after it.
    """
    return (tent.left if x <= tent.apex.x else tent.right).line.y_at(x)


def region_by_fractions(p):
    """classify_point at a rational point, on AffPt.delta and the exclusion rule."""
    d = p.delta()
    if d < Fraction(1, 2):
        # only a label of rank den(x) can have the slope x, and its
        # exclusion reaches up to the discriminant (1/2)(1 - 1/den(x)^2)
        x = to_fraction(p.x)
        r = x.denominator
        if d >= (1 - Fraction(1, r * r)) / 2 and slope_to_label(x) is not None:
            return RegionClass.ON_EXCLUSION
        return RegionClass.GEO_LP
    if d > 1:
        return RegionClass.BELOW_CURVE
    return strip_by_tent(p.x, p.y)


def strip_by_tent(x, y):
    """The strip rule at a rational (x, y) on the tent of the label_walk label,
    built, and its Fraction height on the chord on the apex's side of x.
    """
    x = to_fraction(x)
    label, covered = label_walk(x)
    assert covered, x
    tent = curve._tent(label)
    yt = tent_height(tent, x)
    if y == yt:
        return RegionClass.ON_CURVE
    if y < yt:
        return RegionClass.BELOW_CURVE
    if x == tent.apex.x and y <= tent.exclusion.y_top:
        return RegionClass.ON_EXCLUSION
    return RegionClass.GEO_LP


def label_walk(x, depth=None, reads=None):
    """The point walk as it was on labels, by the tree walk that takes each
    midpoint's side from eplus and its cover from el or er: the DyadicLabel
    whose tent's closed slope span holds the rational x and True, or else
    the open gap's midpoint label and False.  It stops at depth, or with no
    depth before a midpoint ranks above den(x): a tent of rank r reaches
    less than 1/(2 r^2) from its slope, which is then a convergent of x
    (Legendre), of rank at most den(x).  Each contact point it reads is
    appended to reads as (p, m, side).
    """
    def contact(label, side):
        if reads is not None:
            reads.append((label.p, label.m, side))
        return (er if side > 0 else el)(label).x

    p, m = math.floor(x), 1
    if x <= contact(DyadicLabel(p), 1):
        return DyadicLabel(p), True
    if x >= contact(DyadicLabel(p + 1), -1):
        return DyadicLabel(p + 1), True
    while True:
        mid = DyadicLabel(2 * p + 1, m)
        apex = eplus(mid).x
        if m > depth if depth is not None else apex.denominator > x.denominator:
            return mid, False
        right = x >= apex
        if (x <= contact(mid, 1)) if right else (x >= contact(mid, -1)):
            return mid, True
        p, m = 2 * p + right, m + 1


# Exceptional slopes by arithmetic alone, an oracle independent of the label
# tree: no DyadicLabel, character cache, slope search or slope form.  A slope
# c/r in lowest terms is a label's exactly when e = (1 + c^2 - r^2)/r, which
# is 2 ch2 there, is an integer with 3c + e even (chi(E, E) = 1 and chi(E)
# integral), and no tent of a label of smaller rank covers c/r.  A tent of
# rank k covers less than 1/(2 k^2) on either side of its slope, so by
# Legendre's theorem that label's slope is an earlier convergent of c/r.

def _convergents(num, den):
    """The convergents h/k of num/den, den > 0, in order; the last is num/den."""
    h0, k0, h1, k1 = 0, 1, 1, 0
    while den:
        a, rest = divmod(num, den)
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        yield h1, k1
        num, den = den, rest


def _arith_under(h, k, num, den):
    """Whether num/den lies under the tent of the slope h/k of rank k.

    The tent spans d = |num/den - h/k| up to the smaller root of
    d^2 - 3 d + 1/k^2, so d < 3/2 and that quadratic is >= 0; with
    d = n/(den k), times (den k)^2 it is n^2 - 3 n den k + den^2.
    """
    n, dk = abs(num * k - h * den), den * k
    return 2 * n < 3 * dk and n * n - 3 * n * dk + den * den >= 0


@functools.lru_cache(maxsize=None)
def _arith_slope(c, r):
    """Whether c/r, in lowest terms with r > 0, is a label's slope."""
    e, rest = divmod(1 + c * c - r * r, r)
    if rest or (3 * c + e) % 2:
        return False
    return not any(k < r and _arith_under(h, k, c, r) and _arith_slope(h, k)
                   for h, k in _convergents(c, r))


def _arith_cover(num, den):
    """The slope (c, r) of the label whose tent covers num/den, den > 0, or None."""
    return next(((h, k) for h, k in _convergents(num, den)
                 if _arith_under(h, k, num, den) and _arith_slope(h, k)), None)


def in_polygon_by_fractions(p, poly):
    """point_in_polygon by its crossing loop on the Fraction vertices less p."""
    rel = [(v.x - p.x, v.y - p.y) for v in poly.vertices]
    for (dx, dy), flag in zip(rel, poly.vertex_included):
        if nsign(dx) == 0 and nsign(dy) == 0:
            return flag
    crossings = 0
    for (ax, ay), (bx, by), flag in zip(rel, rel[1:] + rel[:1], poly.edge_included):
        area = nsign(ax * by - ay * bx)
        if area == 0 and nsign(ax * bx + ay * by) < 0:
            return flag
        rises = nsign(by) > 0
        if (nsign(ay) > 0) != rises and (area > 0) == rises:
            crossings += 1
    return crossings % 2 == 1
