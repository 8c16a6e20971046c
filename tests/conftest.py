"""Shared randomized-input builders and helpers for the test suite.

Exact phase inputs are built from rational points on the unit circle
(Pythagorean unit vectors) so every generated parameter set is exact.
"""

import os
import random
from collections import Counter
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import stabscope
from stabscope import lepotier
from stabscope.algebraic import ThetaParams, validate_params
from stabscope.corekit import to_fraction
from stabscope.exceptional import (DyadicLabel, ExcTriple, TriplePattern, slope_to_label,
                                   triple_from)
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
# integer cores (lepotier._classify_ints, corekit._in_polygon_ints): the
# references that the cores and the chart classifier are checked against.

def tent_height(tent, x):
    """The height of a tent at a slope x of its span, on its Fraction chord line:
    the left chord up to the apex slope, the right one after it.
    """
    return (tent.left if x <= tent.apex.x else tent.right).line.y_at(x)


def region_by_fractions(p, depth):
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
    return strip_by_tent(p.x, p.y, depth)


def strip_by_tent(x, y, depth):
    """The strip rule at a rational (x, y) on the covering label's tent, built,
    and its Fraction height on the chord on the apex's side of x.
    """
    label = lepotier._tent_at(x, depth)
    if label is None:
        return RegionClass.UNKNOWN
    tent = lepotier._tent(label)
    yt = tent_height(tent, x)
    if y == yt:
        return RegionClass.ON_CURVE
    if y < yt:
        return RegionClass.BELOW_CURVE
    if x == tent.apex.x and y <= tent.exclusion.y_top:
        return RegionClass.ON_EXCLUSION
    return RegionClass.GEO_LP


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
