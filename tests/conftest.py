"""Shared randomized-input builders and helpers for the test suite.

Exact phase inputs are built from rational points on the unit circle
(Pythagorean unit vectors) so every generated parameter set is exact.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import stabscope
from stabscope.algebraic import ThetaParams, validate_params
from stabscope.exceptional import DyadicLabel, ExcTriple, TriplePattern, triple_from

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
