"""Exactness checks for quadratic surd arithmetic against mpmath."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from stabscope import surd
from stabscope.exceptional import DyadicLabel
from stabscope.surd import QuadReal, nsign

mpmath.mp.dps = 100


def _mp(q: QuadReal) -> mpmath.mpf:
    return mpmath.mpf(q.a.numerator) / q.a.denominator + \
        (mpmath.mpf(q.b.numerator) / q.b.denominator) * mpmath.sqrt(q.d)


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
radicands = st.integers(min_value=0, max_value=10**6)


def test_rational_normal_form():
    assert QuadReal(3).is_rational
    assert QuadReal(3).as_fraction() == 3
    assert QuadReal(0, 0, 7).is_rational
    assert QuadReal(0, 0, 7).d == 0


def test_perfect_square_radicand_folds():
    assert QuadReal(0, 1, 1) == 1
    assert QuadReal(0, 1, 4) == 2
    assert QuadReal(3, 2, 9) == 9
    assert QuadReal(0, Fraction(1, 2), 16) == 2
    assert QuadReal(1, -1, 1) == 0
    assert QuadReal(0, 5, 0) == 0
    assert QuadReal(0, 1, 4).is_rational


def test_square_factor_extraction():
    q = QuadReal(0, 1, 8)
    assert (q.b, q.d) == (2, 2)
    q = QuadReal(0, 3, 50)
    assert (q.b, q.d) == (15, 2)
    # 30603 = 3 * 101^2: the square's prime lies above the cube root
    q = QuadReal(0, 1, 30603)
    assert (q.b, q.d) == (101, 3)
    assert q + QuadReal(0, 1, 3) == QuadReal(0, 102, 3)


def test_decimal_exponent_is_bounded():
    bound = surd.MAX_EXPONENT
    assert surd.parse_rational(f"1e{bound}") == 10 ** bound
    assert surd.parse_rational(f"-2.5E-{bound}") == Fraction(-25, 10 ** (bound + 1))
    for text in (f"1e{bound + 1}", f"1e-{bound + 1}", "1e100000000"):
        with pytest.raises(ValueError, match="malformed rational"):
            surd.parse_rational(text)
    with pytest.raises(ValueError, match="malformed rational"):
        DyadicLabel.parse(f"1e-{bound + 1}")


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        QuadReal(0, 1, -2)


def test_mixed_radicand_addition_rejected():
    with pytest.raises(ValueError):
        QuadReal(0, 1, 2) + QuadReal(0, 1, 3)


def test_cross_radicand_comparison():
    assert QuadReal(0, 1, 2) < QuadReal(0, 1, 3)
    assert QuadReal(1, 1, 2) < QuadReal(0, 2, 3)
    assert QuadReal(0, 3, 2) > QuadReal(0, 2, 3)


@given(rationals, rationals, radicands)
def test_float_matches_mpmath(a, b, d):
    q = QuadReal(a, b, d)
    assert abs(float(q) - float(_mp(q))) <= 1e-9 * (1 + abs(float(_mp(q))))


@given(rationals, rationals, radicands, rationals, rationals)
def test_field_ops_match_mpmath(a, b, d, a2, b2):
    x = QuadReal(a, b, d)
    y = QuadReal(a2, b2, d)
    for got, want in [
        (x + y, _mp(x) + _mp(y)),
        (x - y, _mp(x) - _mp(y)),
        (x * y, _mp(x) * _mp(y)),
    ]:
        assert abs(float(got) - float(want)) <= 1e-6 * (1 + abs(float(want)))
    if y.sign() != 0:
        got = x / y
        want = _mp(x) / _mp(y)
        assert abs(float(got) - float(want)) <= 1e-6 * (1 + abs(float(want)))


@given(rationals, rationals, radicands)
def test_sign_matches_mpmath(a, b, d):
    q = QuadReal(a, b, d)
    approx = _mp(q)
    if abs(approx) > mpmath.mpf(10) ** -50:
        assert q.sign() == mpmath.sign(approx)
    assert nsign(q) == q.sign()


@given(rationals, rationals, radicands)
def test_json_roundtrip(a, b, d):
    q = QuadReal(a, b, d)
    assert QuadReal.from_json(q.to_json()) == q


def test_inverse_is_exact():
    q = QuadReal(3, -1, 2)
    assert q * q.inverse() == 1
    assert (1 / q) * q == 1
    with pytest.raises(ZeroDivisionError):
        QuadReal(0).inverse()


def test_golden_ratio_identity():
    phi = QuadReal(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == phi + 1
    assert phi.inverse() == phi - 1


@given(rationals, rationals, radicands, rationals, rationals)
def test_arithmetic_keeps_the_reduced_form(a, b, d, a2, b2):
    """Results carry the (a, b, d) a fresh constructor gives their value."""
    x = QuadReal(a, b, d)
    y = QuadReal(a2, b2, d)
    results = [x + y, x - y, x * y, -x, x * x, x - x]
    if y.sign() != 0:
        results += [y.inverse(), x / y]
    for r in results:
        fresh = QuadReal(r.a, r.b, r.d)
        assert (r.a, r.b, r.d) == (fresh.a, fresh.b, fresh.d)


def test_arithmetic_does_not_reduce(monkeypatch):
    # radicands above the trial-division limit and below it, as the
    # contact points of ranks 7561 and 37666 have
    values = [QuadReal(Fraction(3, 2), Fraction(-1, 15122), 9 * 7561 ** 2 - 4),
              QuadReal(1, 2, 12), QuadReal(Fraction(1, 3), 5, 10 ** 13 + 7)]

    def forbidden(b, d):
        raise AssertionError("radicand reduced again")

    monkeypatch.setattr(surd, "_reduce_radicand", forbidden)
    for x in values:
        y = x * x * Fraction(1, 2) - Fraction(1, 2)
        assert (y - x * x / 2).sign() < 0
        assert x / (x + 1) < 1 and x.inverse() * x == 1


# a prime above the trial-division limit: radicands k^2 * _BIG with k > 97
# stay unreduced
_BIG = 10**12 + 39


def _radicand(rng):
    return rng.choice([rng.choice([2, 3, 5, 6, 7, 10, 11, 101 * 103]),
                       rng.randint(2, 10**6),
                       rng.choice([101, 103, 211]) ** 2 * _BIG,
                       _BIG + 2 * rng.randint(1, 10**6)])


def _rational(rng, span=10**3):
    return Fraction(rng.randint(-span * 64, span * 64), rng.randint(1, 64))


def test_cross_radicand_comparisons_match_mpmath():
    rng = random.Random(20)
    pairs = []
    for _ in range(400):
        x = QuadReal(_rational(rng), _rational(rng) or 1, _radicand(rng))
        y = QuadReal(_rational(rng), _rational(rng) or 1, _radicand(rng))
        pairs.append((x, y, None))
        # y's rational part moved to within 10^-30 of x, on either side
        with mpmath.workdps(60):
            gap = _mp(x) - _mp(QuadReal(0, y.b, y.d))
        near = Fraction(int(mpmath.nint(gap * 10**30)) + rng.choice([-1, 1]), 10**30)
        pairs.append((x, QuadReal(near, y.b, y.d), None))
        # one value under an unreduced radicand and under its reduced one
        k, b = rng.choice([101, 103, 211]), _rational(rng) or 1
        a = _rational(rng)
        pairs.append((QuadReal(a, b, k * k * _BIG), QuadReal(a, b * k, _BIG), 0))
        pairs.append((QuadReal(a, b, k * k * _BIG),
                      QuadReal(a + Fraction(1, 10**20), b * k, _BIG), -1))
    with mpmath.workdps(60):
        for x, y, want in pairs:
            if want is None:
                diff = _mp(x) - _mp(y)
                assert abs(diff) > mpmath.mpf(10) ** -40, (x, y)
                want = int(mpmath.sign(diff))
            assert ((x > y) - (x < y), x == y) == (want, want == 0), (x, y)
            assert ((y > x) - (y < x)) == -want


def test_reduce_radicand_matches_sympy_core():
    from sympy.ntheory.factor_ import core
    rng = random.Random(21)
    cases = [101**2 * 103 * 107, 103**2 * 5, 997**2 * 2 * 3, 9973**2 * 7,
             2**4 * 101**2 * 103, rng.choice([101, 211]) ** 2 * _BIG]
    cases += [rng.randint(2, 10**12) for _ in range(300)]
    cases += [rng.randint(2, 10**4) ** 2 * rng.randint(2, 10**4) for _ in range(200)]
    for d in cases:
        s, rest = surd._reduce_radicand(Fraction(1), d)
        assert s.denominator == 1 and s * s * (rest or 1) == d, d
        if d <= surd._FACTOR_LIMIT:
            assert rest == (0 if core(d) == 1 else core(d)), d
        else:
            assert rest % core(d) == 0 and math.isqrt(rest // core(d)) ** 2 == rest // core(d)
            assert all(rest % (p * p) for p in surd._SMALL_PRIMES), d


def test_floor_matches_mpmath():
    rng = random.Random(22)
    values = []
    for _ in range(300):
        b, d = _rational(rng) or 1, _radicand(rng)
        values.append(QuadReal(_rational(rng), b, d))
        # within 10^-50 of an integer, on either side; b sqrt(d) is below
        # 10^14, so 150 digits hold the value to well below its distance
        with mpmath.workdps(150):
            near = Fraction(int(mpmath.nint(_mp(QuadReal(0, b, d)) * 10**50)), 10**50)
        values.append(QuadReal(rng.randint(-5, 5) - near, b, d))
    values += [QuadReal(Fraction(7, 2)), QuadReal(-3), QuadReal(Fraction(-1, 3))]
    with mpmath.workdps(150):
        for q in values:
            want = mpmath.floor(_mp(q))
            if not q.is_rational:
                assert abs(_mp(q) - want) > mpmath.mpf(10) ** -100
            assert math.floor(q) == int(want), q
