"""Exactness checks for quadratic surd arithmetic against mpmath."""

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


@given(rationals, rationals, st.sampled_from([2, 3, 5, 6, 7, 10]))
def test_isolating_interval_brackets_value(a, b, d):
    q = QuadReal(a, b, d)
    lo, hi = q.isolating_interval()
    assert lo <= hi
    v = _mp(q)
    assert mpmath.mpf(lo.numerator) / lo.denominator <= v
    assert v <= mpmath.mpf(hi.numerator) / hi.denominator


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
