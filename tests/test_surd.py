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


def test_float_past_the_float_range_of_the_radicand():
    # label 2731/2^13 has a 787-bit rank, so its contact points carry the
    # radicand 9 r^2 - 4 of 1572 bits, which no float holds
    from stabscope.cli import _curve_rows
    from stabscope.exceptional import el, er
    from stabscope.lepotier import _tent
    label = DyadicLabel(2731, 13)
    signs = set()
    for point in (el(label), er(label)):
        for v in (point.x, point.y):
            assert v.d.bit_length() == 1572
            want = float(_mp(v))
            assert abs(float(v) - want) <= 1e-15 * abs(want), v
            signs.add(v.b > 0)
    assert signs == {True, False}
    tent = _tent(label)
    rows = _curve_rows([tent.left, tent.right], [tent.exclusion])
    assert [row["kind"] for row in rows] == ["left", "right", "exclusion"]
    assert rows[0]["x2"] == rows[1]["x1"] == rows[2]["x1"]


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


def test_a_foreign_operand_raises_type_error():
    # _coerce, the one place that reads an operand, names the foreign type
    x = QuadReal(1, 1, 2)
    with pytest.raises(TypeError, match="^unsupported operand for QuadReal: float$"):
        x + 0.5
    with pytest.raises(TypeError, match="^unsupported operand for QuadReal: float$"):
        0.5 * x
    with pytest.raises(TypeError, match="^unsupported operand for QuadReal: str$"):
        x < "x"
    assert (x == "x") is False and x != "x"
    assert 1 + x - Fraction(1, 2) == QuadReal(Fraction(3, 2), 1, 2)


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
    # the integer form (P + Q sqrt(D))/S, of either sign of Q, Q = 0, S = 1 and
    # S > 1, and perfect-square D, whose floor is checked on Fractions
    forms = [(7, 0, 0, 2), (-7, 0, 5, 2), (6, 0, 0, 3), (0, -1, 1, 1),
             (-1, -1, 4, 2), (5, 3, 9, 4)]
    for _ in range(300):
        q, d = rng.choice([-1, 1]) * rng.randint(1, 10**6), _radicand(rng)
        forms.append((rng.randint(-10**12, 10**12), q, d, rng.choice([1, 2, 3, 10**9 + 7])))
        # within 10^-50 of an integer m, on either side: S = 10^50 k and
        # P = m S - nint(Q sqrt(D)) + e put the value at m + (Q sqrt(D) - nint + e)/S
        with mpmath.workdps(150):
            n = int(mpmath.nint(q * mpmath.sqrt(d)))
        s = 10**50 * rng.randint(1, 9)
        forms.append((rng.randint(-5, 5) * s - n + rng.choice([-1, 0, 1]), q, d, s))
        forms.append((rng.randint(-10**6, 10**6), 0, rng.choice([0, d]), rng.randint(1, 99)))
    with mpmath.workdps(150):
        for p, q, d, s in forms:
            got = surd._floor_form(p, q, d, s)
            if q == 0 or math.isqrt(d) ** 2 == d:
                assert got == math.floor(Fraction(p + q * math.isqrt(d), s)), (p, q, d, s)
                continue
            value = (p + q * mpmath.sqrt(d)) / s
            want = mpmath.floor(value)
            assert abs(value - want) > mpmath.mpf(10) ** -100
            assert got == int(want), (p, q, d, s)
    assert {q < 0 for _, q, _, _ in forms} == {True, False}


def _mpq(x) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _number(rng, kind, span=10**6):
    x = rng.randint(-span, span)
    return x if kind is int else Fraction(x, rng.randint(1, 999))


def _kernel_cases(rng, kind):
    """(kernel, arguments, exact zero) for _root_sign and _mixed_sign on ints
    or on Fractions; a near miss is the number nearest a zero moved by one
    unit, 1 for ints and 10^-30 for Fractions.
    """
    scale = 1 if kind is int else 10**30

    def near(value):
        return kind(Fraction(rng.choice((-1, 1)) - int(mpmath.nint(value * scale)), scale))

    cases = []
    for _ in range(150):
        v, d, k = _number(rng, kind) or 1, _radicand(rng), rng.randint(1, 10**4)
        u = _number(rng, kind)
        cases += [(surd._root_sign, (u, v, d), False),
                  (surd._root_sign, (near(_mpq(v) * mpmath.sqrt(d)), v, d), False),
                  # u^2 = v^2 d at a perfect-square d
                  (surd._root_sign, (-v * k, v, k * k), True),
                  (surd._root_sign, (1 - v * k, v, k * k), False),
                  # v counts only when d > 0
                  (surd._root_sign, (u, v, 0), u == 0),
                  (surd._root_sign, (0, v, 0), True)]
        b1, b2 = _number(rng, kind) or 1, _number(rng, kind) or 1
        d1, d2, k1, k2 = _radicand(rng), _radicand(rng), rng.randint(1, 999), rng.randint(1, 999)
        rest = -(b1 * k1 + b2 * k2)
        cases += [(surd._mixed_sign, (u, b1, d1, b2, d2), False),
                  (surd._mixed_sign, (near(_mpq(b1) * mpmath.sqrt(d1) + _mpq(b2) * mpmath.sqrt(d2)),
                                      b1, d1, b2, d2), False),
                  # the radicals cancel over k1^2 d1 and k2^2 d1, alone or with r
                  (surd._mixed_sign, (0, b1 * k2, k1 * k1 * d1, -b1 * k1, k2 * k2 * d1), True),
                  (surd._mixed_sign, (u, b1 * k2, k1 * k1 * d1, -b1 * k1, k2 * k2 * d1), u == 0),
                  (surd._mixed_sign, (rest, b1, k1 * k1, b2, k2 * k2), True),
                  (surd._mixed_sign, (rest + 1, b1, k1 * k1, b2, k2 * k2), False),
                  (surd._mixed_sign, (-b1 * k1, b1, k1 * k1, b2, 0), True)]
    return cases


def _form_cases(rng):
    """(_form_sign, (u, v), exact zero) for forms (P, Q, D, S) of one or two
    radicands or none, equal values written twice, and rational near misses.
    """
    cases = []
    for _ in range(150):
        d, k = _radicand(rng), rng.randint(2, 999)
        f = (_number(rng, int), _number(rng, int) or 1, d, rng.randint(1, 999))
        g = (_number(rng, int), _number(rng, int) or 1, _radicand(rng), rng.randint(1, 999))
        p, q, _, s = f
        rational = (_number(rng, int), 0, 0, rng.randint(1, 999))
        # within 3/2 10^-30 of f, and off it also for a perfect-square d
        near = (int(mpmath.nint((p + q * mpmath.sqrt(d)) * 10**30)) + rng.choice((-1, 1)),
                0, 0, s * 10**30)
        for u, v, zero in ((f, g, False), (f, rational, False), (rational, f, False),
                           (f, near, False), (near, f, False),
                           (f, (p * k, q * k, d, s * k), True), (f, (2 * p, q, 4 * d, 2 * s), True),
                           (rational, (rational[0] * k, 0, 0, rational[3] * k), True)):
            cases.append((surd._form_sign, (u, v), zero))
    return cases


def _form_value(form) -> mpmath.mpf:
    p, q, d, s = form
    return (p + q * mpmath.sqrt(d)) / s


def test_sign_kernels_match_mpmath():
    rng = random.Random(23)
    with mpmath.workdps(60):
        cases = _kernel_cases(rng, int) + _kernel_cases(rng, Fraction) + _form_cases(rng)
        signs = set()
        for kernel, args, zero in cases:
            if kernel is surd._form_sign:
                value = _form_value(args[0]) - _form_value(args[1])
            elif kernel is surd._root_sign:
                u, v, d = args
                value = _mpq(u) + _mpq(v) * mpmath.sqrt(d) * (d > 0)
            else:
                r, b1, d1, b2, d2 = args
                value = _mpq(r) + _mpq(b1) * mpmath.sqrt(d1) + _mpq(b2) * mpmath.sqrt(d2)
            if zero:
                assert abs(value) < mpmath.mpf(10) ** -40, (kernel.__name__, args)
            else:
                assert abs(value) > mpmath.mpf(10) ** -40, (kernel.__name__, args)
            got = kernel(*args)
            assert got == (0 if zero else int(mpmath.sign(value))), (kernel.__name__, args)
            signs.add((kernel.__name__, got))
    assert len(signs) == 9
