"""Central charges, hearts, exact phases, stability tests, kernels."""

import math
import random
from fractions import Fraction

import pytest

from stabscope.corekit import AffPt, CharVec
from stabscope.exceptional import DyadicLabel, ExcBundle
from stabscope.geometric import (GeneralCharge, GLElement, HeartPos,
                                 KernelPoint, Phase, PhaseOrder, RatComplex,
                                 ShiftedChar, SQCharge, StabResult,
                                 exc_stable_at, heart_position, kernel_point,
                                 normalize_charge, phase, phase_less, z_eval)

O = CharVec(1, 0, 0)
O1 = CharVec(1, 1, Fraction(1, 2))
O2 = CharVec(1, 2, 2)
SKY = CharVec(0, 0, 1)


def sq(s, q, depth=None) -> SQCharge:
    if depth is None:
        return SQCharge(Fraction(s), Fraction(q))
    return SQCharge.at(Fraction(s), Fraction(q), depth)


def test_ratcomplex_arithmetic():
    z = RatComplex(Fraction(-1, 2), Fraction(1, 2))
    w = RatComplex(1, 1)
    assert z + w == RatComplex(Fraction(1, 2), Fraction(3, 2))
    assert z * w == RatComplex(-1, 0)
    assert 3 * z == RatComplex(Fraction(-3, 2), Fraction(3, 2))
    assert (z - z).is_zero()
    assert str(z) == "-1/2+1/2i"
    assert abs(z.approx() - complex(-0.5, 0.5)) < 1e-12


def test_sqcharge_region_gate():
    assert sq("1/2", 0, 4).point == AffPt(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        sq(0, -2, 4)


def test_z_eval_examples():
    for s, q in [(0, 0), ("1/2", 0), (-3, "1/7")]:
        assert z_eval(sq(s, q), SKY) == RatComplex(-1, 0)
    assert z_eval(sq("1/2", 0), O1) == RatComplex(Fraction(-1, 2),
                                                  Fraction(1, 2))
    assert z_eval(sq(0, 0), O).is_zero()


def test_z_eval_kernel_characterization():
    rng = random.Random(3)
    Z = sq("1/2", "1/4")
    kernel = CharVec(1, Fraction(1, 2), Fraction(1, 4))
    for _ in range(50):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c != 0:
            assert z_eval(Z, kernel.scale(c)).is_zero()
        v = CharVec(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(3)))
        if z_eval(Z, v).is_zero() and not v.is_zero():
            assert v.ch1 * kernel.ch0 == v.ch0 * kernel.ch1
            assert v.ch2 * kernel.ch0 == v.ch0 * kernel.ch2


def test_general_charge_matches_sq_form():
    Z = sq("1/2", 0)
    G = Z.as_general()
    for v in (O, O1, O2, SKY, CharVec(2, -1, Fraction(5, 3))):
        assert z_eval(Z, v) == z_eval(G, v)
    H = GeneralCharge.from_ab(RatComplex(0, 1), RatComplex(0, Fraction(-1, 2)))
    for v in (O, O1, SKY):
        assert z_eval(H, v) == z_eval(Z, v)


def test_heart_position():
    assert heart_position(Fraction(1, 2), ExcBundle.of("1")) is HeartPos.IN_HEART
    assert heart_position(Fraction(1, 2),
                          ExcBundle.of("0")) is HeartPos.NEEDS_SHIFT_ONE
    assert heart_position(Fraction(7), SKY,
                          declared_sheaf=True) is HeartPos.TORSION
    with pytest.raises(ValueError):
        heart_position(Fraction(1, 2), O1)
    with pytest.raises(ValueError):
        heart_position(0, CharVec(-1, 0, 0), declared_sheaf=True)
    with pytest.raises(ValueError):
        heart_position(0, CharVec(0, 0, 0), declared_sheaf=True)


def test_phase_representation():
    up = Phase(0, 1, 0)
    assert up.exact_value() == Fraction(1, 2)
    left = Phase(-1, 0, 0)
    assert left.exact_value() == 1
    assert Phase(-1, 1, 0).exact_value() == Fraction(3, 4)
    assert Phase(1, 1, 0).exact_value() == Fraction(1, 4)
    assert Phase(2, 3, 0).exact_value() is None
    assert up < left
    assert up.shifted(1) > left
    # Phase defines < and <=; > and >= are their reflections
    assert left > up and left >= up and left >= left and not up >= left
    assert Phase(2, 6, 0) == Phase(1, 3, 0)
    with pytest.raises(ValueError):
        Phase(1, -1, 0)
    assert abs(Phase(-1, 1, 2).approx() - 2.75) < 1e-12
    # a quarter-turn value prints exactly, any other approximated
    assert str(Phase(-1, 1, 2)) == "11/4" and str(Phase(2, 3, 0)) == "~0.312833"


def test_phase_examples():
    Z = sq("1/2", 0, 4)
    sky = ShiftedChar(SKY)
    assert phase(Z, sky).exact_value() == 1
    o1 = ShiftedChar(O1)
    assert phase(Z, o1).exact_value() == Fraction(3, 4)
    o_shift = ShiftedChar(O, 1)
    assert phase(Z, o_shift).exact_value() == Fraction(1, 2)


def test_phase_error_cases():
    Z = sq("1/2", 0, 4)
    with pytest.raises(ValueError, match="kernel"):
        phase(sq(0, 0), ShiftedChar(O))
    with pytest.raises(ValueError, match="shift"):
        phase(Z, ShiftedChar(O, 0))
    with pytest.raises(ValueError, match="shift"):
        phase(Z, ShiftedChar(O1, 1))


def test_phase_less_examples():
    Z = sq("1/2", 0, 4)
    assert phase_less(Z, ShiftedChar(O, 1),
                      ShiftedChar(O1)) is PhaseOrder.LESS
    assert phase_less(Z, ShiftedChar(O1),
                      ShiftedChar(O1)) is PhaseOrder.EQUAL
    assert phase_less(Z, ShiftedChar(SKY),
                      ShiftedChar(O2)) is PhaseOrder.GREATER


def test_phase_less_rescaling_invariance():
    Z = sq("1/2", 0, 4)
    rng = random.Random(5)
    classes = [O, O1, O2, SKY, CharVec(2, 3, Fraction(3, 2))]
    for _ in range(40):
        a = rng.choice(classes)
        b = rng.choice(classes)
        xa = ShiftedChar(a, 0 if heart_position(Z.s, a, declared_sheaf=True)
                         is HeartPos.IN_HEART or a.ch0 == 0 else 1)
        xb = ShiftedChar(b, 0 if heart_position(Z.s, b, declared_sheaf=True)
                         is HeartPos.IN_HEART or b.ch0 == 0 else 1)
        base = phase_less(Z, xa, xb)
        c = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        xa2 = ShiftedChar(a.scale(c), xa.shift)
        assert phase_less(Z, xa2, xb) is base


def test_phase_less_matches_ray_comparison():
    # For unshifted classes in the heart, phase order at (s,q) matches the
    # angular order of the rays from the kernel point to the projections,
    # each ray folded into the right half-plane.
    Z = sq("1/2", 0, 4)
    classes = [O1, O2, CharVec(2, 3, Fraction(3, 2)), CharVec(1, 1, -1)]

    def angle(v):
        dx, dy = v.proj().x - Z.s, v.proj().y - Z.q
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        return math.atan2(dy, dx)

    for a in classes:
        for b in classes:
            order = phase_less(Z, ShiftedChar(a), ShiftedChar(b))
            gap = angle(a) - angle(b)
            # far enough apart that the floats decide the order exactly
            assert a is b or abs(gap) > 1e-9, (a, b)
            assert order.value == (gap > 0) - (gap < 0), (a, b)


def test_exc_stable_examples():
    P = AffPt(Fraction(1, 2), 0)
    assert exc_stable_at(ExcBundle.of("0"), P, 2) is StabResult.STABLE_SHIFTED
    assert exc_stable_at(ExcBundle.of("1"), P, 2) is StabResult.STABLE_UNSHIFTED
    P2 = AffPt(Fraction(1, 10), Fraction(-2, 5))
    assert exc_stable_at(ExcBundle.of("0"), P2, 2) is StabResult.STABLE_SHIFTED
    with pytest.raises(ValueError):
        exc_stable_at(ExcBundle.of("0"), AffPt(0, -2), 2)


def test_exc_stable_not_stable_case():
    # The open segment from the rank-one vertex (0,0) to this point crosses
    # the vertical exclusion at slope 1 inside its y-range.
    P = AffPt(Fraction(9, 8), Fraction(-3, 20))
    assert exc_stable_at(ExcBundle.of("0"), P, 2) is StabResult.NOT_STABLE
    assert exc_stable_at(ExcBundle.of("1"), P, 2) is StabResult.STABLE_SHIFTED


def test_exc_stable_refuses_its_own_exclusion_below_its_depth():
    # (1/2, -5/16) lies on the exclusion of label 1/2, which depth 0 cannot see
    E, P = ExcBundle.of("1/2"), AffPt(Fraction(1, 2), Fraction(-5, 16))
    for depth in (0, 1, 2):
        with pytest.raises(ValueError, match="geometric region"):
            exc_stable_at(E, P, depth)


def test_exc_stable_twist_equivariance():
    rng = random.Random(9)
    labels = ["0", "1", "1/2", "-1/2", "3/4"]
    for _ in range(25):
        E = ExcBundle.of(rng.choice(labels))
        x = Fraction(rng.randint(-8, 8), 8)
        y = Fraction(rng.randint(-8, 16), 8)
        P = AffPt(x, y)
        from stabscope.lepotier import RegionClass, classify_point
        if classify_point(P, 4) is not RegionClass.GEO_LP:
            continue
        shifted = AffPt(x + 1, y + x + Fraction(1, 2))
        E2 = ExcBundle.of(E.label.shift(1))
        assert classify_point(shifted, 4) is RegionClass.GEO_LP
        assert exc_stable_at(E, P, 4) is exc_stable_at(E2, shifted, 4)


def test_kernel_point_examples():
    Z = sq("1/2", 0).as_general()
    k = kernel_point(Z)
    assert k.is_finite
    assert k.point() == AffPt(Fraction(1, 2), 0)
    rot = GLElement.rotation(Fraction(3, 5), Fraction(4, 5))
    assert kernel_point(rot.act_charge(Z)).point() == AffPt(Fraction(1, 2), 0)
    with pytest.raises(ValueError, match="degenerate"):
        kernel_point(GeneralCharge.from_ab(RatComplex(1, 0), RatComplex(0, 0)))


def test_kernel_point_at_infinity():
    # A charge annihilating only rank-zero classes has its kernel point on
    # the line at infinity.
    Z = GeneralCharge(RatComplex(1, 0), RatComplex(0, 1), RatComplex(0, 1))
    k = kernel_point(Z)
    assert not k.is_finite
    assert k.gen == CharVec(0, 1, -1)
    with pytest.raises(ValueError):
        k.point()


def test_glelement_validation():
    with pytest.raises(ValueError):
        GLElement(1, 0, 0, -1)
    with pytest.raises(ValueError):
        GLElement.rotation(Fraction(1, 2), Fraction(1, 2))
    g = GLElement.rotation(Fraction(3, 5), Fraction(4, 5))
    assert g.det == 1


def test_normalize_charge_examples():
    Z = sq("1/2", 0).as_general()
    got = normalize_charge(Z, 4)
    assert got is not None
    s, q, g = got
    assert (s, q) == (Fraction(1, 2), Fraction(0))
    assert g == GLElement.identity()

    rot = GLElement.rotation(Fraction(3, 5), Fraction(4, 5))
    got = normalize_charge(rot.act_charge(Z), 4)
    assert got is not None
    s, q, g = got
    assert (s, q) == (Fraction(1, 2), Fraction(0))
    assert (g.a, g.b, g.c, g.d) == (Fraction(3, 5), Fraction(-4, 5),
                                    Fraction(4, 5), Fraction(3, 5))

    below = GeneralCharge.from_ab(RatComplex(0, 1), RatComplex(-3, 0))
    assert kernel_point(below).point() == AffPt(0, -3)
    assert normalize_charge(below, 4) is None


def test_normalize_charge_refuses_the_mirror_image():
    Z = sq("1/2", 0).as_general()
    mirror = GeneralCharge(*(RatComplex(w.re, -w.im) for w in (Z.w0, Z.w1, Z.w2)))
    # the same kernel point, inside the region, but orientation -1
    assert kernel_point(mirror) == kernel_point(Z)
    assert mirror.w1.re * mirror.w2.im - mirror.w1.im * mirror.w2.re == -1
    assert normalize_charge(mirror, 4) is None


def random_gl(rng: random.Random) -> GLElement:
    while True:
        entries = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for _ in range(4)]
        a, b, c, d = entries
        if a * d - b * c > 0:
            return GLElement(a, b, c, d)


def test_normalize_charge_recovers_random_orbits():
    rng = random.Random(17)
    base_points = [(Fraction(1, 2), Fraction(0)),
                   (Fraction(0), Fraction(1, 4)),
                   (Fraction(-3, 2), Fraction(5, 4))]
    for _ in range(100):
        s0, q0 = base_points[rng.randrange(len(base_points))]
        Z = SQCharge(s0, q0).as_general()
        g = random_gl(rng)
        got = normalize_charge(g.act_charge(Z), 6)
        assert got is not None
        s, q, h = got
        assert (s, q) == (s0, q0)
        assert (h.a, h.b, h.c, h.d) == (g.a, g.b, g.c, g.d)


def test_normalize_charge_rejects_reversed_orientation():
    Z = sq("1/2", 0).as_general()
    flipped = GeneralCharge(
        RatComplex(Z.w0.re, -Z.w0.im),
        RatComplex(Z.w1.re, -Z.w1.im),
        RatComplex(Z.w2.re, -Z.w2.im),
    )
    assert kernel_point(flipped).point() == AffPt(Fraction(1, 2), 0)
    assert normalize_charge(flipped, 4) is None
