"""Hand values for the Drezet-Le Potier oracle the benchmark checks against."""

from fractions import Fraction as F

import oracle


def test_exceptional_slopes():
    assert oracle.slope(F(0)) == 0 and oracle.slope(F(-3)) == -3
    assert oracle.slope(F(1, 2)) == F(1, 2)
    assert oracle.slope(F(1, 4)) == F(2, 5)
    assert oracle.slope(F(3, 4)) == F(3, 5)
    assert oracle.slope(F(5, 2)) == F(5, 2)


def test_characters_and_discriminant():
    assert oracle.char(F(3, 2)) == (2, 3, F(3, 2))
    assert oracle.char(F(1, 4)) == (5, 2, -2)
    assert oracle.disc(F(2, 5)) == F(12, 25)


def test_tent_half_width_of_a_line_bundle():
    # x_0 = (3 - sqrt 5)/2 = 0.3819660...
    assert oracle.covers(F(0), F(3819660, 10 ** 7))
    assert not oracle.covers(F(0), F(3819661, 10 ** 7))
    assert oracle.covers(F(0), -F(3819660, 10 ** 7))
    assert oracle.tent_delta(F(0), F(0)) == 1


def test_verdicts():
    assert oracle.classify(F(1, 2), F(0), 4) == oracle.GEO_LP
    assert oracle.classify(F(0), F(-1, 2), 0) == oracle.ON_EXCLUSION
    assert oracle.classify(F(0), F(-2), 0) == oracle.BELOW_CURVE
    assert oracle.dlp(F(5), F(2), F(-2), 3) == "YesExceptional"
    assert oracle.dlp(F(1), F(0), F(-1), 8) == "Yes"
    assert oracle.dlp(F(1), F(0), F(0), 8) == "YesExceptional"
    assert oracle.dlp(F(2), F(0), F(-1), 8) == "No"


def test_gap_point_and_safe_threshold():
    a, b = oracle.slope(F(0)), oracle.slope(F(1, 8))
    x = oracle.gap_point(a, b, F(1, 2))
    assert oracle.gap_at(x, 3) == (a, b)
    # the smallest rank at depth 1 is 2, at depth 2 it is 5
    assert oracle.safe_delta(0) == F(3, 8)
    assert oracle.safe_delta(1) == F(12, 25)
