"""Independent oracle from the Drezet-Le Potier closed forms.

Nothing here imports the program under test.  Exceptional slopes come
from the dyadic recursion

    eps(n) = n,   eps((2p+1)/2^(q+1)) = eps(p/2^q) . eps((p+1)/2^q),
    a . b  = (a + b)/2 + (D_b - D_a)/(3 + a - b),

where the rank r of an exceptional slope a is its denominator and
D_a = (1 - 1/r^2)/2 is its discriminant.  The tent of a covers the
slopes |mu - a| <= x_a with x_a = (3 - sqrt(9 r^2 - 4)/r)/2, and on it
the boundary discriminant is delta_a(mu) = P(-|mu - a|) - D_a with
P(x) = x^2/2 + 3x/2 + 1.  The exclusion of a runs from D_a to
D_a + 1/r^2 at slope a.  Every test below is exact rational arithmetic.

The verdict functions mirror a depth budget: only labels p/2^m with
m <= depth are known, which is the contract the program states for its
``depth`` argument.
"""

from __future__ import annotations

import math
from fractions import Fraction

HALF = Fraction(1, 2)

GEO_LP = "GeoLP"
ON_EXCLUSION = "OnExclusion"
ON_CURVE = "OnCurve"
BELOW_CURVE = "BelowCurve"
UNKNOWN = "Unknown"


def disc(alpha: Fraction) -> Fraction:
    """D_alpha, the discriminant of the exceptional bundle of slope alpha."""
    r = alpha.denominator
    return HALF * (1 - Fraction(1, r * r))


def dot(a: Fraction, b: Fraction) -> Fraction:
    """The slope between two adjacent exceptional slopes a < b."""
    return (a + b) / 2 + (disc(b) - disc(a)) / (3 + a - b)


def slope(label: Fraction) -> Fraction:
    """eps(label) for a dyadic label, by an iterative descent from its cell."""
    label = Fraction(label)
    den = label.denominator
    if den & (den - 1):
        raise ValueError(f"not a dyadic label: {label}")
    n = math.floor(label)
    lo, hi = Fraction(n), Fraction(n + 1)
    a, b = lo, hi
    while lo != label:
        mid = (lo + hi) / 2
        m = dot(a, b)
        if label < mid:
            hi, b = mid, m
        else:
            lo, a = mid, m
    return a


def char(label: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The character (ch0, ch1, ch2) of the exceptional bundle at a label."""
    alpha = slope(label)
    r = alpha.denominator
    return Fraction(r), r * alpha, r * (alpha * alpha / 2 - disc(alpha))


def covers(alpha: Fraction, mu: Fraction) -> bool:
    """Whether the closed tent of alpha contains slope mu."""
    t = abs(mu - alpha)
    r = alpha.denominator
    s = 3 - 2 * t
    return s >= 0 and s * s >= 9 - Fraction(4, r * r)


def tent_delta(alpha: Fraction, mu: Fraction) -> Fraction:
    """Boundary discriminant delta_alpha(mu) on the tent of alpha."""
    t = abs(mu - alpha)
    return t * t / 2 - 3 * t / 2 + 1 - disc(alpha)


def locate(mu: Fraction, depth: int):
    """Slope of the label of depth <= depth whose tent covers mu, or None.

    Tents are disjoint and ordered like their labels, so the covering
    tent is found by bisection down the dyadic tree: O(depth) steps.
    """
    n = math.floor(mu)
    a, b = Fraction(n), Fraction(n + 1)
    for alpha in (a, b):
        if covers(alpha, mu):
            return alpha
    for _ in range(depth):
        m = dot(a, b)
        if covers(m, mu):
            return m
        if mu < m:
            b = m
        else:
            a = m
    return None


def gap_at(mu: Fraction, depth: int):
    """The adjacent exceptional slopes of depth <= depth around an uncovered mu.

    Returns (a, b) with mu strictly inside the gap between the tents of
    a and b, or None when a tent of depth <= depth covers mu.
    """
    n = math.floor(mu)
    a, b = Fraction(n), Fraction(n + 1)
    if covers(a, mu) or covers(b, mu):
        return None
    for _ in range(depth):
        m = dot(a, b)
        if covers(m, mu):
            return None
        if mu < m:
            b = m
        else:
            a = m
    return a, b


def gap_point(a: Fraction, b: Fraction, u: Fraction) -> Fraction:
    """A rational slope strictly inside the gap between the tents of a < b.

    The tent ends are bracketed by integer square roots at 2^-200, and
    the point at share u of the bracketed gap is rounded to the simplest
    nearby rational that still lies inside the bracket.
    """
    scale = 1 << 200

    def half_width_bounds(alpha):
        r = alpha.denominator
        q = math.isqrt((9 * r * r - 4) * scale * scale)   # q <= sqrt(..) * scale < q + 1
        return (3 - Fraction(q + 1, scale * r)) / 2, (3 - Fraction(q, scale * r)) / 2

    lo = a + half_width_bounds(a)[1]
    hi = b - half_width_bounds(b)[1]
    if lo >= hi:
        raise ValueError("tents of a and b are not separated")
    target = lo + (hi - lo) * u
    den = 10
    while True:
        x = target.limit_denominator(den)
        if lo < x < hi:
            return x
        den *= 10


def classify(x: Fraction, y: Fraction, depth: int) -> str:
    """Region class of the plane point (x, y) = (ch1/ch0, ch2/ch0)."""
    d = x * x / 2 - y
    alpha = locate(x, depth)
    if d < HALF:
        if alpha == x and disc(alpha) <= d <= disc(alpha) + Fraction(1, x.denominator ** 2):
            return ON_EXCLUSION
        return GEO_LP
    if d > 1:
        return BELOW_CURVE
    if alpha is None:
        return UNKNOWN
    bound = tent_delta(alpha, x)
    if d == bound:
        return ON_CURVE
    if d > bound:
        return BELOW_CURVE
    return ON_EXCLUSION if alpha == x else GEO_LP


def dlp(ch0: Fraction, ch1: Fraction, ch2: Fraction, depth: int) -> str:
    """Existence verdict for a semistable sheaf of positive rank ch0."""
    x, y = ch1 / ch0, ch2 / ch0
    alpha = locate(x, depth)
    if alpha == x and x * x / 2 - y == disc(alpha):
        return "YesExceptional"
    cls = classify(x, y, depth)
    if cls in (BELOW_CURVE, ON_CURVE):
        return "Yes"
    if cls == UNKNOWN:
        return "Unknown"
    return "No"


def labels(lo: int, hi: int, depth: int) -> list[Fraction]:
    """Every dyadic label in [lo, hi] of depth at most depth, sorted."""
    den = 1 << depth
    return [Fraction(k, den) for k in range(lo * den, hi * den + 1)]


def safe_delta(depth: int) -> Fraction:
    """Discriminant below which no exclusion of depth > depth can be met.

    It is D of the smallest rank among the labels of depth depth + 1.
    """
    den = 1 << (depth + 1)
    rank = min(slope(Fraction(k, den)).denominator for k in range(1, den, 2))
    return disc(Fraction(1, rank))
