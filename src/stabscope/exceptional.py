"""Exceptional bundle characters indexed by dyadic rationals.

Integer labels carry the line bundle characters (1, n, n^2/2).  A label
p/2^m with odd p is filled in from its two half-depth neighbours by a
three-term recursion; each resulting character c satisfies the
exceptionality identity euler_chi(c, c) = 1 and the closed-form
discriminant (1/2)(1 - 1/ch0^2).  Rank and degree are coprime, so a
slope c/r in lowest terms can only be the slope of a label of rank r,
and the search for it stops there, with no depth budget: each step at
least doubles the rank, so it ends within r.bit_length() steps.  Ranks
above MAX_RANK_BITS bits are refused.  The parabola contact points of
each label are the closed form of Drezet and Le Potier.  The labels of
bounded depth over a slope window are listed here too, for the curve
listing and the walls verb's bundle pool.

Each cached character is held in two forms: the integers (r, c, e) =
(ch0, ch1, 2 ch2), which are integral since chi(O, E) = r + 3c/2 + ch2
is, built when its entry is added, and the CharVec, built when char_of
or ExcBundle.of first asks for it.  This cache and those of the curve
nodes are keyed by the label's integers (p, m), not by the label.  The
recursion, the slope search and the segment walk run on the integers,
and the checks of bundles and triples use the one integer pairing
corekit._chi2, which is twice euler_chi, and det3 of the integer
triples, which is twice det3 of the characters.

A standard triple is recognised by its base p/2^m, p odd, m >= 1: over 2^m
its two partners' numerators, p +- 1 and p +- 1 -+ 3*2^m, are even, so the
base is the one deepest label, and its position (first, middle or last)
names the pattern (right-extended, adjacent or left-extended).  If all
three labels are integers, the middle one is the base of an adjacent triple.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction

from .corekit import AffPt, CharVec, _chi2, _record, det3, slope
from .surd import QuadReal, parse_rational

class DyadicLabel:
    """An index p / 2^m, stored in lowest terms (m == 0 or p odd)."""

    __slots__ = ("p", "m")

    def __init__(self, p: int, m: int = 0):
        if m < 0:
            raise ValueError("negative dyadic depth")
        # shift out the trailing zeros of p, at most m, in one step: a
        # search near an integer n meets the labels n*2^m of every depth m
        if m > 0 and not p & 1:
            k = (p & -p).bit_length() - 1 if p else m
            if k > m:
                k = m
            p, m = p >> k, m - k
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicLabel is immutable")

    @classmethod
    def from_value(cls, value: Fraction | int) -> "DyadicLabel":
        value = Fraction(value)
        den = value.denominator
        m = den.bit_length() - 1
        if 1 << m != den:
            raise ValueError(f"not a dyadic rational: {value}")
        return cls(value.numerator, m)

    @classmethod
    def parse(cls, text: str) -> "DyadicLabel":
        return cls.from_value(parse_rational(text))

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, 1 << self.m)

    def shift(self, k: int) -> "DyadicLabel":
        return DyadicLabel(self.p + k * (1 << self.m), self.m)

    def left_neighbor(self) -> "DyadicLabel":
        return DyadicLabel(self.p - 1, self.m)

    def right_neighbor(self) -> "DyadicLabel":
        return DyadicLabel(self.p + 1, self.m)

    def __eq__(self, other):
        return isinstance(other, DyadicLabel) and self.p == other.p and self.m == other.m

    # p/2^m < q/2^n exactly when p*2^n < q*2^m
    def __lt__(self, other: "DyadicLabel") -> bool:
        return self.p << other.m < other.p << self.m

    def __le__(self, other: "DyadicLabel") -> bool:
        return self.p << other.m <= other.p << self.m

    def __hash__(self):
        return hash((self.p, self.m))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"DyadicLabel({self})"


# most labels one listing may enumerate, for a curve window or a walls pool
_MAX_LABELS = 1 << 14


def _labels_between(lo: Fraction, hi: Fraction, depth: int) -> list[DyadicLabel]:
    """All canonical labels of depth at most depth in [floor(lo), ceil(hi)].

    A label's tent lies inside its unit cell, within the distance
    (3 - sqrt(5))/2 of an integer label's slope, so these labels reach
    every tent that meets [lo, hi]; walls takes them as its bundle pool.
    """
    lo, hi = math.floor(lo), math.ceil(hi)
    # there are (hi - lo) * 2^depth + 1 of them, so deeper levels than
    # these either break the cap or, when lo == hi, hold no label
    levels = min(depth, _MAX_LABELS.bit_length())
    if (hi - lo) << levels >= _MAX_LABELS:
        raise ValueError(f"more than {_MAX_LABELS} labels in [{lo}, {hi}] at depth {depth}")
    out = [DyadicLabel(n) for n in range(lo, hi + 1)]
    for m in range(1, levels + 1):
        step = 1 << m
        out.extend(DyadicLabel(p, m) for p in range(lo * step + 1, hi * step, 2))
    return out


# a rank of more bits no longer prints as decimal text (Python's default
# limit of 4300 digits is about 14 300 bits)
MAX_RANK_BITS = 1 << 14

# entries kept by each cache of this module, lepotier and algebraic; char_of's
# dict drops its older half when a lookup misses with this many entries in it
CACHE_SIZE = 1 << 12

# characters computed so far, by the label's integers (p, m): the integers (r, c,
# e = 2 ch2) and the CharVec (r, c, e/2), or None until char_of first asks for it
_CHARS: dict[tuple[int, int], list] = {}


def _recurrence_terms(label: DyadicLabel) -> tuple[DyadicLabel, DyadicLabel, DyadicLabel]:
    """The helper, base and far labels whose characters give this one's."""
    p, m = label.p, label.m
    if p % 4 == 3:
        return DyadicLabel(p + 1, m), DyadicLabel(p - 1, m), DyadicLabel(p - 3, m)
    return DyadicLabel(p - 1, m), DyadicLabel(p + 1, m), DyadicLabel(p + 3, m)


def char_of(label: DyadicLabel) -> CharVec:
    """The character of the exceptional bundle at a dyadic label.

    A non-integer label's character is 3 * rank(helper) * base - far
    over three labels of smaller depth, computed on the integer
    characters (r, c, 2 ch2); an integer label n has (1, n, n^2).  Terms
    not yet cached are resolved with an explicit stack, so a label may
    be deeper than the interpreter's recursion limit.  The cache drops
    its older half, in insertion order, when it has CACHE_SIZE entries
    and misses, so it holds at most that many plus the ancestors of one
    label, and a search deeper than CACHE_SIZE keeps the recent labels
    its next step reads.  A rank above MAX_RANK_BITS bits raises
    ValueError.
    """
    entry = _CHARS.get((label.p, label.m)) or _fill(label)
    if entry[1] is None:
        r, c, e = entry[0]
        entry[1] = CharVec(r, c, Fraction(e, 2))
    return entry[1]


def _int_char(label: DyadicLabel) -> tuple[int, int, int]:
    """The integer character (ch0, ch1, 2 ch2) of a label."""
    return (_CHARS.get((label.p, label.m)) or _fill(label))[0]


def _fill(label: DyadicLabel) -> list:
    """Compute and cache the integer characters of a label missing from the cache."""
    if len(_CHARS) >= CACHE_SIZE:
        for old in list(_CHARS)[:CACHE_SIZE // 2]:
            del _CHARS[old]
    stack = [label]
    while stack:
        lbl = stack[-1]
        if (lbl.p, lbl.m) in _CHARS:
            stack.pop()
            continue
        if lbl.m == 0:
            v = (1, lbl.p, lbl.p * lbl.p)
        else:
            terms = _recurrence_terms(lbl)
            missing = [t for t in terms if (t.p, t.m) not in _CHARS]
            if missing:
                stack.extend(missing)
                continue
            helper, base, far = (_CHARS[t.p, t.m][0] for t in terms)
            k = 3 * helper[0]
            v = tuple(k * b - f for b, f in zip(base, far))
            if v[0].bit_length() > MAX_RANK_BITS:
                raise ValueError(f"rank at label {lbl} exceeds {MAX_RANK_BITS} bits")
        _CHARS[lbl.p, lbl.m] = [v, None]
        stack.pop()
    return _CHARS[label.p, label.m]


def twist(label: DyadicLabel, k: int) -> CharVec:
    """Character after tensoring by the k-th power line bundle."""
    c = char_of(label)
    return CharVec(c.ch0,
                   c.ch1 + k * c.ch0,
                   c.ch2 + k * c.ch1 + Fraction(k * k, 2) * c.ch0)


@_record
class ExcBundle:
    """A label together with its character; invariants checked on build."""

    label: DyadicLabel
    char: CharVec

    @classmethod
    def of(cls, label: DyadicLabel | int | str | Fraction) -> "ExcBundle":
        if isinstance(label, str):
            label = DyadicLabel.parse(label)
        elif not isinstance(label, DyadicLabel):
            label = DyadicLabel.from_value(label)
        c, v = char_of(label), _int_char(label)
        assert v[0] > 0, "exceptional rank must be positive"
        assert _chi2(v, v) == 2, "exceptionality pairing failed"
        return cls(label, c)

    def __hash__(self):
        # equal bundles share a label; hashing the character's fractions
        # would cost more than the rest of a cache lookup keyed by a triple
        return hash(self.label)

    @property
    def rank(self) -> Fraction:
        return self.char.ch0

    @property
    def slope(self) -> Fraction:
        return slope(self.char)


def _label_cache(f):
    """f(label), cached by the label's integers (p, m), so a lookup hashes
    no DyadicLabel; on a miss f gets the label anew."""
    at = functools.lru_cache(maxsize=CACHE_SIZE)(lambda p, m: f(DyadicLabel(p, m)))
    cached = functools.wraps(f)(lambda label: at(label.p, label.m))
    cached.cache_info, cached.cache_clear = at.cache_info, at.cache_clear
    return cached


@_label_cache
def eplus(label: DyadicLabel) -> AffPt:
    """The point one rank-squared unit below the projected character."""
    r, c, e = _int_char(label)
    return AffPt(Fraction(c, r), Fraction(e * r - 2, 2 * r * r))


def _contact_form(r: int, c: int, side: int) -> tuple[int, int, int, int]:
    """The slope (P + Q sqrt(D))/S, S > 0, of the tent's contact with y = x^2/2 - 1/2.

    For the label of rank r and degree c it is c/r + side (3 - sqrt(9 - 4/r^2))/2
    (Drezet-Le Potier), where the chord from the apex towards the neighbour,
    of slope c/r + side 3/2, meets the parabola.
    """
    return 2 * c + 3 * side * r, -side, 9 * r * r - 4, 2 * r


def _contact(label: DyadicLabel, side: int) -> AffPt:
    """The contact point; for x = a + b sqrt(d), y = (x^2 - 1)/2 is
    (P^2 + Q^2 D - S^2)/(2 S^2) + a b sqrt(d)."""
    p, q, d, s = _contact_form(*_int_char(label)[:2], side)
    x = QuadReal(Fraction(p, s), Fraction(q, s), d)
    return AffPt(x, QuadReal._over(Fraction(p * p + q * q * d - s * s, 2 * s * s), x.a * x.b, x.d))


@_label_cache
def el(label: DyadicLabel) -> AffPt:
    """Contact point on the discriminant-1/2 parabola toward the left neighbour."""
    return _contact(label, -1)


@_label_cache
def er(label: DyadicLabel) -> AffPt:
    """Contact point on the discriminant-1/2 parabola toward the right neighbour."""
    return _contact(label, 1)


class TriplePattern(enum.Enum):
    ADJACENT = "adjacent"
    RIGHT_EXTENDED = "right-extended"
    LEFT_EXTENDED = "left-extended"


def _pattern_ints(pattern: TriplePattern, p: int, m: int) -> tuple[int, int, int]:
    """The numerators over 2^m of the pattern's three labels at the base p/2^m."""
    if pattern is TriplePattern.ADJACENT:
        return p - 1, p, p + 1
    if pattern is TriplePattern.RIGHT_EXTENDED:
        return p, p + 1, p - 1 + (3 << m)
    return p + 1 - (3 << m), p - 1, p


def _pattern_labels(pattern: TriplePattern, base: DyadicLabel) -> tuple[DyadicLabel, DyadicLabel, DyadicLabel]:
    return tuple(DyadicLabel(q, base.m) for q in _pattern_ints(pattern, base.p, base.m))


@_record
class ExcTriple:
    """Three exceptional bundles in one of the standard label patterns."""

    E1: ExcBundle
    E2: ExcBundle
    E3: ExcBundle
    pattern: TriplePattern
    base: DyadicLabel

    @property
    def labels(self) -> tuple[DyadicLabel, DyadicLabel, DyadicLabel]:
        return (self.E1.label, self.E2.label, self.E3.label)

    @property
    def chars(self) -> tuple[CharVec, CharVec, CharVec]:
        return (self.E1.char, self.E2.char, self.E3.char)


def triple_from(pattern: TriplePattern, base: DyadicLabel) -> ExcTriple:
    """Build the triple for a pattern at a base label.

    Integer bases collapse all three patterns onto consecutive integer
    labels, normalized to the adjacent pattern, so each triple has one tag;
    each is built and checked once, in a cache keyed by pattern, p and m.
    """
    return _triple_at(pattern, base.p, base.m)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _triple_at(pattern: TriplePattern, p: int, m: int) -> ExcTriple:
    base = DyadicLabel(p, m)
    labels = _pattern_labels(pattern, base)
    if m == 0 and pattern is not TriplePattern.ADJACENT:
        return _triple_at(TriplePattern.ADJACENT, labels[1].p, 0)
    b1, b2, b3 = (ExcBundle.of(l) for l in labels)
    v1, v2, v3 = (_int_char(l) for l in labels)
    assert labels[0] < labels[1] < labels[2], "triple labels out of order"
    assert _chi2(v2, v1) == 0 and _chi2(v3, v1) == 0 and _chi2(v3, v2) == 0, \
        "pairing does not vanish on the triple"
    # every standard triple comes from (O, O(1), O(2)), of determinant 1,
    # by twists and mutations, which keep the determinant; doubling ch2
    # doubles it
    assert det3(v1, v2, v3) == 2, "triple characters are not unimodular"
    return ExcTriple(b1, b2, b3, pattern, base)


def detect_triple(l1: DyadicLabel, l2: DyadicLabel, l3: DyadicLabel) -> ExcTriple | None:
    """Recognize an ordered label triple as one of the standard patterns.

    The base's two partners have even numerators over its 2^m, so it is the
    one deepest label, and its position names the only candidate.  It is
    built only when its labels' numerators over the base's 2^m are the input's.
    """
    pattern, base = ((TriplePattern.RIGHT_EXTENDED, l1) if l1.m > max(l2.m, l3.m) else
                     (TriplePattern.LEFT_EXTENDED, l3) if l3.m > max(l1.m, l2.m) else
                     (TriplePattern.ADJACENT, l2))
    p, m = base.p, base.m
    q1, q2, q3 = _pattern_ints(pattern, p, m)
    # l2 is never deeper than the base, but l1 and l3 can both be
    if (l1.m > m or l3.m > m or l1.p << (m - l1.m) != q1 or l2.p << (m - l2.m) != q2
            or l3.p << (m - l3.m) != q3):
        return None
    return _triple_at(pattern, p, m)


def slope_to_label(mu: Fraction) -> DyadicLabel | None:
    """The label of slope mu, or None if mu is no label's slope.

    The slope map fixes integers and is strictly increasing, so a target
    slope in (n, n+1) is chased down the dyadic midpoint tree on integer
    characters, comparing c/r with mu as c*den(mu) against num(mu)*r.
    Only rank den(mu) can have slope mu, as chi(E, E) = r^2 + 2r*ch2 - c1^2
    = 1 makes r and c1 coprime.  The midpoint of the gap between slopes
    a = c_a/r_a < b = c_b/r_b ranks r_a*r_b*(3 - (b - a)) = 3*r_a*r_b -
    c_b*r_a + c_a*r_b >= 2*r_a*r_b, below every other label of the gap, so
    the chase stops before it builds a midpoint of rank above den(mu),
    whose rank could pass MAX_RANK_BITS where den(mu) does not.  Each step
    at least doubles the rank, so the chase ends within den(mu).bit_length()
    steps.  The chase is _slope_search, which builds a label only on a
    cache miss.
    """
    mu = Fraction(mu)
    found = _slope_search(mu.numerator, mu.denominator)
    return None if found is None else DyadicLabel(*found)


def _slope_search(num: int, den: int) -> tuple[int, int] | None:
    """slope_to_label(num/den) as (p, m), for num/den in lowest terms."""
    if den == 1:
        return num, 0
    # the target lies between the adjacent labels p/2^(m-1) and (p+1)/2^(m-1)
    # of slopes ca/ra < mu < cb/rb, first the integers p and p + 1
    p = num // den
    ra, ca, rb, cb = 1, p, 1, p + 1
    for m in range(1, den.bit_length() + 1):
        if 3 * ra * rb - cb * ra + ca * rb > den:
            return None
        q = 2 * p + 1
        r, c, _ = (_CHARS.get((q, m)) or _fill(DyadicLabel(q, m)))[0]
        t = c * den - num * r
        if t == 0:
            return q, m
        if t < 0:
            p, ra, ca = q, r, c
        else:
            p, rb, cb = 2 * p, r, c
    return None


def is_exceptional_char(v: CharVec) -> bool:
    """Whether v is a positive rational multiple of some label's character."""
    if v.ch0 <= 0:
        return False
    lbl = slope_to_label(v.ch1 / v.ch0)
    if lbl is None:
        return False
    c = char_of(lbl)
    return (v.ch0 / c.ch0) * c == v


def _between(a: DyadicLabel, b: DyadicLabel) -> DyadicLabel:
    """The label a mutation puts between the labels a < b < a + 3 it keeps.

    Modulo 3, a and b are adjacent at depth k = max(a.m, b.m): the new
    label halves a short gap, or else is the depth-k label next to a
    (or to b, if a is shallower) across the long one.
    """
    k = max(a.m, b.m)
    p, q = a.p << (k - a.m), b.p << (k - b.m)
    if q - p == 1:
        return DyadicLabel(2 * p + 1, k + 1)
    return DyadicLabel(p + 1 if a.m == k else q - 1, k)


def mutate_left(t: ExcTriple, slot: int = 2) -> ExcTriple:
    """Left mutation at positions (slot, slot+1), computed on labels.

    The default acts on the last two slots, (E1, E2, E3) -> (E1, L, E2),
    where the new character is chi(E2, E3) * v(E2) - v(E3); slot 1 acts
    on the first pair the same way.
    """
    l1, l2, l3 = t.labels
    if slot not in (1, 2):
        raise ValueError("mutation slot must be 1 or 2")
    out = (detect_triple(l1, _between(l1, l2), l2) if slot == 2
           else detect_triple(_between(l3.shift(-3), l1), l1, l3))
    assert out is not None, "mutated labels do not form a standard triple pattern"
    return out


def mutate_right(t: ExcTriple, slot: int = 2) -> ExcTriple:
    """Right mutation at positions (slot, slot+1); inverse of mutate_left.

    The default acts on the last two slots, (E1, E2, E3) -> (E1, E3, R),
    where the new character is chi(E2, E3) * v(E3) - v(E2).
    """
    l1, l2, l3 = t.labels
    if slot not in (1, 2):
        raise ValueError("mutation slot must be 1 or 2")
    out = (detect_triple(l1, l3, _between(l3, l1.shift(3))) if slot == 2
           else detect_triple(l2, _between(l2, l3), l3))
    assert out is not None, "mutated labels do not form a standard triple pattern"
    return out
