"""Standard triples of exceptional bundles and their mutations.

A standard triple is recognised by its base p/2^m, p odd, m >= 1: over 2^m
its two partners' numerators, p +- 1 and p +- 1 -+ 3*2^m, are even, so the
base is the one deepest label, and its position (first, middle or last)
names the pattern (right-extended, adjacent or left-extended).  If all
three labels are integers, the middle one is the base of an adjacent triple.
Each triple is checked on the integer characters (r, c, 2 ch2) of
exceptional: by the integer pairing corekit._chi2, twice euler_chi, and
det3 of the integer triples, twice det3 of the characters.  A mutation
finds its new label by a rule on labels, and its triple by that label.
"""

from __future__ import annotations

import enum
import functools

from .corekit import CharVec, _chi2, _record, det3
from .exceptional import CACHE_SIZE, DyadicLabel, ExcBundle, _int_char


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
    v1, v2, v3 = (_int_char(l.p, l.m) for l in labels)
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
