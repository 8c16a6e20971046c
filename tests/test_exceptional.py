"""Dyadic labels, recursive characters, triples, and mutations."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from conftest import _arith_cover
import stabscope.curve as cv
import stabscope.exceptional as ex
import stabscope.lepotier as lp
import stabscope.triples as tr
from stabscope.corekit import (CharVec, _chi2, collinear, cross3, delta, det3,
                               euler_chi, slope)
from stabscope.exceptional import (DyadicLabel, ExcBundle, TriplePattern,
                                   char_of, detect_triple, el, eplus, er,
                                   is_exceptional_char, mutate_left,
                                   mutate_right, slope_to_label, triple_from,
                                   twist)
from stabscope.surd import _FACTOR_LIMIT, QuadReal, _reduce_radicand


def lab(text: str) -> DyadicLabel:
    return DyadicLabel.parse(text)


def all_labels(span: int, max_m: int) -> list[DyadicLabel]:
    out = [DyadicLabel(n) for n in range(-span, span + 1)]
    for m in range(1, max_m + 1):
        step = 1 << m
        out.extend(DyadicLabel(p, m)
                   for p in range(-span * step + 1, span * step, 2))
    return out


def test_label_canonical_form():
    assert DyadicLabel(2, 1) == DyadicLabel(1)
    assert DyadicLabel(6, 2) == DyadicLabel(3, 1)
    assert str(DyadicLabel(1, 1)) == "1/2"
    assert str(DyadicLabel(-7, 2)) == "-7/4"
    assert str(DyadicLabel(3)) == "3"
    assert lab("13/4") == DyadicLabel(13, 2)
    assert lab("-2") == DyadicLabel(-2)
    # the trailing zeros of p go in one step, however many there are
    assert DyadicLabel(-12, 5) == DyadicLabel(-3, 3)
    assert DyadicLabel(0, 5000) == DyadicLabel(0)
    assert DyadicLabel(5 << 3000, 3001) == DyadicLabel(5, 1)
    assert DyadicLabel(-3 << 3000, 2000) == DyadicLabel(-3 << 1000)
    with pytest.raises(ValueError):
        lab("1/3")


def test_label_order_and_neighbors():
    assert lab("1/2") < lab("3/4") < lab("1")
    assert lab("1/2") <= lab("1/2") <= lab("3/4") and not lab("1") <= lab("3/4")
    assert lab("3/4").left_neighbor() == lab("1/2")
    assert lab("3/4").right_neighbor() == lab("1")
    assert lab("1/2").shift(1) == lab("3/2")


def test_integer_characters():
    assert char_of(lab("0")) == CharVec(1, 0, 0)
    assert char_of(lab("1")) == CharVec(1, 1, Fraction(1, 2))
    for n in range(-5, 6):
        assert char_of(DyadicLabel(n)) == CharVec(1, n, Fraction(n * n, 2))


def test_recursive_characters():
    frozen = {
        "1/2": (2, 1, Fraction(-1, 2)),
        "3/2": (2, 3, Fraction(3, 2)),
        "5/2": (2, 5, Fraction(11, 2)),
        "1/4": (5, 2, -2),
        "3/4": (5, 3, Fraction(-3, 2)),
        "5/4": (5, 7, Fraction(5, 2)),
        "13/4": (5, 17, Fraction(53, 2)),
    }
    for text, triple in frozen.items():
        assert char_of(lab(text)) == CharVec(*triple), text


def test_exceptionality_identity_small_sweep():
    for label in all_labels(3, 5):
        c = char_of(label)
        assert euler_chi(c, c) == 1, label
        r = c.ch0
        assert delta(c) == Fraction(1, 2) * (1 - Fraction(1, r * r)), label


def test_twist_matches_shifted_label():
    assert twist(lab("0"), 1) == CharVec(1, 1, Fraction(1, 2))
    assert twist(lab("1/2"), 1) == char_of(lab("3/2"))
    assert twist(lab("3/2"), -2) == CharVec(2, -1, Fraction(-1, 2))
    for label in all_labels(2, 4):
        assert twist(label, 1) == char_of(label.shift(1)), label


def test_bundle_accessors():
    e = ExcBundle.of("3/2")
    assert e.rank == 2
    assert e.slope == Fraction(3, 2)
    assert e.char == CharVec(2, 3, Fraction(3, 2))
    assert ExcBundle.of(Fraction(1, 2)).label == lab("1/2")


def test_slope_map_strictly_increasing():
    labels = sorted(all_labels(3, 4))
    slopes = [slope(char_of(l)) for l in labels]
    assert all(a < b for a, b in zip(slopes, slopes[1:]))


def test_vertex_points():
    cases = {
        "0": (0, -1),
        "1": (1, Fraction(-1, 2)),
        "2": (2, 1),
        "3": (3, Fraction(7, 2)),
        "1/2": (Fraction(1, 2), Fraction(-1, 2)),
        "3/2": (Fraction(3, 2), Fraction(1, 2)),
        "5/2": (Fraction(5, 2), Fraction(5, 2)),
    }
    for text, (x, y) in cases.items():
        p = eplus(lab(text))
        assert (p.x, p.y) == (x, y), text


def test_shoulder_points_exact():
    p = el(lab("0"))
    assert p.x == QuadReal(Fraction(-3, 2), Fraction(1, 2), 5)
    assert p.y == QuadReal(Fraction(5, 4), Fraction(-3, 4), 5)
    q = er(lab("0"))
    assert q.x == QuadReal(Fraction(3, 2), Fraction(-1, 2), 5)
    assert q.y == QuadReal(Fraction(5, 4), Fraction(-3, 4), 5)


def test_shoulder_points_on_half_discriminant_parabola():
    for label in all_labels(2, 3):
        assert el(label).delta() == Fraction(1, 2), label
        assert er(label).delta() == Fraction(1, 2), label
        assert el(label).x < eplus(label).x < er(label).x, label


def _sympy_contact(label: DyadicLabel, neighbour: DyadicLabel) -> tuple:
    """The chord from eplus to the neighbour's projected character meets
    y = x^2/2 - 1/2 here; sympy finds the point on its own."""
    e, nb = eplus(label), char_of(neighbour).proj()
    (x1, y1), (x2, y2) = ((sympy.Rational(str(p.x)), sympy.Rational(str(p.y)))
                          for p in (e, nb))
    x = sympy.Symbol("x", real=True)
    chord = y1 + (y2 - y1) / (x2 - x1) * (x - x1)
    roots = [r for r in sympy.roots(chord - x ** 2 / 2 + sympy.Rational(1, 2), x)
             if min(x1, x2) < r < max(x1, x2)]
    assert len(roots) == 1, label
    return roots[0], chord.subs(x, roots[0])


def _sympy_value(q: QuadReal):
    return sympy.Rational(str(q.a)) + sympy.Rational(str(q.b)) * sympy.sqrt(q.d)


def test_contact_points_match_sympy_intersection():
    labels = all_labels(2, 4)    # every label of depth <= 4 in [-2, 2]
    assert len(labels) == 65
    for label in labels:
        for point, neighbour in ((el(label), label.left_neighbor()),
                                 (er(label), label.right_neighbor())):
            x, y = _sympy_contact(label, neighbour)
            assert sympy.expand(_sympy_value(point.x) - x) == 0, label
            assert sympy.expand(_sympy_value(point.y) - y) == 0, label


def test_triple_patterns():
    t = triple_from(TriplePattern.ADJACENT, DyadicLabel(1))
    assert [str(l) for l in t.labels] == ["0", "1", "2"]
    t = triple_from(TriplePattern.ADJACENT, DyadicLabel(1, 1))
    assert [str(l) for l in t.labels] == ["0", "1/2", "1"]
    t = triple_from(TriplePattern.RIGHT_EXTENDED, DyadicLabel(1, 1))
    assert [str(l) for l in t.labels] == ["1/2", "1", "3"]
    assert euler_chi(char_of(lab("3")), char_of(lab("1/2"))) == 0
    t = triple_from(TriplePattern.LEFT_EXTENDED, DyadicLabel(1, 1))
    assert [str(l) for l in t.labels] == ["-2", "0", "1/2"]


def test_detect_triple():
    t = detect_triple(lab("0"), lab("1/2"), lab("1"))
    assert t is not None and t.pattern is TriplePattern.ADJACENT
    assert detect_triple(lab("0"), lab("1"), lab("3")) is None


def test_detect_triple_computes_no_character_of_a_label_in_no_pattern(monkeypatch):
    # the base's partners are compared on their numerators before the
    # candidate is built, so a deep label in no pattern costs nothing
    monkeypatch.setattr(ex, "_CHARS", {})
    deep = DyadicLabel(1, 12000)
    for labels in ((lab("0"), deep, lab("1")), (deep, lab("1/2"), lab("3")),
                   (lab("-2"), lab("1"), deep), (lab("0"), lab("1/2"), deep)):
        assert detect_triple(*labels) is None
    assert ex._CHARS == {}
    assert detect_triple(lab("-2"), lab("0"), lab("1/2")).base == lab("1/2")


def random_triples(count: int, rng: random.Random):
    patterns = list(TriplePattern)
    out = []
    while len(out) < count:
        m = rng.randint(0, 5)
        span = 3 << m
        p = rng.randint(-span, span)
        base = DyadicLabel(p, m)
        pattern = rng.choice(patterns)
        try:
            out.append(triple_from(pattern, base))
        except ValueError:
            continue
    return out


def test_triple_unimodular_and_collinear():
    rng = random.Random(7)
    for t in random_triples(60, rng):
        c1, c2, c3 = t.chars
        assert abs(det3(c1, c2, c3)) == 1
        e1p = eplus(t.labels[0])
        e3p = eplus(t.labels[2])
        assert collinear(e1p, c2.proj(), c3.proj())
        assert collinear(e3p, c2.proj(), c1.proj())


def test_orthogonality_in_twist_family():
    for n in range(-3, 4):
        t = triple_from(TriplePattern.ADJACENT, DyadicLabel(n))
        c1, c2, c3 = t.chars
        assert euler_chi(c2, c1) == 0
        assert euler_chi(c3, c1) == 0
        assert euler_chi(c3, c2) == 0


def test_mutate_left_known_cases():
    t = triple_from(TriplePattern.ADJACENT, DyadicLabel(1))
    left = mutate_left(t)
    assert [str(l) for l in left.labels] == ["0", "1/2", "1"]
    assert left.E2.char == CharVec(2, 1, Fraction(-1, 2))
    assert left.E2.char == char_of(lab("1")).scale(3) - char_of(lab("2"))

    t = detect_triple(lab("1"), lab("3/2"), lab("2"))
    left = mutate_left(t)
    assert [str(l) for l in left.labels] == ["1", "5/4", "3/2"]
    assert left.E2.char == CharVec(5, 7, Fraction(5, 2))


def test_mutation_roundtrip_randomized():
    rng = random.Random(11)
    for t in random_triples(100, rng):
        d = abs(det3(*t.chars))
        for slot in (1, 2):
            left = mutate_left(t, slot)
            assert abs(det3(*left.chars)) == d
            back = mutate_right(left, slot)
            assert back.labels == t.labels
            assert back.chars == t.chars
            right = mutate_right(t, slot)
            assert mutate_left(right, slot).labels == t.labels


def test_mutation_pattern_transitions():
    t = triple_from(TriplePattern.ADJACENT, DyadicLabel(1))
    cases = {
        (2, "left"): (["0", "1/2", "1"], TriplePattern.ADJACENT, "1/2"),
        (2, "right"): (["0", "2", "5/2"], TriplePattern.LEFT_EXTENDED, "5/2"),
        (1, "left"): (["-1/2", "0", "2"], TriplePattern.RIGHT_EXTENDED, "-1/2"),
        (1, "right"): (["1", "3/2", "2"], TriplePattern.ADJACENT, "3/2"),
    }
    for (slot, way), (labels, pattern, base) in cases.items():
        got = (mutate_left if way == "left" else mutate_right)(t, slot)
        assert [str(l) for l in got.labels] == labels
        assert got.pattern is pattern
        assert str(got.base) == base


def test_slope_to_label():
    assert slope_to_label(Fraction(1)) == lab("1")
    assert slope_to_label(Fraction(1, 2)) == lab("1/2")
    assert slope_to_label(Fraction(2, 5)) == lab("1/4")
    assert slope_to_label(Fraction(-8, 5)) == lab("-7/4")
    assert slope_to_label(Fraction(1, 3)) is None
    # 3/10 passes the numerical test, but the rank-1 tent at 0 covers it
    assert slope_to_label(Fraction(3, 10)) is None
    # ranks near the label 2/3 grow fastest: at depth 19 one has 14 138
    # bits, and just below its slope the next midpoint would rank past
    # MAX_RANK_BITS, above den, so the search must not build it
    label = DyadicLabel((2 ** 20 + 1) // 3, 19)
    r, c, _ = ex._int_char(label.p, label.m)
    assert slope_to_label(Fraction(c, r)) == label
    assert slope_to_label(Fraction(3 * c - 1, 3 * r)) is None
    # one level deeper the rank limit is passed, and its error names the label
    with pytest.raises(ValueError, match=r"^rank at label 699051/1048576 exceeds 16384 bits$"):
        char_of(DyadicLabel((2 ** 21 + 1) // 3, 20))


@functools.cache
def _slope_of(label):
    """A label's slope from char_of, as its numerator and denominator."""
    s = slope(char_of(label))
    return s.numerator, s.denominator


def _budget_search(mu, max_m):
    """The slope search with a depth budget, as it was before the rank alone
    bounded it: bisection on the slopes of char_of, stopped at rank den(mu).
    """
    num, den = mu.numerator, mu.denominator
    if den == 1:
        return DyadicLabel(num)
    p = math.floor(mu)
    for m in range(1, max_m + 1):
        mid = DyadicLabel(2 * p + 1, m)
        c, r = _slope_of(mid)
        if (c, r) == (num, den):
            return mid
        if r >= den:
            return None
        p = 2 * p + (c * den < num * r)
    return None


def test_slope_search_needs_no_budget():
    # every reduced c/r with r <= 300 in two unit cells, against the
    # budgeted search at depth 64, which no such slope's label reaches
    found = 0
    for n in (-3, 1):
        for r in range(1, 301):
            for c in range(n * r, (n + 1) * r):
                if math.gcd(c, r) == 1:
                    mu = Fraction(c, r)
                    want = _budget_search(mu, 64)
                    assert slope_to_label(mu) == want, mu
                    found += want is not None
    assert found > 20
    # and every label of depth <= 8 in [-3, 3) from its own slope
    for label in all_labels(3, 8):
        if label < DyadicLabel(3):
            assert slope_to_label(slope(char_of(label))) == label, label


def _oracle_cases():
    """Every reduced c/r with r <= 200 in [-1, 1), the slopes of seeded deep
    labels, and seeded fractions next to those slopes."""
    cases = [(c, r) for r in range(1, 201) for c in range(-r, r) if math.gcd(c, r) == 1]
    rng = random.Random(2828)
    for _ in range(30):
        m = rng.randint(8, 16)
        r, c, _ = ex._int_char(rng.randrange(-1 << m, 2 << m) | 1, m)
        k = rng.randint(2, 9)
        cases += [(c, r), (c * k + 1, r * k), (c * k - 1, r * k), (c + r, r)]
    return cases


def test_label_slopes_match_the_arithmetic_oracle():
    # conftest._arith_cover decides label slopes by arithmetic and Legendre's
    # theorem, with no label tree, character cache or slope form
    labels = 0
    for num, den in _oracle_cases():
        mu = Fraction(num, den)
        c, r = mu.numerator, mu.denominator
        want = _arith_cover(c, r) == (c, r)
        found = ex._slope_search(c, r)
        assert (found is not None) == want == (slope_to_label(mu) is not None), mu
        # the character a label of slope c/r has: chi(E, E) = 1 fixes ch2
        v = CharVec(r, c, Fraction(1 + c * c - r * r, 2 * r))
        assert is_exceptional_char(v) == is_exceptional_char(v.scale(3)) == want, mu
        if want:
            labels += 1
            assert DyadicLabel(*found) == slope_to_label(mu) and char_of(DyadicLabel(*found)) == v
            assert not is_exceptional_char(v + CharVec(0, 0, 1))
    assert labels > 80


def test_rank_and_degree_are_coprime():
    # so the denominator of a label's slope in lowest terms is its rank
    for label in all_labels(2, 10):
        c = char_of(label)
        r, c1 = c.ch0.numerator, c.ch1.numerator
        assert c.ch0.denominator == c.ch1.denominator == 1
        assert math.gcd(r, c1) == 1, label
        assert slope(c).denominator == r, label


def test_is_exceptional_char():
    assert is_exceptional_char(CharVec(2, 2, 1))
    assert not is_exceptional_char(CharVec(2, 1, 1))
    assert is_exceptional_char(CharVec(5, 7, Fraction(5, 2)))
    assert is_exceptional_char(CharVec(10, 4, -4))
    assert not is_exceptional_char(CharVec(-5, -7, Fraction(-5, 2)))
    # rank 10 is no label's rank, so no label has the slope 3/10
    assert slope_to_label(Fraction(3, 10)) is None
    assert not is_exceptional_char(CharVec(10, 3, Fraction(-1, 2)))


def _label_bases(max_m: int, span: int):
    """Every base p/2^m in lowest terms with m <= max_m and |p| <= span."""
    return [DyadicLabel(p, m) for m in range(max_m + 1)
            for p in range(-span, span + 1) if m == 0 or p % 2]


MUTATIONS = [(way, slot) for way in (mutate_left, mutate_right) for slot in (1, 2)]


def _neg(label: DyadicLabel) -> DyadicLabel:
    return DyadicLabel(-label.p, label.m)


def _mutation_cases(bases):
    triples = [triple_from(pattern, base) for base in bases for pattern in TriplePattern]
    return [(t, way, slot) for t in triples for way, slot in MUTATIONS]


def test_mutation_commutes_with_twist():
    rng = random.Random(61)
    cases = _mutation_cases(_label_bases(4, 20))
    assert len(cases) == 1452
    for t, way, slot in cases:
        n = rng.choice([-3, -2, -1, 1, 2, 3])
        twisted = detect_triple(*(l.shift(n) for l in t.labels))
        want = tuple(l.shift(n) for l in way(t, slot).labels)
        assert way(twisted, slot).labels == want, (t.labels, way.__name__, slot, n)


def test_mutation_commutes_with_duality():
    # the dual of (A, B, C) is (-C, -B, -A); it swaps left and right
    # mutations and slots 1 and 2
    other = {mutate_left: mutate_right, mutate_right: mutate_left}
    cases = _mutation_cases(_label_bases(4, 20))
    assert len(cases) == 1452
    for t, way, slot in cases:
        l1, l2, l3 = t.labels
        dual = detect_triple(_neg(l3), _neg(l2), _neg(l1))
        m1, m2, m3 = other[way](dual, 3 - slot).labels
        assert way(t, slot).labels == (_neg(m3), _neg(m2), _neg(m1)), \
            (t.labels, way.__name__, slot)


def _mutation_by_characters(t, way, slot):
    """The braid-formula mutation: characters from chi, labels by slope search."""
    c1, c2, c3 = t.chars
    if way is mutate_left:
        chars = ((c1, euler_chi(c2, c3) * c2 - c3, c2) if slot == 2
                 else (euler_chi(c1, c2) * c1 - c2, c1, c3))
    else:
        chars = ((c1, c3, euler_chi(c2, c3) * c3 - c2) if slot == 2
                 else (c2, euler_chi(c1, c2) * c2 - c1, c3))
    labels = [slope_to_label(slope(c)) for c in chars]
    assert all(l is not None and char_of(l) == c for l, c in zip(labels, chars))
    out = detect_triple(*labels)
    assert out is not None and out.chars == chars
    return out


@pytest.mark.parametrize("m", range(6))
def test_label_rule_matches_braid_formula(m):
    # over m = 0..5 these are 281 bases, three patterns and four mutations
    assert len(_label_bases(5, 40)) * len(TriplePattern) * len(MUTATIONS) == 3372
    for t, way, slot in _mutation_cases(b for b in _label_bases(5, 40) if b.m == m):
        got = way(t, slot)
        want = _mutation_by_characters(t, way, slot)
        assert (got.labels, got.pattern, got.base, got.chars) == \
            (want.labels, want.pattern, want.base, want.chars), \
            (t.labels, way.__name__, slot)


def _detect_by_search(l1, l2, l3):
    """The standard triple of these labels, found by trying each pattern in turn."""
    for pattern, base in ((TriplePattern.ADJACENT, l2),
                          (TriplePattern.RIGHT_EXTENDED, l1),
                          (TriplePattern.LEFT_EXTENDED, l3)):
        if tr._pattern_labels(pattern, base) == (l1, l2, l3):
            return triple_from(pattern, base)
    return None


def _near_standard_triples():
    """Every standard triple with a base of depth <= 6 in [-1, 1], its four
    mutations, and its neighbours in no pattern: each label moved one step
    at its own depth, the labels permuted, a label repeated."""
    bases = [DyadicLabel(p, m) for m in range(7)
             for p in range(-(1 << m), (1 << m) + 1) if m == 0 or p % 2]
    out = [(lab("0"), lab("1"), lab("3"))]
    for base in bases:
        for pattern in TriplePattern:
            t = triple_from(pattern, base)
            labels = t.labels
            out.append(labels)
            out.extend(way(t, slot).labels for way, slot in MUTATIONS)
            for i, l in enumerate(labels):
                for step in (-1, 1):
                    moved = list(labels)
                    moved[i] = DyadicLabel(l.p + step, l.m)
                    out.append(tuple(moved))
            out.extend(itertools.permutations(labels))
            l1, l2, l3 = labels
            out.extend([(l1, l1, l3), (l1, l3, l3), (l2, l2, l2)])
    return out


def test_the_deepest_label_finds_what_the_pattern_search_finds():
    cases = _near_standard_triples()
    assert len(cases) == 1 + 129 * 3 * 20 == 7741
    found = set()
    for labels in cases:
        got, want = detect_triple(*labels), _detect_by_search(*labels)
        if want is None:
            assert got is None, labels
            continue
        assert (got.labels, got.pattern, got.base, (got.E1, got.E2, got.E3)) == \
            (labels, want.pattern, want.base, tuple(ExcBundle.of(l) for l in labels)), labels
        found.add(want.pattern)
    assert found == set(TriplePattern)
    assert sum(_detect_by_search(*labels) is None for labels in cases) > 3000


def test_a_triple_is_built_once_per_pattern_and_base():
    for pattern in TriplePattern:
        t = triple_from(pattern, DyadicLabel(5, 3))
        assert triple_from(pattern, DyadicLabel(10, 4)) == t
        assert triple_from(pattern, DyadicLabel(5, 3)) is t
        assert detect_triple(*t.labels) is t


def test_integer_bases_are_tagged_adjacent_at_the_middle_label():
    for n in range(-3, 4):
        for pattern, middle in ((TriplePattern.RIGHT_EXTENDED, n + 1),
                                (TriplePattern.LEFT_EXTENDED, n - 1)):
            t = triple_from(pattern, DyadicLabel(n))
            assert t == triple_from(TriplePattern.ADJACENT, DyadicLabel(middle))
            assert t.pattern is TriplePattern.ADJACENT and t.base == DyadicLabel(middle)
            assert t.labels == tuple(DyadicLabel(middle + k) for k in (-1, 0, 1))


def test_the_triple_cache_stays_bounded():
    assert tr._triple_at.cache_info().maxsize == ex.CACHE_SIZE
    # 4 224 bases of depth 6, more triples than the cache keeps
    bases = [DyadicLabel(p, 6) for p in range(-64 * 66 + 1, 64 * 66, 2)]
    assert len(bases) > ex.CACHE_SIZE
    for base in bases:
        triple_from(TriplePattern.ADJACENT, base)
    assert tr._triple_at.cache_info().currsize == ex.CACHE_SIZE
    t = triple_from(TriplePattern.ADJACENT, bases[0])
    assert t.labels == (bases[0].left_neighbor(), bases[0], bases[0].right_neighbor())


def test_contact_points_reduce_each_radicand_once(monkeypatch):
    # both contact points of every label of rank r share sqrt(9 r^2 - 4) =
    # k sqrt(d), reduced once per rank, also where 9 r^2 - 4 is above
    # _FACTOR_LIMIT and only squares of small primes come out
    rng = random.Random(5151)
    big = [rng.randrange(10 ** 6, 10 ** 40) for _ in range(40)]
    assert all(9 * r * r - 4 > _FACTOR_LIMIT for r in big)
    for r in [*range(1, 5001), *big]:
        assert ex._contact_root(r) == _reduce_radicand(1, 9 * r * r - 4), r
    # the points are those QuadReal builds on the unreduced radicand
    labels = [*ex._labels_between(Fraction(-2), Fraction(2), 6)]
    labels += [DyadicLabel(rng.randrange(1 << m) | 1, m) for m in rng.choices(range(8, 14), k=20)]
    assert any(9 * ex._int_char(label.p, label.m)[0] ** 2 - 4 > _FACTOR_LIMIT for label in labels)
    for label in labels:
        r, c, _ = ex._int_char(label.p, label.m)
        for point, side in ((el(label), -1), (er(label), 1)):
            p, q, d, s = ex._contact_form(r, c, side)
            x = QuadReal(Fraction(p, s), Fraction(q, s), d)
            y = (x * x - 1) / 2
            assert (point.x.a, point.x.b, point.x.d, point.y.a, point.y.b, point.y.d) \
                == (x.a, x.b, x.d, y.a, y.b, y.d), (label, side)
    # a cold curve listing reduces one radicand per rank, not two per tent
    reduce, calls = ex._reduce_radicand, []
    monkeypatch.setattr(ex, "_reduce_radicand", lambda b, d: calls.append(d) or reduce(b, d))
    for cached in (ex._contact, ex._contact_root, cv._tent, lp._tent_ends):
        cached.cache_clear()
    tents = cv.build_curve(6, (Fraction(-2), Fraction(2))).tents
    ranks = {ex._int_char(t.label.p, t.label.m)[0] for t in tents}
    assert len(tents) == 257 and len(calls) == len(set(calls)) == len(ranks) == 33


def test_caches_stay_bounded_and_rebuild_evicted_characters():
    cached = (ex._contact, ex._contact_root, cv._tent, lp._tent_ends)
    assert all(f.cache_info().maxsize == ex.CACHE_SIZE for f in cached)
    # 4 224 labels of depth 6 in 132 unit cells, more than any cache keeps
    labels = [DyadicLabel(p, 6) for p in range(-64 * 66 + 1, 64 * 66, 2)]
    assert len(labels) > ex.CACHE_SIZE
    first = {lbl: (char_of(lbl), eplus(lbl)) for lbl in labels[:50]}
    largest = 0
    for lbl in labels:
        eplus(lbl)
        largest = max(largest, len(ex._CHARS))
    # a depth-6 label adds itself and at most a few ancestors at once
    assert largest <= ex.CACHE_SIZE + 16
    assert all(f.cache_info().currsize <= ex.CACHE_SIZE for f in cached)
    # the characters are keyed by the integers (p, m) of their labels
    assert (labels[-1].p, labels[-1].m) in ex._CHARS
    assert not any((lbl.p, lbl.m) in ex._CHARS for lbl in first)
    for lbl, (c, apex) in first.items():
        assert char_of(lbl) == c and eplus(lbl) == apex
        assert euler_chi(c, c) == 1


class _CountedChars(dict):
    """A character cache that counts its insertions and keeps its largest size."""

    def __init__(self, limit):
        super().__init__()
        self.limit, self.inserts, self.largest, self.deepest = limit, 0, 0, 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.inserts += 1
        self.largest = max(self.largest, len(self))
        self.deepest = max(self.deepest, key[1])
        # a cache that rebuilt the search's ancestors at every step would
        # take quadratic work; stop it early instead of waiting on it
        assert self.inserts <= self.limit, f"{self.inserts} insertions at depth {self.deepest}"


@pytest.mark.parametrize("n", [0, 5])
def test_a_search_deeper_than_the_cache_takes_linear_work(monkeypatch, n):
    # 1/10^2149 past the integer n is no label's slope, and the search for
    # it walks more than 5 000 levels, past the cache's CACHE_SIZE entries
    mu = n + Fraction(1, 10 ** 2149)
    levels = mu.denominator.bit_length()
    cache = _CountedChars(3 * levels)
    monkeypatch.setattr(ex, "_CHARS", cache)
    assert slope_to_label(mu) is None
    assert 5000 <= cache.deepest <= levels
    assert cache.inserts <= 2 * cache.deepest
    # the cache keeps at most CACHE_SIZE entries plus one label's ancestors
    assert cache.largest <= ex.CACHE_SIZE + 16


def test_integer_characters_match_the_fraction_ones():
    # the 64 labels p/16 in [-2, 2), all those of depth at most 4
    labels = [DyadicLabel(p, 4) for p in range(-32, 32)]
    chars = [char_of(lbl) for lbl in labels]
    ints = [ex._int_char(lbl.p, lbl.m) for lbl in labels]
    for lbl, c, v in zip(labels, chars, ints):
        assert v == (c.ch0, c.ch1, 2 * c.ch2) and all(type(x) is int for x in v), lbl
    for a, b in itertools.product(range(64), repeat=2):
        assert _chi2(ints[a], ints[b]) == 2 * euler_chi(chars[a], chars[b]), (labels[a], labels[b])
    # every ordered triple (x, a, b): the determinant of the characters is
    # x . (a x b), which swapping a and b negates and a = b makes zero
    for a, b in itertools.combinations(range(64), 2):
        k = cross3(chars[a], chars[b])
        want = [2 * (c.ch0 * k[0] + c.ch1 * k[1] + c.ch2 * k[2]) for c in chars]
        assert [det3(v, ints[a], ints[b]) for v in ints] == want, (labels[a], labels[b])
        assert [-det3(v, ints[b], ints[a]) for v in ints] == want, (labels[b], labels[a])
    assert all(det3(v, w, w) == 0 for v in ints for w in ints)


def test_a_character_vector_is_built_only_when_asked_for(monkeypatch):
    # the search and the walks read only the integer characters, so filling
    # the cache builds no CharVec; char_of builds one from them on each call
    monkeypatch.setattr(ex, "_CHARS", {})
    built = []
    make = CharVec.__init__
    monkeypatch.setattr(CharVec, "__init__", lambda *a: built.append(a[1:]) or make(*a))
    assert slope_to_label(Fraction(1, 10 ** 40)) is None
    assert len(ex._CHARS) > 90 and built == []
    assert all(len(v) == 3 and all(type(x) is int for x in v) for v in ex._CHARS.values())
    deepest = DyadicLabel(*max(ex._CHARS, key=lambda key: key[1]))
    r, c, e = ex._int_char(deepest.p, deepest.m)
    got = char_of(deepest)
    assert built == [(r, c, Fraction(e, 2))]
    assert got == CharVec(r, c, Fraction(e, 2)) and ExcBundle.of(deepest).char == got
