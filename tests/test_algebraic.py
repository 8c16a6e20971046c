"""The three-parameter chart: validation, reconstruction, cells, transport."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from conftest import (UPPER_UNITS, in_polygon_by_fractions, label_calls, random_triple,
                      random_valid_params, region_by_fractions)
from stabscope.algebraic import (CellLabel, CellReport, ThetaParams, _below,
                                 _branch_in_window, _kernel_ints, _lift,
                                 _phase_gaps, _triple_data,
                                 charge_from_params, classify_cell,
                                 classify_cell_report, gl_act, gl_inverse,
                                 mz_polygon, stable_set_pure, tr_polygon,
                                 transport_plus_leg,
                                 transport_plus_leg_inverse, validate_params)
from stabscope.corekit import (AffPt, CharVec, _scaled_ints, euler_chi,
                               point_in_polygon)
import stabscope.algebraic as algebraic
import stabscope.triples as tr
from stabscope.exceptional import (DyadicLabel, TriplePattern, _labels_between, char_of,
                                   detect_triple, el, eplus, er, mutate_left, mutate_right,
                                   triple_from)
from stabscope.geometric import (GLElement, KernelPoint, Phase, RatComplex, SQCharge,
                                 StabResult, _stable_in_region, _upper_ray, _upper_ray_ints,
                                 in_upper, kernel_point, z_eval)
from stabscope.lepotier import RegionClass, classify_point
from stabscope.polygon import _in_polygon_ints

OOO = triple_from(TriplePattern.ADJACENT, DyadicLabel(1))

ONE = Fraction(1)


def u(c, s) -> tuple[Fraction, Fraction]:
    return (Fraction(c), Fraction(s))


def test_from_units_and_phases():
    p = ThetaParams.from_units((1, 1, 1),
                               (u(-1, 0), u(0, 1), u("-3/5", "4/5")),
                               (-1, 0, 0))
    f1, f2, f3 = p.phases()
    assert f1.exact_value() == 0
    assert f2.exact_value() == Fraction(1, 2)
    assert f3.exact_value() is None
    assert 0.5 < f3.approx() < 1
    assert [float(m) for m in p.magnitudes()] == [1.0, 1.0, 1.0]


def test_from_units_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        ThetaParams.from_units((-1, 1, 1), (u(-1, 0),) * 3, (0, 1, 2))
    with pytest.raises(ValueError, match="unit circle"):
        ThetaParams.from_units((1, 1, 1),
                               (u("1/2", "1/2"), u(-1, 0), u(-1, 0)),
                               (0, 1, 2))
    with pytest.raises(ValueError, match="upper half-plane"):
        ThetaParams.from_units((1, 1, 1), (u(1, 0), u(-1, 0), u(-1, 0)),
                               (0, 1, 2))


def test_from_floats_approximates():
    p = ThetaParams.from_floats((1.0, 1.0, 1.0), (0.0, 0.5, 1.2))
    f = [ph.approx() for ph in p.phases()]
    assert abs(f[0] - 0.0) < 1e-6
    assert abs(f[1] - 0.5) < 1e-6
    assert abs(f[2] - 1.2) < 1e-6
    assert validate_params(p)


def test_from_floats_keeps_huge_phases_exact():
    phis = (2.0 ** 53 + 2, 2.0 ** 53 + 4, 2.0 ** 53 + 8)
    p = ThetaParams.from_floats((1, 1, 1), phis)
    assert [f.exact_value() for f in p.phases()] == [Fraction(phi) for phi in phis]
    assert validate_params(p)
    q = ThetaParams.from_floats((1, 1, 1), (-(2.0 ** 60), 0.5, 1.0))
    assert [f.exact_value() for f in q.phases()] == [-(2 ** 60), Fraction(1, 2), 1]


def test_validate_params_examples():
    good = ThetaParams.from_floats((1, 1, 1), (0.0, 0.5, 1.2))
    assert validate_params(good)
    close = ThetaParams.from_floats((1, 1, 1), (0.0, 0.5, 0.9))
    assert not validate_params(close)
    zero_m = ThetaParams.from_floats((1, 0, 1), (0.0, 0.5, 1.2))
    assert not validate_params(zero_m)
    unordered = ThetaParams.from_floats((1, 1, 1), (0.5, 0.0, 1.7))
    assert not validate_params(unordered)


def test_params_json_roundtrip():
    rng = random.Random(2)
    for _ in range(25):
        p = random_valid_params(rng)
        assert ThetaParams.from_json(p.to_json()) == p


GEO_PARAMS = ThetaParams(RatComplex(0, Fraction(-1, 2)),
                         RatComplex(Fraction(-1, 2), Fraction(1, 2)),
                         RatComplex(-2, Fraction(3, 2)),
                         -1, 0, 0)


def test_charge_reconstruction_recovers_sq_form():
    Z = charge_from_params(OOO, GEO_PARAMS)
    want = SQCharge(Fraction(1, 2), Fraction(0)).as_general()
    for v in (CharVec(1, 0, 0), CharVec(1, 1, Fraction(1, 2)),
              CharVec(1, 2, 2), CharVec(0, 0, 1), CharVec(2, -3, 5)):
        assert z_eval(Z, v) == z_eval(want, v)


def test_charge_reconstruction_is_linear_in_m():
    p = GEO_PARAMS
    doubled = ThetaParams(2 * p.z1, 2 * p.z2, 2 * p.z3, p.k1, p.k2, p.k3)
    Z1 = charge_from_params(OOO, p)
    Z2 = charge_from_params(OOO, doubled)
    for v in (CharVec(1, 0, 0), CharVec(3, 1, -2)):
        assert z_eval(Z2, v) == 2 * z_eval(Z1, v)


def test_charge_reconstruction_rejects_invalid():
    bad = ThetaParams.from_floats((1, 1, 1), (0.0, 0.5, 0.9))
    with pytest.raises(ValueError, match="invalid chart parameters"):
        charge_from_params(OOO, bad)


def test_degenerate_reconstruction_forces_pure():
    p = ThetaParams.from_units((1, 1, 1), (u(-1, 0),) * 3, (-1, 0, 1))
    assert [f.exact_value() for f in p.phases()] == [0, 1, 2]
    Z = charge_from_params(OOO, p)
    values = [z_eval(Z, c) for c in OOO.chars]
    assert all(v.im == 0 for v in values)
    assert classify_cell(OOO, p, 4) is CellLabel.PURE_CELL


def test_tr_polygon_flags():
    tr = tr_polygon(OOO)
    assert [(p.x, p.y) for p in tr.vertices] == [(0, 0), (1, Fraction(1, 2)),
                                                 (2, 2)]
    assert tr.edge_included == (True, True, False)
    assert tr.vertex_included == (False, False, False)
    assert not point_in_polygon(AffPt(0, 0), tr)
    assert point_in_polygon(AffPt(Fraction(1, 2), Fraction(1, 4)), tr)
    assert not point_in_polygon(AffPt(1, 1), tr)


def test_mz_polygon_vertices():
    mz = mz_polygon(OOO)
    assert [(p.x, p.y) for p in mz.vertices] == [
        (0, 0), (0, -1), (1, Fraction(1, 2)), (2, 1), (2, 2)]
    assert mz.edge_included == (False,) * 5
    assert mz.vertex_included == (False,) * 5
    assert point_in_polygon(AffPt(Fraction(1, 2), 0), mz)
    assert not point_in_polygon(AffPt(0, 0), mz)
    assert not point_in_polygon(AffPt(Fraction(3, 2), 2), mz)


def test_mz_polygon_twist_equivariance():
    mz = mz_polygon(OOO)
    t2 = triple_from(TriplePattern.ADJACENT, DyadicLabel(2))
    mz2 = mz_polygon(t2)
    moved = [(p.x + 1, p.y + p.x + Fraction(1, 2)) for p in mz.vertices]
    assert [(p.x, p.y) for p in mz2.vertices] == moved


def test_mz_contains_tr_interior():
    rng = random.Random(23)
    for _ in range(10):
        t = random_triple(rng, max_m=3)
        tr = tr_polygon(t)
        mz = mz_polygon(t)
        a, b, c = tr.vertices
        for _ in range(20):
            w = sorted([Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)),
                        Fraction(rng.randint(1, 9))])
            tot = sum(w)
            x = (w[0] * a.x + w[1] * b.x + w[2] * c.x) / tot
            y = (w[0] * a.y + w[1] * b.y + w[2] * c.y) / tot
            p = AffPt(x, y)
            if point_in_polygon(p, tr):
                assert point_in_polygon(p, mz)


def test_integer_polygon_core_matches_the_fraction_loop():
    rng = random.Random(6161)
    inside = outside = 0
    for _ in range(60):
        t = random_triple(rng, max_m=4)
        for poly in (mz_polygon(t), tr_polygon(t)):
            vs = poly.vertices
            n = len(vs)
            points = []
            for i, (a, b) in enumerate(zip(vs, vs[1:] + vs[:1])):
                # the vertices and edge midpoints, with their flags (the open
                # pentagon holds neither), then points along and off the edge
                points += [(a, poly.vertex_included[i]),
                           (AffPt((a.x + b.x) / 2, (a.y + b.y) / 2), poly.edge_included[i])]
                f = Fraction(rng.randint(1, 99), 100)
                points.append((AffPt(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)), None))
                c = vs[(i + 2) % n]
                for g in (Fraction(1, rng.randint(2, 10 ** 6)), -Fraction(1, rng.randint(2, 100))):
                    points.append((AffPt(a.x + f * (b.x - a.x) + g * (c.x - a.x),
                                         a.y + f * (b.y - a.y) + g * (c.y - a.y)), None))
            for p, want in points:
                got = in_polygon_by_fractions(p, poly)
                assert want is None or got is want
                inside += got
                outside += not got
                assert point_in_polygon(p, poly) is got, (t.labels, p)
                # any positive multiple of the point's vector, negative x included
                w, X, Y = (p.x.denominator * p.y.denominator, p.x.numerator * p.y.denominator,
                           p.y.numerator * p.x.denominator)
                k = rng.randint(1, 50)
                assert _in_polygon_ints(k * w, k * X, k * Y, poly) is got, (t.labels, p, k)
    assert inside > 500 and outside > 500


def test_classify_pure_from_floats():
    p = ThetaParams.from_floats((1, 1, 1), (0.0, 1.2, 2.4))
    assert classify_cell(OOO, p, 4) is CellLabel.PURE_CELL


def test_classify_geo_cell():
    report = classify_cell_report(OOO, GEO_PARAMS, 6)
    assert report.label is CellLabel.GEO_CELL
    assert report.kernel is not None
    assert report.kernel.point() == AffPt(Fraction(1, 2), 0)
    assert "pentagon and region" in report.reason


PLUS_PARAMS = ThetaParams.from_units(
    (1, 1, 1), (u(-1, 0), u("3/5", "4/5"), u("4/5", "3/5")), (-1, 1, 2))


def test_classify_plus_leg_by_orientation():
    report = classify_cell_report(OOO, PLUS_PARAMS, 6)
    assert report.label is CellLabel.PLUS_LEG
    assert report.kernel.gen == CharVec(56, 110, 95)
    assert report.kernel.point() == AffPt(Fraction(55, 28), Fraction(95, 56))
    assert point_in_polygon(report.kernel.point(), mz_polygon(OOO))
    assert "orientation determinant" in report.reason


def test_classify_minus_leg():
    p = ThetaParams.from_units(
        (1, 1, 1), (u(-1, 0), u("-3/5", "4/5"), u("-4/5", "3/5")), (-1, 0, 2))
    f1, f2, f3 = (f.approx() for f in p.phases())
    assert f2 - f1 < 1 and f3 - f2 > 1
    assert classify_cell(OOO, p, 6) is CellLabel.MINUS_LEG


def test_classify_kernel_outside_pentagon():
    # Phases compatible with the leg inequalities but a kernel point far
    # from the triple's pentagon: never a geometric cell.
    p = ThetaParams.from_units(
        (1, 4, 8), (u(-1, 0), u("3/5", "4/5"), u("4/5", "3/5")), (-1, 1, 2))
    report = classify_cell_report(OOO, p, 6)
    assert report.label in (CellLabel.PLUS_LEG, CellLabel.MINUS_LEG,
                            CellLabel.PURE_CELL)


def test_classify_partition_randomized():
    rng = random.Random(41)
    counts = {label: 0 for label in CellLabel}
    for _ in range(300):
        t = random_triple(rng, max_m=3)
        p = random_valid_params(rng)
        counts[classify_cell(t, p, 6)] += 1
    assert sum(counts.values()) == 300
    assert counts[CellLabel.UNKNOWN] == 0
    assert counts[CellLabel.PURE_CELL] > 0


def test_degeneracy_implies_pure_exhaustive_gaps():
    for g1, g2 in ((1, 1), (1, 2), (2, 1)):
        for u2 in (u(-1, 0), u(0, 1), u("-20/29", "21/29")):
            p = ThetaParams.from_units((1, 1, 1), (u2, u2, u2),
                                       (0, g1, g1 + g2))
            Z = charge_from_params(OOO, p)
            k1, k2 = p.k2 - p.k1, p.k3 - p.k2
            assert (k1, k2) == (g1, g2)
            vals = [z_eval(Z, c) for c in OOO.chars]
            assert all(v.re * vals[0].im == v.im * vals[0].re for v in vals)
            assert classify_cell(OOO, p, 4) is CellLabel.PURE_CELL


def test_stable_set_pure_generators():
    gens = stable_set_pure(OOO)
    assert [g.char for g in gens] == list(OOO.chars)
    assert all(g.shift == 0 for g in gens)
    for g in gens:
        assert type(g).from_json(g.to_json()) == g


def test_gl_act_identity_and_scaling():
    p = GEO_PARAMS
    assert gl_act(GLElement.identity(), p) == p
    doubled = gl_act(GLElement(2, 0, 0, 2), p)
    assert [float(m) for m in doubled.magnitudes()] == \
        [2 * float(m) for m in p.magnitudes()]
    assert doubled.phases() == p.phases()


def test_gl_act_rotation_roundtrip():
    rot = GLElement.rotation(Fraction(3, 5), Fraction(4, 5))
    p = PLUS_PARAMS
    q = gl_act(rot, p)
    assert q != p
    shift = q.phases()[0].approx() - p.phases()[0].approx()
    assert 0 < shift < 1
    back = gl_act(gl_inverse(rot), q)
    assert back == p


def test_gl_act_full_turn_shifts_phase_by_two():
    turn = GLElement(1, 0, 0, 1, k=1)
    p = GEO_PARAMS
    q = gl_act(turn, p)
    assert q.values() == p.values()
    assert [f.approx() for f in q.phases()] == \
        [f.approx() + 2 for f in p.phases()]


def test_gl_inverse_composes_to_identity():
    rng = random.Random(31)
    for _ in range(50):
        entries = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for _ in range(4)]
        a, b, c, d = entries
        if a * d - b * c <= 0:
            continue
        g = GLElement(a, b, c, d, k=rng.randint(-2, 2))
        p = random_valid_params(rng)
        assert gl_act(gl_inverse(g), gl_act(g, p)) == p
        assert gl_act(g, gl_act(gl_inverse(g), p)) == p


def test_gl_action_preserves_labels():
    rng = random.Random(57)
    checked = 0
    while checked < 40:
        t = random_triple(rng, max_m=3)
        p = random_valid_params(rng)
        base = classify_cell(t, p, 6)
        entries = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(4)]
        a, b, c, d = entries
        if a * d - b * c <= 0:
            continue
        g = GLElement(a, b, c, d, k=rng.randint(-1, 1))
        assert classify_cell(t, gl_act(g, p), 6) is base
        checked += 1


TRANSPORT_PARAMS = ThetaParams.from_units(
    (1, 1, 1),
    (u(-1, 0), u("21/29", "20/29"), u("-119/169", "120/169")),
    (-1, 1, 1))


def test_transport_plus_leg_oracle():
    assert classify_cell(OOO, TRANSPORT_PARAMS, 6) is CellLabel.PLUS_LEG
    t2, p2 = transport_plus_leg(OOO, TRANSPORT_PARAMS, 6)
    assert [str(l) for l in t2.labels] == ["0", "1/2", "1"]
    chi = 3
    assert p2.z2 == chi * TRANSPORT_PARAMS.z2 - TRANSPORT_PARAMS.z3
    assert (p2.z1, p2.z3) == (TRANSPORT_PARAMS.z1, TRANSPORT_PARAMS.z2)
    f1, f2, f3 = (f.approx() for f in p2.phases())
    g1, g2, g3 = (f.approx() for f in TRANSPORT_PARAMS.phases())
    assert g3 - 1 < f2 < g2
    assert f3 - f2 < 1
    assert validate_params(p2)


def test_transport_preserves_charge():
    Z = charge_from_params(OOO, TRANSPORT_PARAMS)
    t2, p2 = transport_plus_leg(OOO, TRANSPORT_PARAMS, 6)
    for c, z in zip(t2.chars, p2.values()):
        assert z_eval(Z, c) == z


def test_transport_roundtrip_exact():
    t2, p2 = transport_plus_leg(OOO, TRANSPORT_PARAMS, 6)
    t1, p1 = transport_plus_leg_inverse(t2, p2, 6)
    assert t1.labels == OOO.labels
    assert p1 == TRANSPORT_PARAMS


def test_transport_randomized_roundtrips():
    rng = random.Random(73)
    done = 0
    while done < 60:
        t = random_triple(rng, max_m=3)
        p = random_valid_params(rng)
        if classify_cell(t, p, 6) is not CellLabel.PLUS_LEG:
            continue
        f1, f2, _ = p.phases()
        if not f1.shifted(1) < f2:
            continue
        t2, p2 = transport_plus_leg(t, p, 6)
        Z = charge_from_params(t, p)
        for c, z in zip(t2.chars, p2.values()):
            assert z_eval(Z, c) == z
        t1, p1 = transport_plus_leg_inverse(t2, p2, 6)
        assert t1.labels == t.labels and p1 == p
        done += 1


def test_transport_boundary_rejected():
    p = ThetaParams.from_units(
        (1, 1, 1), (u(-1, 0), u("3/5", "4/5"), u("3/5", "4/5")), (-1, 1, 2))
    f1, f2, f3 = p.phases()
    assert f3 == f2.shifted(1)
    with pytest.raises(ValueError, match="patch"):
        transport_plus_leg(OOO, p, 6)


def test_warm_mutations_and_transports_build_no_pattern(monkeypatch):
    # a triple's labels are built once, when the triple is; a mutation or a
    # transport afterwards finds its triple by the deepest label alone
    calls = []
    build = tr._pattern_labels
    monkeypatch.setattr(tr, "_pattern_labels", lambda *a: calls.append(a) or build(*a))
    tr._triple_at.cache_clear()
    triples = [triple_from(pattern, DyadicLabel(p, 3))
               for pattern in TriplePattern for p in range(-7, 9, 2)]

    def run():
        for t in triples:
            for slot in (1, 2):
                assert mutate_right(mutate_left(t, slot), slot) == t
                assert mutate_left(mutate_right(t, slot), slot) == t
        t2, p2 = transport_plus_leg(OOO, TRANSPORT_PARAMS, 6)
        assert transport_plus_leg_inverse(t2, p2, 6) == (OOO, TRANSPORT_PARAMS)

    run()
    assert len(calls) > len(triples)
    calls.clear()
    run()
    assert calls == []


def test_warm_transports_and_chart_lookups_hash_no_label(monkeypatch):
    # the label caches are keyed by the integers (p, m) of their labels
    def run():
        t2, p2 = transport_plus_leg(OOO, TRANSPORT_PARAMS, 6)
        assert transport_plus_leg_inverse(t2, p2, 6) == (OOO, TRANSPORT_PARAMS)
        for label in _labels_between(Fraction(-1), Fraction(1), 4):
            char_of(label), eplus(label), el(label), er(label)

    assert label_calls(monkeypatch, run)["__hash__"] == 0


def test_warm_chart_ops_build_only_what_they_return(monkeypatch):
    # a warm chart operation runs on integers: no Fraction, no RatComplex,
    # each triple's data computed once, and gl_act builds the three phases
    # and the one parameter record it returns
    rng = random.Random(4747)
    samples = [(random_triple(rng, max_m=4), random_valid_params(rng)) for _ in range(40)]
    elements = []
    while len(elements) < 4:
        a, b, c, d = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        if a * d - b * c > 0:
            elements.append(GLElement(a, b, c, d, rng.randint(-1, 1)))
    plus = []
    while len(plus) < 8:
        t, p = random_triple(rng, max_m=3), random_valid_params(rng)
        f1, f2, _ = p.phases()
        if f1.shifted(1) < f2 and classify_cell(t, p, 6) is CellLabel.PLUS_LEG:
            plus.append((t, p))
    triples = {t for t, _ in samples + plus}
    triples |= {transport_plus_leg(t, p, 6)[0] for t, p in plus}

    def run():
        # the transported records are compared afterwards: reading their
        # values builds them
        for t, p in samples:
            assert classify_cell(t, p, 6) is classify_cell(t, gl_act(elements[0], p), 6)
            for g in elements:
                gl_act(g, p)
        return [transport_plus_leg_inverse(*transport_plus_leg(t, p, 6), 6) for t, p in plus]

    # each computation of a triple's data takes the one det3 of algebraic
    computed = Counter()
    det3 = algebraic.det3
    monkeypatch.setattr(algebraic, "det3", lambda *v: computed.update(["det3"]) or det3(*v))
    for t in triples:
        vars(t).pop("_data", None)
    assert run() == plus
    assert 0 < computed["det3"] <= len(triples)
    computed.clear()
    built = Counter()
    for cls, name in ((Fraction, "__new__"), (RatComplex, "__init__")):
        method = vars(cls)[name]
        monkeypatch.setattr(cls, name, lambda *a, _m=method, _n=cls.__name__, **k:
                            built.update([_n]) or _m(*a, **k))
    for cls in (Phase, ThetaParams):
        make = cls._of.__func__
        monkeypatch.setattr(cls, "_of", classmethod(
            lambda c, *a, _m=make: built.update([c.__name__]) or _m(c, *a)))
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda *a, _m=init, **k:
                            built.update([type(a[0]).__name__]) or _m(*a, **k))
    back = run()
    assert not built["Fraction"] and not built["RatComplex"]
    # no computation: the data is read off the triple
    assert computed == Counter()
    assert back == plus
    for g in elements:
        for _, p in samples:
            built.clear()
            gl_act(g, p)
            assert built == {"Phase": 3, "ThetaParams": 1}


def test_geo_sufficient_condition_cross_check():
    # Narrow phase fans with both gaps at most one and total spread away
    # from two land in the geometric cell.
    rng = random.Random(97)
    done = 0
    while done < 40:
        t = random_triple(rng, max_m=2)
        p = random_valid_params(rng)
        f1, f2, f3 = p.phases()
        if not (f2 <= f1.shifted(1) and f3 <= f2.shifted(1)):
            continue
        if f3 == f1.shifted(2):
            continue
        label = classify_cell(t, p, 8)
        assert label is CellLabel.GEO_CELL, (t.labels, p)
        done += 1


def _report_by_charge_solve(t, p, depth):
    """classify_cell_report's decisions taken on the solved charge and on the
    Fraction reference of the pentagon test.

    The region test takes no part in the decision: the Fraction reference
    of it is run on every kernel point inside the pentagon as an oracle,
    and wherever it decides at this depth it must find the point GeoLP.
    """
    _, gap12_ge1, gap23_ge1 = _gaps_by_phases(p)
    if gap12_ge1 and gap23_ge1:
        return CellReport(CellLabel.PURE_CELL, depth,
                          reason="both phase gaps are at least one")
    Z = charge_from_params(t, p)
    kp = kernel_point(Z)
    reason = ""
    if not kp.is_finite:
        reason = "kernel line has rank zero"
    elif not in_polygon_by_fractions(kp.point(), mz_polygon(t)):
        reason = "kernel point outside the open pentagon"
    else:
        region = region_by_fractions(kp.point(), depth)
        assert region in (RegionClass.GEO_LP, RegionClass.UNKNOWN), (t.labels, kp, region)
        if Z.w1.re * Z.w2.im - Z.w1.im * Z.w2.re <= 0:
            reason = "orientation determinant not positive"
        else:
            return CellReport(CellLabel.GEO_CELL, depth, kp,
                              "kernel point in the pentagon and region")
    if not gap23_ge1:
        return CellReport(CellLabel.PLUS_LEG, depth, kp,
                          reason + "; upper phase gap below one")
    return CellReport(CellLabel.MINUS_LEG, depth, kp,
                      reason + "; lower phase gap below one")


def _strip_params(rng, t):
    """Valid non-pure parameters whose kernel point lies near an apex.

    The point is a weighted mean of the first or last character's
    dropped point, which is in the curve strip, and the two pentagon
    vertices next to it, so a depth below that label's leaves its slope
    uncovered.  The values are those of a random orientation-preserving
    transform of the normal-form charge at that point, or of its mirror
    image, and the branches are the first that make the phases valid
    with a gap below one.
    """
    vs = mz_polygon(t).vertices
    left, apex, right = vs[:3] if rng.random() < 0.5 else vs[2:]
    w = rng.randint(6, 30)
    x = (w * apex.x + left.x + right.x) / (w + 2)
    y = (w * apex.y + left.y + right.y) / (w + 2)
    while True:
        a, b, c, d = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        if a * d - b * c > 0:
            break
    Z = GLElement(a, b, c, d).act_charge(SQCharge(x, y).as_general())
    zs = [z_eval(Z, ch) for ch in t.chars]
    if rng.random() < 0.3:
        zs = [RatComplex(z.re, -z.im) for z in zs]
    if any(z.is_zero() for z in zs):
        return None
    parity = [0 if in_upper(z.re, z.im) else 1 for z in zs]
    for n1 in range(-1, 2):
        for n2 in range(-1, 3):
            for n3 in range(-1, 4):
                ks = [j + 2 * n for j, n in zip(parity, (n1, n2, n3))]
                p = ThetaParams(*zs, *ks)
                if not validate_params(p):
                    continue
                f1, f2, f3 = p.phases()
                if f2 < f1.shifted(1) or f3 < f2.shifted(1):
                    return p
    return None


def test_closed_form_kernel_matches_the_charge_solve():
    rng = random.Random(5150)
    patterns, labels, reasons = set(), set(), set()
    for i in range(700):
        depth = rng.randint(0, 6)
        t = random_triple(rng, max_m=4)
        if i % 3:
            p = random_valid_params(rng)
        else:
            p = _strip_params(rng, t)
            if p is None:
                continue
        report = classify_cell_report(t, p, depth)
        assert report == _report_by_charge_solve(t, p, depth), (t.labels, p, depth)
        if not i % 3:
            # a kernel point in the curve strip: no depth changes the verdict
            deep = classify_cell_report(t, p, 12)
            assert report == CellReport(deep.label, depth, deep.kernel, deep.reason)
        patterns.add(t.pattern)
        labels.add(report.label)
        reasons.add(report.reason)
    assert patterns == set(TriplePattern) and labels == set(CellLabel) - {CellLabel.UNKNOWN}
    assert any("orientation" in r for r in reasons)


def test_no_exclusion_meets_the_open_pentagon():
    """Every exclusion strictly between E1 and E3 starts on or below the lower chain.

    An exclusion hangs down from the top e(F) to e+(F), so one whose top
    lies on or below the chain e+(E1), e2, e+(E3) stays out of the open
    pentagon, whose vertical sides are E1's and E3's own exclusions.  The
    test is exact, since tops lie on the chain: e(1/2) = (1/2, -1/4) is on
    the chord from e+(O) = (0, -1) to e(O(1)) = (1, 1/2).  Every base label
    of depth at most 4 in [0, 1) in each pattern gives the 48 triples.
    """
    tops = on_chain = 0
    for k in range(16):
        for pattern in TriplePattern:
            t = triple_from(pattern, DyadicLabel(k, 4))
            pentagon = mz_polygon(t)
            e1, p1, e2, p3, e3 = pentagon.vertices
            assert (e1.x, e3.x) == (p1.x, p3.x) and not any(pentagon.edge_included)
            l1, _, l3 = t.labels
            for label in _labels_between(l1.value, l3.value, 8):
                if not l1 < label < l3:
                    continue
                top = char_of(label).proj()
                a, b = (p1, e2) if top.x <= e2.x else (e2, p3)
                above = (b.x - a.x) * (top.y - a.y) - (b.y - a.y) * (top.x - a.x)
                assert e1.x < top.x < e3.x and above <= 0, (t.labels, label)
                tops += 1
                on_chain += above == 0
    assert (tops, on_chain) == (24528, 626)


def test_the_pentagon_is_stable_for_the_triple():
    """Inside the open pentagon E1, E2 and E3 are all stable, by the segment walk.

    The points are weighted means of the vertices, and points of an edge
    pushed 2^-1 to 2^-30 of the way to the vertices' mean; those outside the
    pentagon, which need not be convex, are dropped.  Inside it the region
    test never finds a point off the region, only undecided in the strip.
    A stability test undecided at depth 12, near an edge, must be decided
    at depth 24.
    """
    rng = random.Random(650)
    points = 0
    while points < 650:
        m = rng.randint(0, 4)
        base = DyadicLabel(rng.randrange(-2 << m, 2 << m), m)
        t = triple_from(rng.choice(list(TriplePattern)), base)
        pentagon = mz_polygon(t)
        vs = pentagon.vertices
        if rng.random() < 0.5:
            ws = [rng.randint(1, 20) for _ in vs]
        else:
            i, s = rng.randrange(5), Fraction(rng.randint(1, 99), 100)
            push = Fraction(1, 2 ** rng.randint(1, 30))
            ws = [push / 5] * 5
            ws[i] += (1 - push) * (1 - s)
            ws[(i + 1) % 5] += (1 - push) * s
        P = AffPt(sum(w * v.x for w, v in zip(ws, vs)) / sum(ws),
                  sum(w * v.y for w, v in zip(ws, vs)) / sum(ws))
        if not point_in_polygon(P, pentagon):
            continue
        region = classify_point(P, 12)
        assert region in (RegionClass.GEO_LP, RegionClass.UNKNOWN), (t.labels, P)
        if region is RegionClass.UNKNOWN:
            continue
        for E in (t.E1, t.E2, t.E3):
            got = _stable_in_region(E, P, 12)
            if got is StabResult.UNKNOWN:
                got = _stable_in_region(E, P, 24)
            want = StabResult.STABLE_UNSHIFTED if P.x < E.slope else StabResult.STABLE_SHIFTED
            assert got is want, (t.labels, E.label, P)
        points += 1


def _lift_by_fractions(g, p):
    """Values and branches of gl_act by the rational formula, phase by phase."""
    def phase_in_0_2(z):
        if in_upper(z.re, z.im):
            return Phase(z.re, z.im, 0)
        return Phase(-z.re, -z.im, -1 if z.im == 0 else 1)

    lo = phase_in_0_2(RatComplex(g.a, g.c))
    hi = lo.shifted(1)
    ws, ks = [], []
    for z, k in p.slots():
        w = RatComplex(g.a * z.re + g.b * z.im, g.c * z.re + g.d * z.im)
        cand = phase_in_0_2(-w if k % 2 else w)
        if not lo < cand <= hi:
            cand = cand.shifted(2)
        assert lo < cand <= hi
        ws.append(w)
        ks.append(k + 2 * g.k + cand.k)
    return ws, ks


def _gaps_by_phases(p):
    """Validity and the two gap flags, f2 - f1 >= 1 and f3 - f2 >= 1, of the
    cell decision, on Phase records and their shifts."""
    f1, f2, f3 = p.phases()
    return f1 < f2 < f3 and f1.shifted(1) < f3, f1.shifted(1) <= f2, f2.shifted(1) <= f3


def _window_by_phases(x, y, n, lo, hi):
    """The phases f of the direction (x, y), tried branch by branch, with
    lo < f + n < hi + 1."""
    found = []
    for k in range(lo.k - n - 2, hi.k - n + 3):
        w = (-x, -y) if k % 2 else (x, y)
        if in_upper(*w) and lo < Phase(*w, k).shifted(n) < hi.shifted(1):
            found.append(Phase(*w, k))
    return found


def _at(*phases):
    """Parameters with the phases (re, im, k): slot values (-1)^k (re, im)."""
    return ThetaParams(*(RatComplex(Fraction((-1) ** k * re), Fraction((-1) ** k * im))
                         for re, im, k in phases), *(k for _, _, k in phases))


# phase triples on the order's edges: gaps of exactly one (same direction,
# next branch), the negative real axis (angle 1), equal directions on
# other branches, and outer gaps of exactly one
EDGE_PARAMS = [_at(*fs) for fs in (
    ((3, 4, 0), (3, 4, 1), (0, 1, 2)), ((3, 4, 0), (0, 1, 0), (0, 1, 1)),
    ((-1, 0, 0), (-1, 0, 1), (-1, 0, 2)), ((-1, 0, -1), (0, 1, 0), (-1, 0, 0)),
    ((-1, 0, 0), (3, 4, 1), (-1, 0, 1)), ((-1, 0, 0), (0, 1, 1), (3, 4, 2)),
    ((-1, 0, -1), (-1, 0, 0), (0, 1, 1)), ((0, 1, 0), (0, 1, 1), (0, 1, 2)),
    ((0, 1, 0), (0, 1, 0), (0, 1, 2)), ((0, 1, 0), (0, 1, 2), (0, 1, 1)),
    ((-3, 4, 0), (4, 3, 1), (-3, 4, 1)), ((-4, 3, 1), (-1, 0, 1), (-4, 3, 2)),
    ((-1, 0, 0), (-4, 3, 1), (-1, 0, 2)))]

# a half-turn and other first columns on the negative real axis, elements
# fixing the positive real direction (base branch -1), and a quarter turn
EDGE_ELEMENTS = [GLElement(*m, k) for m in ((-1, 0, 0, -1), (-2, 1, 0, -1), (1, 0, 0, 1),
                                            (2, 1, 0, 1), (3, -5, 0, 1), (0, -1, 1, 0),
                                            (-3, 0, 4, -1))
                 for k in (-1, 0, 1)]


def test_phase_order_on_integers_matches_the_phase_records():
    rng = random.Random(3011)
    edge = EDGE_PARAMS + [random_valid_params(rng) for _ in range(40)]
    valid = 0
    for p in edge + [_at(*((*rng.choice(UPPER_UNITS), rng.randint(-2, 3)) for _ in range(3)))
                     for _ in range(120)]:
        fs = p.phases()
        ok, gap12, gap23 = _gaps_by_phases(p)
        assert _phase_gaps(p) == ((gap12, gap23) if ok else None), p
        for f in fs:
            for g in fs:
                for n in (-1, 0, 1):
                    assert _below(f, n, g) == (f.shifted(n) < g), (f, n, g)
        if not ok:
            continue
        valid += 1
        # the gap flags show in the label: pure for both, and the leg names the upper gap
        for t in (OOO, random_triple(rng, max_m=3)):
            label = classify_cell(t, p, 6)
            assert (label is CellLabel.PURE_CELL) == (gap12 and gap23), p
            if label in (CellLabel.PLUS_LEG, CellLabel.MINUS_LEG):
                assert (label is CellLabel.MINUS_LEG) == gap23, p
    assert valid > 60


def test_phase_lifts_on_integers_match_the_phase_records():
    rng = random.Random(3012)
    params = [p for p in EDGE_PARAMS if validate_params(p)]
    assert len(params) == 7
    params += [random_valid_params(rng) for _ in range(20)]
    for g in EDGE_ELEMENTS:
        for p in params:
            ws, ks = _lift_by_fractions(g, p)
            q = gl_act(g, p)
            assert list(q.values()) == ws and [q.k1, q.k2, q.k3] == ks, (g, p)
    # a direction at the bound is not above it: the lift adds two
    lo = Phase(3, 4, 1)
    assert [_lift(3, 4, j, lo)[0] for j in (0, 1)] == [2, 3]
    assert [_lift(-1, 0, j, Phase(-1, 0, -1))[0] for j in (0, 1)] == [0, 1]
    # the flip's integer core: the positive real axis and the lower half-plane
    # flip, the negative real axis does not, and no zero vector has a direction
    assert [_upper_ray_ints(*v) for v in ((6, 0), (-6, 0), (4, -6), (-4, 6))] == [
        (-1, 0, 1), (-1, 0, 0), (-2, 3, 1), (-2, 3, 0)]
    for ray in (_upper_ray_ints, _upper_ray):
        with pytest.raises(ValueError, match="zero vector"):
            ray(0, 0)
    # the negative real axis lands on base + 1, the window's closed end
    for g in EDGE_ELEMENTS:
        q = gl_act(g, _at((-1, 0, 0), (0, 1, 1), (3, 4, 2)))
        assert q.phases()[0] == g.base.shifted(1 + 2 * g.k)
    # windows of every length below one, direction on either end and between
    dirs = [(-1, 0), (0, 1), (3, 4), (-3, 4), (4, 3)]
    for _ in range(400):
        x, y = rng.choice(dirs)
        x, y = (-x, -y) if rng.randint(0, 1) else (x, y)
        lo = Phase(*rng.choice(dirs), rng.randint(-2, 2))
        hi = Phase(*rng.choice(dirs), lo.k + rng.randint(-1, 0))
        if not lo < hi.shifted(1) <= lo.shifted(1):
            continue
        n = rng.randint(0, 1)
        want = _window_by_phases(x, y, n, lo, hi)
        assert len(want) <= 1
        if want:
            assert _branch_in_window(x, y, n, lo, hi) == want[0]
        else:
            with pytest.raises(ValueError, match="window"):
                _branch_in_window(x, y, n, lo, hi)


def _kernel_by_fractions(t, p):
    z1, z2, z3 = p.values()
    a1, a2, a3 = z2.cross(z3), z3.cross(z1), z1.cross(z2)
    return tuple(a1 * x1 + a2 * x2 + a3 * x3 for x1, x2, x3 in zip(*t.chars))


_entries = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@seed(9)
@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 6), st.tuples(_entries, _entries, _entries, _entries),
       st.integers(-2, 2))
def test_carried_phases_match_rebuilt_ones(case, entries, branch):
    rng = random.Random(case)
    t = random_triple(rng, max_m=4)
    p = random_valid_params(rng)
    a, b, c, d = entries
    if a * d - b * c < 0:
        a, b, c, d = b, a, d, c
    assume(a * d - b * c != 0)
    g = GLElement(a, b, c, d, branch)
    q = gl_act(g, p)
    ws, ks = _lift_by_fractions(g, p)
    assert list(q.values()) == ws and [q.k1, q.k2, q.k3] == ks
    for params in (p, q):
        by_fields = ThetaParams(*params.values(), params.k1, params.k2, params.k3)
        public = tuple(Phase(*((-z.re, -z.im) if k % 2 else (z.re, z.im)), k)
                       for z, k in params.slots())
        assert params.phases() == by_fields.phases() == public
        # the generator is KernelPoint's, and c * v a positive multiple of w
        c, v = _kernel_ints(params._ints[1], _triple_data(t)[3])
        w = _kernel_by_fractions(t, params)
        assert tuple(KernelPoint.spanned_by(w).gen) == v
        assert (c * v[0] > 0) == (w[0] > 0) and (v[0] == 0) == (w[0] == 0)


@seed(13)
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.tuples(_entries, _entries, _entries, _entries),
       st.integers(-2, 2))
def test_transport_carries_its_phases(case, entries, branch):
    rng = random.Random(case)
    while True:
        t = random_triple(rng, max_m=3)
        p = random_valid_params(rng)
        f1, f2, _ = p.phases()
        if f1.shifted(1) < f2 and classify_cell(t, p, 6) is CellLabel.PLUS_LEG:
            break
    a, b, c, d = entries
    if a * d - b * c < 0:
        a, b, c, d = b, a, d, c
    assume(a * d - b * c != 0)
    g = GLElement(a, b, c, d, branch)
    back = gl_inverse(g)
    t2, p2 = transport_plus_leg(t, p, 6)
    t1, p1 = transport_plus_leg_inverse(t2, p2, 6)
    assert (t1, p1) == (t, p) and p1.phases() == p.phases()
    for tt, params in ((t2, p2), (t1, p1)):
        by_fields = ThetaParams(*params.values(), params.k1, params.k2, params.k3)
        public = tuple(Phase(*((-z.re, -z.im) if k % 2 else (z.re, z.im)), k)
                       for z, k in params.slots())
        assert params.phases() == by_fields.phases() == public
        moved = gl_act(back, params)
        assert classify_cell(tt, moved, 6) is classify_cell(tt, params, 6)
        again = gl_act(g, moved)
        assert again == params and again.phases() == params.phases()


def _transport_by_fractions(t, p, forward):
    """Values and branches of a transport by the rational formula.

    Forward, the new middle value is chi z2 - z3 and the new last slot the
    old middle one; back, the old last value is chi z3 - z2.  The new
    branch is found by trying each one near the window.
    """
    z1, z2, z3 = p.values()
    f1, f2, f3 = p.phases()
    chi = euler_chi(t.E2.char, t.E3.char)
    if forward:
        z, lo, hi = chi * z2 - z3, f3.shifted(-1), f2
    else:
        z, lo, hi = chi * z3 - z2, f3, f2.shifted(1)
    found = [k for k in range(lo.k - 1, hi.k + 2)
             if in_upper(*((-z.re, -z.im) if k % 2 else (z.re, z.im)))
             and lo < Phase(*((-z.re, -z.im) if k % 2 else (z.re, z.im)), k) < hi]
    assert len(found) == 1
    if forward:
        return [z1, z, z2], [p.k1, found[0], p.k2]
    return [z1, z3, z], [p.k1, p.k3, found[0]]


def _assert_ints_canonical(p):
    assert p._ints == _scaled_ints([x for z in p.values() for x in (z.re, z.im)])


def test_integer_action_matches_the_fraction_reference():
    rng = random.Random(2808)
    for _ in range(60):
        t = random_triple(rng, max_m=3)
        p = random_valid_params(rng)
        while not (p.phases()[0].shifted(1) < p.phases()[1]
                   and classify_cell(t, p, 6) is CellLabel.PLUS_LEG):
            p = random_valid_params(rng)
        chain, q, n = [], p, rng.randint(1, 6)
        while len(chain) < n:
            a, b, c, d = (Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4))
            if a * d - b * c <= 0:
                continue
            g = GLElement(a, b, c, d, rng.randint(-2, 2))
            ws, ks = _lift_by_fractions(g, q)
            q = gl_act(g, q)
            assert list(q.values()) == ws and [q.k1, q.k2, q.k3] == ks
            _assert_ints_canonical(q)
            chain.append(g)
            # the action keeps the plus leg's patch, so both transports apply
            t2, q2 = transport_plus_leg(t, q, 6)
            ws, ks = _transport_by_fractions(t, q, True)
            assert list(q2.values()) == ws and [q2.k1, q2.k2, q2.k3] == ks
            _assert_ints_canonical(q2)
            t1, q1 = transport_plus_leg_inverse(t2, q2, 6)
            ws, ks = _transport_by_fractions(t2, q2, False)
            assert list(q1.values()) == ws and [q1.k1, q1.k2, q1.k3] == ks
            _assert_ints_canonical(q1)
            assert t1 == t and q1 == q and q1._ints == q._ints
        for g in reversed(chain):
            back = gl_inverse(g)
            ws, ks = _lift_by_fractions(back, q)
            q = gl_act(back, q)
            assert list(q.values()) == ws and [q.k1, q.k2, q.k3] == ks
            _assert_ints_canonical(q)
        assert q == p and q._ints == p._ints and q.phases() == p.phases()
