"""The value records against twins built with dataclasses as an oracle.

Each record of the package is built by ``corekit._record``.  Its twin is a
``dataclasses.make_dataclass(..., frozen=True)`` class with the fields and
defaults listed here and the record's class body, where ``dataclass``
makes the methods the helper makes, except those the record writes
itself, which ``dataclass`` would have kept too.  On seeded values the two
must agree on ``repr``, ``==``, ``!=``, ``hash``, positional, keyword and
default construction, and on refusing assignment and deletion.
"""

import dataclasses
import itertools
import random
import sys
from fractions import Fraction

import pytest

from conftest import random_triple, random_valid_params
from stabscope import algebraic, corekit, exceptional, geometric, lepotier, walls
from stabscope.exceptional import DyadicLabel, ExcBundle
from stabscope.surd import QuadReal


def _frac(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, 6))


def _char(rng):
    return corekit.CharVec(_frac(rng), _frac(rng), _frac(rng))


def _number(rng):
    if rng.random() < 0.2:
        return QuadReal(_frac(rng), _frac(rng), rng.choice((2, 3, 5)))
    return _frac(rng)


def _point(rng):
    return corekit.AffPt(_number(rng), _number(rng))


def _segment(rng):
    a = corekit.AffPt(_frac(rng), _frac(rng))
    while True:
        b = corekit.AffPt(_frac(rng), _frac(rng))
        if b != a:
            return corekit.Segment(a, b)


def _polygon(rng):
    return algebraic.mz_polygon(random_triple(rng, 3))


def _label(rng):
    m = rng.randint(0, 3)
    return DyadicLabel(rng.randint(-3 << m, 3 << m), m)


def _curve(rng):
    lo = Fraction(rng.randint(-4, 3))
    return lepotier.build_curve(rng.randint(0, 2), (lo, lo + Fraction(rng.randint(1, 4), 4)))


def _tent(rng):
    return rng.choice(_curve(rng).tents)


def _complex(rng):
    return geometric.RatComplex(_frac(rng), _frac(rng))


def _phase(rng):
    while True:
        re, im = rng.randint(-6, 6), rng.randint(0, 6)
        if geometric.in_upper(re, im):
            return geometric.Phase(re, im, rng.randint(-3, 3))


def _gl(rng):
    while True:
        a, b, c, d = (_frac(rng) for _ in range(4))
        if a * d - b * c > 0:
            return geometric.GLElement(a, b, c, d, rng.randint(-2, 2))


def _kernel(rng):
    while True:
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        if any(v):
            return geometric.KernelPoint.spanned_by(v)


def _report(rng):
    kernel = _kernel(rng) if rng.random() < 0.5 else None
    return algebraic.CellReport(rng.choice(list(algebraic.CellLabel)), rng.randint(0, 9),
                                kernel, rng.choice(("", "inside", "outer gap")))


def _wall(rng):
    while True:
        v, w = _char(rng), _char(rng)
        try:
            wall = walls.wall_line(v, w)
        except ValueError:
            continue
        clip = walls.clip_line(wall.line, (-4, 4, -4, 4)) if rng.random() < 0.5 else None
        return walls.WallLine(v, w, wall.line, clip)


# each record, its fields in order, the defaults of its trailing fields,
# the methods it writes itself, and a seeded sampler of its instances
RECORDS = [
    (corekit.CharVec, "ch0 ch1 ch2", {}, "__init__", _char),
    (corekit.AffPt, "x y", {}, "", _point),
    (corekit.ProjLine, "c0 c1 c2", {}, "__post_init__",
     lambda rng: corekit.ProjLine(*(_frac(rng) for _ in range(2)), _frac(rng) or 1)),
    (corekit.Segment, "a b", {}, "__post_init__", _segment),
    (corekit.Polygon, "vertices edge_included vertex_included", {}, "__post_init__", _polygon),
    (exceptional.ExcBundle, "label char", {}, "__hash__", lambda rng: ExcBundle.of(_label(rng))),
    (exceptional.ExcTriple, "E1 E2 E3 pattern base", {}, "", random_triple),
    (lepotier.CurveSegment, "label side start end line", {}, "",
     lambda rng: rng.choice((_tent(rng).left, _tent(rng).right))),
    (lepotier.ExclusionSegment, "label x y_top y_bottom", {}, "",
     lambda rng: _tent(rng).exclusion),
    (lepotier.Tent, "label apex left right exclusion", {}, "", _tent),
    (lepotier.CurveApprox, "tents segments exclusions", {}, "", _curve),
    (geometric.RatComplex, "re im", {"im": Fraction(0)}, "__init__", _complex),
    (geometric.SQCharge, "s q", {}, "__init__",
     lambda rng: geometric.SQCharge(_frac(rng), _frac(rng))),
    (geometric.GeneralCharge, "w0 w1 w2", {}, "",
     lambda rng: geometric.GeneralCharge(_complex(rng), _complex(rng), _complex(rng))),
    (geometric.ShiftedChar, "char shift", {"shift": 0}, "",
     lambda rng: geometric.ShiftedChar(_char(rng), rng.randint(-2, 2))),
    (geometric.Phase, "re im k", {"k": 0}, "__init__", _phase),
    (geometric.KernelPoint, "gen", {}, "", _kernel),
    (geometric.GLElement, "a b c d k", {"k": 0}, "__init__", _gl),
    (algebraic.ThetaParams, "z1 z2 z3 k1 k2 k3", {"k1": 0, "k2": 0, "k3": 0}, "__post_init__",
     random_valid_params),
    (algebraic.CellReport, "label depth kernel reason", {"kernel": None, "reason": ""}, "",
     _report),
    (walls.WallLine, "v w line clip", {"clip": None}, "", _wall),
]
IDS = [r[0].__name__ for r in RECORDS]
SAMPLES = 24


# what the record helper adds to a class, unless the class writes it
MADE = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}


def _twin(cls, fields, defaults, own):
    """The class body of cls under dataclass(frozen=True), with the listed fields."""
    spec = [(n, object, dataclasses.field(default=defaults[n])) if n in defaults else (n, object)
            for n in fields]
    namespace = {name: value for name, value in vars(cls).items()
                 if name not in MADE - set(own.split())
                 and name not in ("__dict__", "__weakref__", "__annotations__")}
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace, frozen=True)


def _values(record, fields):
    return tuple(getattr(record, n) for n in fields)


def _hash(x):
    """The hash, or the message of the TypeError for an irrational surd in a field."""
    try:
        return hash(x)
    except TypeError as err:
        return str(err)


def _built(make, *args):
    """The repr of make(*args), or the message of the ValueError it raises."""
    try:
        return repr(make(*args))
    except ValueError as err:
        return f"ValueError: {err}"


def _refusal(action):
    with pytest.raises(AttributeError) as info:
        action()
    return str(info.value)


def test_every_record_is_listed_once():
    made = {obj for mod in (corekit, exceptional, lepotier, geometric, algebraic, walls)
            for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == mod.__name__
            and obj.__setattr__ is corekit._frozen_setattr}
    assert made == {r[0] for r in RECORDS} and len(RECORDS) == 21


@pytest.mark.parametrize("cls,fields,defaults,own,sample", RECORDS, ids=IDS)
def test_record_matches_its_dataclass_twin(cls, fields, defaults, own, sample):
    fields = fields.split()
    twin = _twin(cls, fields, defaults, own)
    module = sys.modules[cls.__module__].__file__
    for name in ("__init__", "__hash__", "__post_init__"):
        if name in vars(cls):
            # the class's own methods are kept, the others are made for it
            assert (vars(cls)[name].__code__.co_filename == module) == (name in own.split())
    rng = random.Random(f"records-{cls.__name__}")
    pairs = []
    for _ in range(SAMPLES):
        r = sample(rng)
        vals = _values(r, fields)
        t = twin(*vals)
        assert repr(r) == repr(t)
        assert _hash(r) == _hash(t)
        # positional and keyword construction give the same record
        for again in (cls(*vals), cls(**dict(zip(fields, vals)))):
            assert again == r and not (again != r) and _hash(again) == _hash(r)
            assert repr(again) == repr(r)
        # defaults apply to the trailing fields left out
        required = len(fields) - len(defaults)
        assert _built(cls, *vals[:required]) == _built(twin, *vals[:required])
        assert (_built(cls, *vals[:required])
                == _built(cls, *vals[:required], *defaults.values()))
        # never equal to an instance of another class, even with equal fields
        assert r.__eq__(t) is NotImplemented and r != t and not (r == t)
        assert r.__eq__(object()) is NotImplemented
        for name in fields + ["extra"]:
            assert _refusal(lambda: setattr(r, name, 0)) == _refusal(lambda: setattr(t, name, 0))
            assert _refusal(lambda: delattr(r, name)) == _refusal(lambda: delattr(t, name))
        pairs.append((r, t))
    # == and != agree with the twins', also on records that differ in one field
    for (r, t), (r2, t2) in itertools.product(pairs[:8], repeat=2):
        assert (r == r2) == (t == t2) and (r != r2) == (t != t2)
        for i in range(len(fields)):
            vals = list(_values(r, fields))
            vals[i] = getattr(r2, fields[i])
            assert _built(cls, *vals) == _built(twin, *vals)
            try:
                mixed = cls(*vals)
            except ValueError:
                continue  # values that the record's own checks refuse
            mixed_twin = twin(*vals)
            assert (mixed == r) == (mixed_twin == t)
            assert (mixed != r) == (mixed_twin != t)
            assert (_hash(mixed) == _hash(r)) == (_hash(mixed_twin) == _hash(t))


def test_records_of_different_classes_never_compare_equal():
    rng = random.Random("records-across")
    samples = [sample(rng) for *_, sample in RECORDS]
    for a, b in itertools.permutations(samples, 2):
        assert a != b and not (a == b)


def test_derived_attributes_stay_out_of_the_key():
    rng = random.Random("records-derived")
    for _ in range(SAMPLES):
        poly = _polygon(rng)
        g = _gl(rng)
        p = random_valid_params(rng)
        assert poly.scaled and g.scaled and g.base and p._phases and p._ints
        # the record _of makes has no values until they are read
        lazy = algebraic.ThetaParams._of(p._ints, (p.k1, p.k2, p.k3), None)
        assert not {"z1", "z2", "z3"} & set(vars(lazy))
        others = (corekit.Polygon(poly.vertices, poly.edge_included, poly.vertex_included),
                  geometric.GLElement(g.a, g.b, g.c, g.d, g.k),
                  lazy,
                  algebraic.ThetaParams(*p.values(), p.k1, p.k2, p.k3))
        for record, other, derived in zip((poly, g, p, p), others,
                                          ("scaled", "scaled base", "_phases", "_phases _ints")):
            for name in derived.split():
                object.__setattr__(other, name, ("not", "the", name))
                assert name not in repr(record)
            assert other == record and hash(other) == hash(record)
            assert repr(other) == repr(record)
        # made from the vector, the values are those of the constructor's record
        built = algebraic.ThetaParams(*p.values(), p.k1, p.k2, p.k3)
        lazy = algebraic.ThetaParams._of(p._ints, (p.k1, p.k2, p.k3), p._phases)
        assert hash(lazy) == hash(built) and lazy == built and repr(lazy) == repr(built)
        assert lazy.values() == built.values() and lazy._ints == built._ints
