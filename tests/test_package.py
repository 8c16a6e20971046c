"""The package loads its modules lazily and keeps every public name."""

import ast
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import stabscope
from conftest import fresh_run
from stabscope.corekit import AffPt

MODULES = ("surd", "corekit", "polygon", "exceptional", "triples", "lepotier", "curve",
           "geometric", "algebraic", "walls")


def test_import_loads_no_submodule():
    done, _ = fresh_run([], program=(
        "import json, sys, stabscope; print(json.dumps(sorted("
        "m for m in sys.modules if m.startswith('stabscope.'))))"))
    assert done.returncode == 0 and done.stderr == b""
    assert json.loads(done.stdout) == []


def test_every_public_name_is_its_home_object():
    assert len(stabscope.__all__) == len(set(stabscope.__all__)) == 80
    modules = [importlib.import_module(f"stabscope.{m}") for m in MODULES]
    for name in stabscope.__all__:
        value = getattr(stabscope, name)
        holders = [m for m in modules if hasattr(m, name)]
        assert holders, name
        assert all(getattr(m, name) is value for m in holders), name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from stabscope import *", namespace)
    assert set(stabscope.__all__) <= set(namespace)
    assert set(stabscope.__all__) <= set(dir(stabscope))
    assert "__version__" in dir(stabscope)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stabscope.no_such_name
    with pytest.raises(ImportError):
        exec("from stabscope import no_such_name", {})
    # a module whose names moved answers those alone, not the new home's private ones
    for module, name in (("corekit", "_in_polygon_ints"), ("exceptional", "_triple_at"),
                         ("lepotier", "_tent"), ("lepotier", "no_such_name")):
        with pytest.raises(AttributeError, match=f"stabscope.{module}' has no attribute '{name}'"):
            getattr(importlib.import_module(f"stabscope.{module}"), name)


def _imported(tree):
    """The absolute module names that a source imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_sources_are_python_3_10_and_standard_library_only():
    files = sorted(Path(stabscope.__file__).parent.glob("*.py"))
    # with __init__, cli and the CLI's output-only verbs and render
    assert len(files) == len(MODULES) + 4
    for path in files:
        tree = ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        for name in _imported(tree):
            top = name.partition(".")[0]
            assert top == "stabscope" or top in sys.stdlib_module_names, (path.name, name)


# importing dataclasses, which loads inspect, and decorating each record
# cost every CLI verb about a quarter of its start-up; corekit._record
# makes the records instead
SLOW_IMPORTS = ("dataclasses", "inspect")


def _slow_imports(tree):
    return [name for name in _imported(tree) if name.partition(".")[0] in SLOW_IMPORTS]


def test_no_module_imports_dataclasses():
    for path in sorted(Path(stabscope.__file__).parent.glob("*.py")):
        assert _slow_imports(ast.parse(path.read_text())) == [], path.name
    assert _slow_imports(ast.parse("from dataclasses import dataclass, field")) == ["dataclasses"]
    assert _slow_imports(ast.parse("def f():\n    import dataclasses as dc, math")) == ["dataclasses"]
    assert _slow_imports(ast.parse("from inspect import signature\nfrom .corekit import _record")) == ["inspect"]


# the functions that make floats for display or for input, nothing else
FLOAT_MAKERS = ("__float__", "approx", "from_floats")
FLOAT_CALLS = ("float", "complex", "sqrt")
# math functions that stay exact on integers and fractions
EXACT_MATH = ("ceil", "floor", "gcd", "isqrt", "lcm")


def _float_uses(node):
    """Lines of float(), complex() and sqrt() calls, inexact math names and
    float literals, skipping the functions named in FLOAT_MAKERS.
    """
    if isinstance(node, ast.FunctionDef) and node.name in FLOAT_MAKERS:
        return []
    here = []
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        here.append(node.lineno)
    elif isinstance(node, ast.Call):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name in FLOAT_CALLS:
            here.append(node.lineno)
    elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
          and node.value.id == "math" and node.attr not in EXACT_MATH + FLOAT_CALLS):
        # math.sqrt(...) is counted once, as a call
        here.append(node.lineno)
    return here + [n for child in ast.iter_child_nodes(node) for n in _float_uses(child)]


def test_no_float_in_a_decision():
    # every verdict is exact: no module below the CLI computes a float,
    # except to display a value or to read a float input
    root = Path(stabscope.__file__).parent
    for name in MODULES:
        tree = ast.parse((root / f"{name}.py").read_text())
        assert _float_uses(tree) == [], name
    assert _float_uses(ast.parse("x = math.sqrt(2) + float(y) + 0.5")) == [1, 1, 1]
    assert _float_uses(ast.parse("t = math.tan(math.pi * a) + complex(a, b)")) == [1, 1, 1]
    assert _float_uses(ast.parse("n = math.floor(x) + math.gcd(a, b) + d.sqrt()")) == [1]
    for name in FLOAT_MAKERS:
        assert _float_uses(ast.parse(f"class Q:\n    def {name}(self):\n        return 1.0")) == []
    assert _float_uses(ast.parse("class Q:\n    def phase(self):\n        return 1.0")) == [3]


# the exact surd kernels of surd.py, the segment walk's sign tests, its
# slope entries and their ordering, the walk that holds them with its
# integer line, on its ends' integer vectors, and the tent's contact
# check, which take every sign and order on integers
SURD_KERNELS = ("_root_sign", "_mixed_sign", "_form_sign", "_floor_form")
SEGMENT_PREAMBLE = ("geo_contains_segment", "_segment_ints", "_contains_ints")
INTEGER_SIGNS = SURD_KERNELS + SEGMENT_PREAMBLE + ("_disc_sign", "_line_sign", "_above_chord",
                                                   "_slope", "_tent_ends", "_compare", "_span",
                                                   "_on_chord")
# surd values and arithmetic, and the point walk with its tents and surd points
NOT_INTEGER = ("Fraction", "QuadReal", "_poly_sign",
               "_tent_at", "_tent", "Tent", "el", "er", "eplus")
# the segment's line comes from cross3 of its ends' integer vectors, with
# no Fraction discriminant or common denominator of its slope and intercept
NOT_IN_PREAMBLE = NOT_INTEGER + ("delta", "_scaled_ints")
# exc_stable_at's rule reads P's integer vector once, for the walk and its
# class, and E's end off its integer character: no projected character,
# Fraction slope or second reading of P.  It walks the segment first and
# reaches the point walk only through _classify_ints, when the segment
# walk does not clear P
NOT_IN_STABILITY = ("proj", "slope", "to_fraction", "Fraction", "_tent_at", "_strip_class")
# the slope search of exceptional.py steps on the integer characters; its
# input is a Fraction, but it takes no CharVec, Fraction slope or surd, and
# neither does its integer core
NOT_IN_SEARCH = ("QuadReal", "char_of", "slope")
SLOPE_SEARCH = ("slope_to_label", "_slope_search", "_midpoints")
# the chart classifier decides its kernel point on the kernel's integer
# vector and builds the report's KernelPoint from it after the decision, and
# the polygon core takes a rational point's signs on integers, comparing
# with 0 alone
NOT_IN_CHART = ("Fraction", "AffPt", "point", "proj", "delta", "classify_point",
                "point_in_polygon", "_coprime_ints")
NOT_IN_POLYGON = ("Fraction", "QuadReal", "nsign", "AffPt")
# the group action, the kernel, the pentagon's five signs, transport, the
# phase-gap pass and the integer core of the upper half-plane flip compute on
# the parameters' integer vector and the phases' integers: no Fraction or
# surd, no rescaling, no value read or acted on
CHART_ON_INTS = ("gl_act", "_kernel_ints", "_in_pentagon", "transport_plus_leg",
                 "transport_plus_leg_inverse", "_phase_gaps", "_upper_ray_ints")
NOT_ON_INTS = ("Fraction", "QuadReal", "_scaled_ints", "act", "values", "z1", "z2", "z3")
# a cell is decided on the raw kernel vector by the pentagon's side-line
# signs: no gcd and no crossing count (only the report takes _primitive)
CELL_DECISION = ("_classify_cell", "_kernel_ints", "_in_pentagon")
NOT_IN_CELL = ("_primitive", "gcd", "_in_polygon_ints")
# the point and polygon decisions take rational points: they name no surd,
# no Fraction discriminant and no second exclusion rule
POINT_DECISIONS = ("classify_point", "point_in_polygon")
NOT_IN_POINT = ("QuadReal", "delta", "is_rational", "_exc_delta")
# the chart compares and lifts phases on their integers (k, re, im): it
# builds no shifted Phase record to compare once
PHASE_ON_INTS = ("gl_act", "_phase_gaps", "_classify_cell", "transport_plus_leg",
                 "transport_plus_leg_inverse", "_lift", "_branch_in_window", "_upper_ray_ints")
# a strip point is decided on its covering label's integer chord and
# exclusion lines: no point decision builds or reads a tent, a curve
# segment, a line record or a surd, and only the point walk _tent_at reads
# the contact points el, er and eplus
STRIP_DECISIONS = ("_strip_class", "_classify_ints", "classify_point", "dlp_exists")
NOT_IN_STRIP = ("Tent", "_tent", "y_on", "ProjLine", "CurveSegment", "QuadReal",
                "el", "er", "eplus")
# below the public functions a label is its integers (p, m): the point walk,
# the character cache and its recursion, the contact points, the slope search,
# the descent they share and the segment walk's label entries build no
# DyadicLabel and read no apex point or CharVec
ON_LABEL_INTS = ("_tent_at", "_strip_class", "_int_char", "_fill", "_recurrence_terms",
                 "_contact", "_slope_search", "_midpoints", "_tent_ends")
NOT_ON_LABEL_INTS = ("DyadicLabel", "eplus", "char_of")
REFUSED = {**{name: NOT_INTEGER for name in INTEGER_SIGNS},
           **{name: NOT_IN_PREAMBLE for name in SEGMENT_PREAMBLE},
           **{name: NOT_IN_SEARCH for name in SLOPE_SEARCH},
           "_stable_in_region": NOT_IN_STABILITY,
           "classify_cell_report": NOT_IN_CHART, "_classify_cell": NOT_IN_CHART,
           "_in_polygon_ints": NOT_IN_POLYGON, **{name: NOT_ON_INTS for name in CHART_ON_INTS},
           **{name: NOT_IN_POINT for name in POINT_DECISIONS}}
for _name in PHASE_ON_INTS:
    REFUSED[_name] = (*REFUSED.get(_name, ()), "shifted")
for _name in CELL_DECISION:
    REFUSED[_name] = (*REFUSED.get(_name, ()), *NOT_IN_CELL)
for _name in STRIP_DECISIONS:
    REFUSED[_name] = (*REFUSED.get(_name, ()), *NOT_IN_STRIP)
for _name in ON_LABEL_INTS:
    REFUSED[_name] = (*REFUSED.get(_name, ()), *NOT_ON_LABEL_INTS)


def _non_integer_names(tree):
    """Lines where a function named in REFUSED, or one nested in it, names
    one of the names refused to it.
    """
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in REFUSED:
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name in REFUSED[node.name]:
                    lines.append(sub.lineno)
    return lines


def test_the_segment_walk_signs_stay_on_integers():
    root = Path(stabscope.__file__).parent
    trees = {name: ast.parse((root / f"{name}.py").read_text())
             for name in ("surd", "lepotier", "exceptional", "geometric", "curve")}
    defined = {name: {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
               for name, tree in trees.items()}
    # the kernels have one home, the walk's own tests are in lepotier, and
    # the tent's contact check is with the tents, in curve
    assert set(SURD_KERNELS) <= defined["surd"] and not set(SURD_KERNELS) & defined["lepotier"]
    assert set(INTEGER_SIGNS) - set(SURD_KERNELS) - {"_on_chord"} <= defined["lepotier"]
    assert "_on_chord" in defined["curve"]
    assert set(SLOPE_SEARCH) <= defined["exceptional"]
    assert {"_int_char", "_fill", "_recurrence_terms", "_contact"} <= defined["exceptional"]
    assert {"_tent_at", "_strip_class", "_tent_ends"} <= defined["lepotier"]
    # the point walk reads its contact points through exceptional._contact alone
    assert not {"DyadicLabel", "el", "er", "eplus"} & _names(trees["lepotier"])
    assert set(STRIP_DECISIONS) <= defined["lepotier"]
    assert "_stable_in_region" in defined["geometric"]
    assert [_non_integer_names(tree) for tree in trees.values()] == [[], [], [], [], []]
    # nor does the stability rule import the point walk under its own name
    stability, = (n for n in ast.walk(trees["geometric"])
                  if isinstance(n, ast.FunctionDef) and n.name == "_stable_in_region")
    assert {"_contains_ints", "_classify_ints"} <= _names(stability)
    assert not {"_tent_at", "_strip_class"} & _names(stability)
    assert _non_integer_names(ast.parse(
        "def _mixed_sign(r, b1: Fraction, d1, b2, d2):\n    pass")) == [1]
    assert _non_integer_names(ast.parse(
        "def _floor_form(p, q, d, s):\n    return math.floor(QuadReal(p, q, d) / s)")) == [2]
    assert _non_integer_names(ast.parse("def _line_sign(s, l, x):\n    return QuadReal(x).sign()")) == [2]
    assert _non_integer_names(ast.parse(
        "def geo_contains_segment(a, b):\n    def blocks(n):\n        return surd._poly_sign(n)")) == [3]
    assert _non_integer_names(ast.parse(
        "def geo_contains_segment(a, b, depth):\n    return lepotier._tent_at(a.x, depth)")) == [2]
    assert _non_integer_names(ast.parse(
        "def geo_contains_segment(a, b, depth):\n    return a.delta() > 1")) == [2]
    assert _non_integer_names(ast.parse(
        "def geo_contains_segment(a, b, depth):\n    lcd, ints = corekit._scaled_ints((m, c))")) == [2]
    assert _non_integer_names(ast.parse(
        "def _segment_ints(pts):\n    return delta(pts[0]), _scaled_ints(pts)")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def _contains_ints(u, v, depth, a):\n    return Fraction(u[1], u[0]), _tent(v), delta(v)")) == [2, 2, 2]
    assert _non_integer_names(ast.parse(
        "def _stable_in_region(E, P, depth):\n    return to_fraction(P.x) < E.slope, E.char.proj()")) == [2, 2, 2]
    assert _non_integer_names(ast.parse(
        "def _stable_in_region(E, P, depth):\n    return Fraction(_int_char(E.label)[1])")) == [2]
    assert _non_integer_names(ast.parse(
        "def _stable_in_region(E, P, depth):\n    from .lepotier import _tent_at\n"
        "    return _tent_at(x, depth) or lepotier._strip_class(x, y, depth)")) == [3, 3]
    assert _non_integer_names(ast.parse(
        "def _stable_in_region(E, P, depth):\n    return _classify_ints(w, X, Y, depth)")) == []
    assert _non_integer_names(ast.parse("def _disc_sign(s, r, x):\n    return x.delta()")) == []
    assert _non_integer_names(ast.parse("def _disc_sign(s, r: Fraction, x):\n    pass")) == [1]
    assert _non_integer_names(ast.parse("def _compare(u, v):\n    return QuadReal(u)")) == [2]
    assert _non_integer_names(ast.parse("def _slope(p, q, d, s):\n    return Fraction(p, s)")) == [2]
    assert _non_integer_names(ast.parse("def _tent(label):\n    return QuadReal(label)")) == []
    assert _non_integer_names(ast.parse(
        "def _strip_class(w, X, Y, depth):\n    return _tent(label).y_on(x)")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def dlp_exists(v, depth):\n    return lepotier._tent(label).left.line")) == [2]
    assert _non_integer_names(ast.parse(
        "def _classify_ints(w, X, Y, depth):\n    return ProjLine(B, A, K).y_at(eplus(l).x)")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def slope_to_label(mu):\n    return slope(char_of(mu))")) == [2, 2]
    assert _non_integer_names(ast.parse("def slope_to_label(mu):\n    return Fraction(mu)")) == []
    assert _non_integer_names(ast.parse(
        "def _slope_search(num, den):\n    return char_of(DyadicLabel(q, m)).ch1")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def _slope_search(num, den):\n    return _CHARS.get((q, m)) or _fill(DyadicLabel(q, m))")) == [2]
    assert _non_integer_names(ast.parse("def _slope_search(num, den):\n    return _int_char(q, m)")) == []
    assert _non_integer_names(ast.parse(
        "def _tent_at(w, X, depth):\n    mid = DyadicLabel(2 * p + 1, m)\n"
        "    return X * r >= c * w or Fraction(X, w) >= eplus(mid).x")) == [2, 3]
    assert _non_integer_names(ast.parse(
        "def _tent_at(w, X, depth):\n    r, c, _ = _int_char(q, m)\n"
        "    return Fraction(X, w) <= _contact(q, m, 1).x")) == []
    assert _non_integer_names(ast.parse(
        "def _strip_class(w, X, Y, depth):\n    return _tent_ends(*_tent_at(w, X, depth))")) == []
    assert _non_integer_names(ast.parse(
        "def _strip_class(w, X, Y, depth):\n    label = DyadicLabel(*_tent_at(w, X, depth))")) == [2]
    assert _non_integer_names(ast.parse("def _int_char(p, m):\n    return char_of(label)")) == [2]
    assert _non_integer_names(ast.parse(
        "def _fill(p, m):\n    raise ValueError(f'rank at label {DyadicLabel(q, k)}')")) == [2]
    assert _non_integer_names(ast.parse(
        "def _fill(p, m):\n    raise ValueError(f'rank at label {Fraction(q, 1 << k)}')")) == []
    assert _non_integer_names(ast.parse(
        "def _recurrence_terms(p, m):\n    return DyadicLabel(p + 1, m), _lowest(p - 1, m)")) == [2]
    assert _non_integer_names(ast.parse(
        "def _contact(p, m, side):\n    return exceptional.char_of(label).ch0")) == [2]
    assert _non_integer_names(ast.parse(
        "def _tent_ends(p, m):\n    return _int_char(DyadicLabel(p, m))")) == [2]
    assert _non_integer_names(ast.parse("def is_exceptional_char(v):\n    return slope(v)")) == []


# the region test's names, which the chart needs none of: its open pentagon
# lies in the geometric region
REGION_NAMES = {"lepotier", "RegionClass", "_classify_ints"}


def _names(tree):
    """Every module part, imported name, variable and attribute a source names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((getattr(node, "module", None) or "").split("."))
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_the_chart_decides_on_integers():
    root = Path(stabscope.__file__).parent
    trees = {name: ast.parse((root / f"{name}.py").read_text())
             for name in ("algebraic", "polygon", "geometric")}
    defined = {name: {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
               for name, tree in trees.items()}
    assert ({"classify_cell_report", "_classify_cell", *CHART_ON_INTS}
            <= defined["algebraic"] | defined["geometric"])
    assert not _names(trees["algebraic"]) & REGION_NAMES
    for source in ("from .lepotier import x", "from . import lepotier", "import stabscope.lepotier",
                   "from .corekit import RegionClass", "def f(m):\n    return m._classify_ints(1)"):
        assert _names(ast.parse(source)) & REGION_NAMES, source
    assert "_in_polygon_ints" in defined["polygon"]
    assert [_non_integer_names(tree) for tree in trees.values()] == [[], [], []]
    assert _non_integer_names(ast.parse(
        "def classify_cell_report(t, p, depth):\n    kp = KernelPoint.spanned_by(v)\n"
        "    return point_in_polygon(kp.point(), pentagon)")) == [3, 3]
    assert _non_integer_names(ast.parse(
        "def classify_cell_report(t, p, depth):\n    return classify_point(AffPt(x, y), depth)")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def classify_cell_report(t, p, depth):\n    q = kp.gen.proj()\n    return q.delta()")) == [2, 3]
    assert _non_integer_names(ast.parse(
        "def classify_cell_report(t, p, depth):\n    return _coprime_ints((Fraction(w), X, Y))")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def _in_polygon_ints(w, X, Y, poly):\n    return nsign(Fraction(X, w))")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def _in_polygon_ints(w, X, Y, poly):\n    def one(v):\n        return QuadReal(v.x) - AffPt(X, Y).x\n"
        "    return one")) == [3, 3]
    assert _non_integer_names(ast.parse(
        "def _in_polygon_ints(w, X, Y, poly):\n    return [nsign(x) for x, _ in rel]")) == [2]
    assert _non_integer_names(ast.parse(
        "def _in_polygon_ints(w, X, Y, poly):\n    return poly.scaled[0] * w > X")) == []
    assert _non_integer_names(ast.parse("def point_in_polygon(p, poly):\n    return nsign(p.x)")) == []
    assert _non_integer_names(ast.parse(
        "def _classify_cell(t, p):\n    return point_in_polygon(AffPt(x, y), pentagon)")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def _classify_cell(t, p):\n    c, gen = _primitive(v)\n"
        "    return math.gcd(*v), _in_polygon_ints(*gen, pentagon)")) == [2, 3, 3]
    assert _non_integer_names(ast.parse(
        "def _kernel_ints(xs, doubled):\n    return _primitive(v)")) == [2]
    assert _non_integer_names(ast.parse(
        "def _in_pentagon(w, X, Y, sides):\n    return QuadReal(X) > Fraction(w)")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def _in_pentagon(w, X, Y, sides):\n    return a0 * w + b0 * X + c0 * Y > 0")) == []
    assert _non_integer_names(ast.parse(
        "def classify_cell_report(t, p, depth):\n    return KernelPoint(CharVec(*_primitive(v)[1]))")) == []
    assert _non_integer_names(ast.parse(
        "def gl_act(g, p):\n    zs = [g.act(z) for z in p.values()]\n    return ThetaParams._of(zs)")) == [2, 2]
    assert sorted(_non_integer_names(ast.parse(
        "def gl_act(g, p):\n    def one(z):\n        return Fraction(z.re)\n    return one(p.z1)"))) == [3, 4]
    assert _non_integer_names(ast.parse(
        "def _kernel_ints(xs, doubled):\n    _, xs = _scaled_ints([z.re for z in xs])")) == [2]
    assert _non_integer_names(ast.parse(
        "def transport_plus_leg(t, p, depth):\n    z2n = chi * p.z2 - p.z3")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def transport_plus_leg_inverse(t2, p2, depth):\n    return Fraction(chi) * p2.z3")) == [2, 2]
    assert _non_integer_names(ast.parse(
        "def transport_plus_leg(t, p, depth):\n    den, (x1, y1, x2, y2, x3, y3) = p._ints")) == []
    assert _non_integer_names(ast.parse(
        "def _phase_gaps(p):\n    return [z.im for z in p.values()]")) == [2]
    assert _non_integer_names(ast.parse(
        "def _upper_ray_ints(p, q):\n    return _upper_ray(Fraction(p), q)")) == [2]


def test_the_chart_orders_phases_on_integers():
    root = Path(stabscope.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    defined = Counter(node.name for tree in trees.values() for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef))
    assert set(PHASE_ON_INTS) <= {n.name for name in ("algebraic", "geometric")
                                  for n in ast.walk(trees[name]) if isinstance(n, ast.FunctionDef)}
    assert _non_integer_names(trees["algebraic"]) == _non_integer_names(trees["geometric"]) == []
    # one angle order of upper directions, which Phase and the chart share
    assert defined["_angle_cmp"] == 1
    compare, = (n for n in ast.walk(trees["geometric"])
                if isinstance(n, ast.FunctionDef) and n.name == "compare")
    assert "_angle_cmp" in _names(compare) and "_angle_cmp" in _names(trees["algebraic"])
    assert _non_integer_names(ast.parse(
        "def _phase_gaps(p):\n    return f1 < f2 < f3 and f1.shifted(1) < f3")) == [2]
    assert _non_integer_names(ast.parse(
        "def _classify_cell(t, p):\n    gap12_ge1 = f1.shifted(1) <= f2\n"
        "    gap23_ge1 = not _below(f3, -1, f2)")) == [2]
    assert _non_integer_names(ast.parse("def gl_act(g, p):\n    hi = g.base.shifted(1)")) == [2]
    assert _non_integer_names(ast.parse(
        "def transport_plus_leg(t, p, depth):\n    if not f1.shifted(1) < f2:\n        raise")) == [2]
    assert _non_integer_names(ast.parse(
        "def transport_plus_leg_inverse(t2, p2, depth):\n"
        "    return _branch_in_window(x, y, g3, g2.shifted(1))")) == [2]
    assert _non_integer_names(ast.parse(
        "def _lift(re, im, j, lo):\n    return cand if cand > lo else cand.shifted(2)")) == [2]
    assert _non_integer_names(ast.parse(
        "def _upper_ray_ints(p, q):\n    return Phase(p, q).shifted(-1)")) == [2]
    assert _non_integer_names(ast.parse(
        "def _branch_in_window(x, y, n, lo, hi):\n    def inside(f):\n"
        "        return f.shifted(n) < hi\n    return inside")) == [3]


# the surd point paths and the helpers only they used, and the plane
# predicates of corekit and lepotier that nothing called
GONE = {"_coprime_ints", "_origin_in_polygon", "_exc_delta", "HALF", "ray_above",
        "_halfplane_dir", "vec", "cross2", "x_range", "contains", "same_line", "through",
        "edges", "covers_y", "_label_cache", "_label_data"}


def test_decisions_take_rational_points():
    root = Path(stabscope.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    defined = Counter(node.name for tree in trees.values() for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef))
    assert not GONE & (set(defined) | set().union(*map(_names, trees.values())))
    assert not hasattr(AffPt, "is_rational")
    # the deleted ray order and 2-D helpers resolve from no module of the package
    modules = [stabscope] + [importlib.import_module(f"stabscope.{m}") for m in MODULES]
    for name in ("RayOrder", "ray_above", "_halfplane_dir", "vec", "cross2"):
        assert not any(hasattr(m, name) for m in modules), name
    # one helper for the primitive integer vector
    assert defined["_primitive"] == 1
    assert "QuadReal" not in _names(trees["lepotier"])
    assert [_non_integer_names(trees[name]) for name in ("lepotier", "corekit", "polygon", "curve")] \
        == [[], [], [], []]
    for function in POINT_DECISIONS:
        assert defined[function] == 1
        for name in NOT_IN_POINT:
            source = f"def {function}(p, x):\n    return {name}(p.x) or p.{name}"
            assert _non_integer_names(ast.parse(source)) == [2, 2], source
    assert _non_integer_names(ast.parse(
        "def classify_point(p, depth):\n    if not p.is_rational():\n"
        "        return p.delta() >= _exc_delta(2)")) == [2, 3, 3]
    assert _non_integer_names(ast.parse("def classify_point(p, depth):\n    return to_fraction(p.x)")) == []


def test_the_curve_records_keep_no_point_queries():
    # the strip verdict reads the covering label's integer lines, so the
    # curve output is build_curve's alone and answers no slope or height query
    from stabscope.lepotier import CurveSegment, Tent
    for record in (Tent, CurveSegment):
        for name in ("y_on", "x_lo", "x_hi"):
            assert not hasattr(record, name), (record.__name__, name)
