"""Command-line entry point exposing the library's operations.

Every verb prints a JSON payload on stdout by default; the curve and
wall arrangement verbs can also emit CSV rows or an SVG picture that
embeds the same CSV data.  Errors are reported as one-line JSON on
stderr with exit code 2; with --strict an Unknown verdict exits 3.
Output is deterministic: keys are sorted, floats use their shortest
round-trip form, and nothing depends on time or iteration order.

Each verb is declared once, in the table _VERBS near the end of this
module: its help line, its handler and its arguments.  A run adds
arguments only to the verbs its argv names, and loads only the modules
its handler imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

# every verb needs these; handlers import the rest, so a run loads only those
from .corekit import (AffPt, CharVec, ProjLine, format_rational,
                      parse_rational)
from .exceptional import (DyadicLabel, ExcBundle, ExcTriple, TriplePattern,
                          _labels_between, detect_triple, el, eplus, er,
                          mutate_left, mutate_right, triple_from)

if TYPE_CHECKING:
    from .algebraic import ThetaParams

ENV_DEPTH = "STABSCOPE_DEPTH"
DEFAULT_DEPTH = 8
MAX_GRID_POINTS = 4096


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _emit(payload) -> int:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _fail(message: str) -> int:
    sys.stderr.write(json.dumps({"error": message}, sort_keys=True) + "\n")
    return 2


def _rats(text: str, n: int) -> list[Fraction]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated rationals, got {text!r}")
    return [parse_rational(p) for p in parts]


def _charvec(text: str) -> CharVec:
    return CharVec(*_rats(text, 3))


def _triple(text: str) -> ExcTriple:
    labels = [DyadicLabel.parse(p) for p in text.split(",")]
    if len(labels) != 3:
        raise ValueError("a triple needs three comma-separated labels")
    t = detect_triple(*labels)
    if t is None:
        raise ValueError("labels do not form a standard triple pattern")
    return t


def _depth(value, source: str) -> int:
    """A depth given as text or int; it must be a non-negative integer."""
    try:
        depth = int(value)
    except ValueError:
        depth = -1
    if depth < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {value!r}")
    return depth


_PATTERNS = {
    "adj": TriplePattern.ADJACENT,
    "right": TriplePattern.RIGHT_EXTENDED,
    "left": TriplePattern.LEFT_EXTENDED,
}


def _triple_json(t: ExcTriple) -> dict:
    return {
        "pattern": t.pattern.value,
        "base": str(t.base),
        "labels": [str(lab) for lab in t.labels],
        "chars": [c.to_json() for c in t.chars],
    }


def _entries(text: str, option: str, fields: str) -> list[list[str]]:
    """The three colon-separated entries of a chart option, each of three fields."""
    entries = [part.split(":") for part in text.split(",")]
    if len(entries) != 3 or any(len(e) != 3 for e in entries):
        raise ValueError(f"{option} needs three {fields} entries")
    return entries


def _chart(args) -> tuple[ExcTriple, ThetaParams, bool]:
    """The triple of --triple and the chart parameters of one of the three
    input forms, with whether those are exact."""
    from .algebraic import ThetaParams
    t = _triple(args.triple)
    given = [name for name, val in
             (("--slots", args.slots), ("--exact-units", args.exact_units),
              ("--phi", args.phi)) if val is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --slots, --exact-units, --phi")
    if args.slots is not None:
        if args.m is not None:
            raise ValueError("--slots already encodes magnitudes; drop --m")
        slots = _entries(args.slots, "--slots", "re:im:k")
        return t, ThetaParams.from_json({"z": [e[:2] for e in slots],
                                         "k": [e[2] for e in slots]}), True
    if args.m is None:
        raise ValueError("--m is required with --exact-units or --phi")
    ms = _rats(args.m, 3)
    if args.exact_units is not None:
        units = _entries(args.exact_units, "--exact-units", "k:c:s")
        return t, ThetaParams.from_units(
            ms, [(parse_rational(c), parse_rational(s)) for _, c, s in units],
            [int(k) for k, _, _ in units]), True
    phis = [float(p) for p in args.phi.split(",")]
    if len(phis) != 3:
        raise ValueError("--phi needs three values")
    return t, ThetaParams.from_floats([float(m) for m in ms], phis), False


def _params_json(p: ThetaParams) -> dict:
    data = p.to_json()
    data["slots_arg"] = ",".join(
        f"{z.re}:{z.im}:{k}" for z, k in p.slots())
    data["m_approx"] = [float(m) for m in p.magnitudes()]
    data["phi_approx"] = [f.approx() for f in p.phases()]
    return data


def _row(x1, y1, x2, y2, kind: str, label) -> dict:
    """One CSV/SVG row: the line from (x1, y1) to (x2, y2), of a kind and label."""
    return {"x1": float(x1), "y1": float(y1), "x2": float(x2), "y2": float(y2),
            "kind": kind, "label": str(label)}


def _curve_rows(segs, excs) -> list[dict]:
    return ([_row(s.start.x, s.start.y, s.end.x, s.end.y, s.side, s.label) for s in segs]
            + [_row(e.x, e.y_top, e.x, e.y_bottom, "exclusion", e.label) for e in excs])


_CSV_HEADER = "x1,y1,x2,y2,kind,label"


def _csv(rows: Sequence[dict]) -> str:
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(",".join([repr(r["x1"]), repr(r["y1"]), repr(r["x2"]),
                               repr(r["y2"]), r["kind"], r["label"]]))
    return "\n".join(lines) + "\n"


_KIND_COLOR = {"left": "#000000", "right": "#000000",
               "exclusion": "#cc0000", "wall": "#0044cc"}


def _svg(rows: Sequence[dict], window: tuple[Fraction, Fraction]) -> str:
    """An SVG picture embedding the CSV payload in its desc element.

    The horizontal axis is ch1/ch0 and the vertical axis is ch2/ch0
    (drawn upward); three reference parabolas at discriminant levels
    0, 1/2 and 1 are included for orientation.
    """
    x0, x1 = float(window[0]), float(window[1])
    steps = 64
    parabolas = []
    for level in (0.0, 0.5, 1.0):
        pts = []
        for i in range(steps + 1):
            x = x0 + (x1 - x0) * i / steps
            pts.append((x, x * x / 2 - level))
        parabolas.append(pts)
    ys = [r[k] for r in rows for k in ("y1", "y2")]
    ys += [y for pts in parabolas for _, y in pts]
    y_lo = min(ys) if ys else -1.0
    y_hi = max(ys) if ys else 1.0
    pad = 0.5
    vb = (x0 - pad, -(y_hi + pad), (x1 - x0) + 2 * pad, (y_hi - y_lo) + 2 * pad)
    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" viewBox="'
               + " ".join(repr(v) for v in vb) + '">')
    out.append("<desc>" + _csv(rows).replace("\n", "&#10;") + "</desc>")
    for pts in parabolas:
        attr = " ".join(f"{repr(x)},{repr(-y)}" for x, y in pts)
        out.append(f'<polyline points="{attr}" fill="none" stroke="#bbbbbb" '
                   'stroke-width="0.02" stroke-dasharray="0.1,0.05"/>')
    for r in rows:
        color = _KIND_COLOR.get(r["kind"], "#000000")
        out.append(f'<line x1="{repr(r["x1"])}" y1="{repr(-r["y1"])}" '
                   f'x2="{repr(r["x2"])}" y2="{repr(-r["y2"])}" '
                   f'stroke="{color}" stroke-width="0.02"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _print_rows(rows: Sequence[dict], fmt: str, window: tuple[Fraction, Fraction]) -> int:
    sys.stdout.write(_csv(rows) if fmt == "csv" else _svg(rows, window))
    return 0


def _line_text(line: ProjLine) -> Optional[str]:
    if line.c1 == 0 and line.c2 == 0:
        return None
    if line.c2 == 0:
        return f"s={format_rational(-line.c0 / line.c1)}"
    slope_c = -line.c1 / line.c2
    icept = -line.c0 / line.c2
    if slope_c == 0:
        return f"q={format_rational(icept)}"
    text = f"q={format_rational(slope_c)}*s"
    if icept > 0:
        text += f"+{format_rational(icept)}"
    elif icept < 0:
        text += format_rational(icept)
    return text


def _line_json(line: ProjLine) -> dict:
    """The payload of a wall line, shared by wall and walls."""
    return {"line": _line_text(line),
            "coeffs": [format_rational(c) for c in (line.c0, line.c1, line.c2)]}


def _ch(args) -> CharVec:
    return CharVec(*(parse_rational(t) for t in (args.ch0, args.ch1, args.ch2)))


def _strict(args, unknown: bool) -> int:
    """A deciding verb's exit code: with --strict an Unknown verdict exits 3."""
    return 3 if args.strict and unknown else 0


def _exc(args) -> int:
    label = DyadicLabel.parse(args.label)
    if args.what == "char":
        return _emit({"char": ExcBundle.of(label).char.to_json()})
    point = {"eplus": eplus, "el": el, "er": er}[args.what](label)
    return _emit({"label": str(label), "point": point.to_json()})


def _curve(args) -> int:
    from .lepotier import build_curve
    window = (parse_rational(args.lo), parse_rational(args.hi))
    approx = build_curve(args.depth, window)
    if args.format != "json":
        return _print_rows(_curve_rows(approx.segments, approx.exclusions), args.format, window)
    return _emit({
        "depth": args.depth,
        "window": [format_rational(w) for w in window],
        "segments": [{"label": str(s.label), "side": s.side,
                      "start": s.start.to_json(), "end": s.end.to_json()}
                     for s in approx.segments],
        "exclusions": [{"label": str(e.label), "x": format_rational(e.x),
                        "top": format_rational(e.y_top),
                        "bottom": format_rational(e.y_bottom)}
                       for e in approx.exclusions],
    })


def _classify_point(args) -> int:
    from .lepotier import RegionClass, classify_point
    result = classify_point(AffPt(parse_rational(args.x), parse_rational(args.y)), args.depth)
    _emit({"class": result.value})
    return _strict(args, result is RegionClass.UNKNOWN)


def _dlp(args) -> int:
    from .lepotier import DlpResult, dlp_exists
    result = dlp_exists(_ch(args), args.depth)
    _emit({"result": result.value})
    return _strict(args, result is DlpResult.UNKNOWN)


def _charge(args) -> int:
    from .geometric import SQCharge, z_eval
    z = z_eval(SQCharge(parse_rational(args.s), parse_rational(args.q)), _ch(args))
    return _emit({"re": format_rational(z.re), "im": format_rational(z.im)})


def _stab_region(args) -> int:
    from .geometric import StabResult, _stable_in_region
    parts = args.grid.split(",")
    if len(parts) != 5:
        raise ValueError("grid must be x0,x1,y0,y1,n")
    x0, x1, y0, y1 = (parse_rational(p) for p in parts[:4])
    n = int(parts[4])
    if n < 2:
        raise ValueError("grid needs at least two samples per axis")
    if n * n > MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
    E = ExcBundle.of(DyadicLabel.parse(args.label))
    # each distinct sample once: a grid with x0 == x1 or y0 == y1 has one column or row
    xs, ys = (dict.fromkeys(lo + (hi - lo) * Fraction(i, n - 1) for i in range(n))
              for lo, hi in ((x0, x1), (y0, y1)))
    lines = ["x,y,result"]
    saw_unknown = False
    for y in ys:
        for x in xs:
            # None off the region, at the larger of --depth and the label's depth
            result = _stable_in_region(E, AffPt(x, y), args.depth)
            if result is None:
                continue
            saw_unknown = saw_unknown or result is StabResult.UNKNOWN
            lines.append(f"{format_rational(x)},{format_rational(y)},{result.value}")
    sys.stdout.write("\n".join(lines) + "\n")
    return _strict(args, saw_unknown)


def _make_triple(args) -> int:
    return _emit(_triple_json(triple_from(_PATTERNS[args.pattern], DyadicLabel.parse(args.base))))


def _mutate(args) -> int:
    op = mutate_left if args.direction == "left" else mutate_right
    return _emit(_triple_json(op(_triple(args.triple), args.slot)))


def _classify_cell(args) -> int:
    from .algebraic import classify_cell_report
    t, p, exact = _chart(args)
    report = classify_cell_report(t, p, args.depth)
    kernel = report.kernel
    return _emit({"label": report.label.value, "depth": args.depth, "exact": exact,
                  "reason": report.reason,
                  "kernel": None if kernel is None else kernel.gen.to_json(),
                  "point": kernel.point().to_json() if kernel and kernel.is_finite else None})


def _transport(args) -> int:
    from .algebraic import transport_plus_leg, transport_plus_leg_inverse
    t, p, exact = _chart(args)
    move = transport_plus_leg_inverse if args.inverse else transport_plus_leg
    t2, p2 = move(t, p, args.depth)
    return _emit({"triple": _triple_json(t2), "params": _params_json(p2), "exact": exact})


def _wall(args) -> int:
    from .walls import wall_line
    return _emit(_line_json(wall_line(_charvec(args.v), _charvec(args.w)).line))


def _walls(args) -> int:
    from .walls import walls_for
    v = _charvec(args.v)
    window = _rats(args.window, 4)
    labels = _labels_between(window[0], window[1], _depth(args.pool_depth, "--pool-depth"))
    pool = [ExcBundle.of(lab) for lab in labels]
    by_char = {e.char: str(e.label) for e in pool}
    found = walls_for(v, pool, window)
    if args.format != "json":
        return _print_rows([_row(wl.clip.a.x, wl.clip.a.y, wl.clip.b.x, wl.clip.b.y,
                                 "wall", by_char[wl.w]) for wl in found],
                           args.format, (window[0], window[1]))
    return _emit({"v": v.to_json(),
                  "walls": [{"label": by_char[wl.w], "w": wl.w.to_json(),
                             **_line_json(wl.line),
                             "clip": {"start": wl.clip.a.to_json(),
                                      "end": wl.clip.b.to_json()}} for wl in found]})


def _arg(*flags, **kw) -> tuple:
    """One argument of a verb: what add_argument takes."""
    return flags, kw


# the options several verbs share
_DEPTH = _arg("--depth", type=int)
_STRICT = _arg("--strict", action="store_true")
_CH = [_arg(f"--ch{i}", required=True) for i in range(3)]
_FORMAT = _arg("--format", choices=("json", "csv", "svg"), default="json")
_CHART = [_arg("--triple", required=True), _arg("--m"), _arg("--phi"),
          _arg("--exact-units"), _arg("--slots"), _DEPTH, _STRICT]

# verb: (help line, handler, arguments),
# in the order of the top-level help
_VERBS = {
    "exc": ("data of one exceptional bundle", _exc,
            [_arg("what", choices=("char", "eplus", "el", "er")), _arg("label")]),
    "curve": ("emit the boundary-curve approximation", _curve,
              [_arg("action", choices=("emit",)), _DEPTH,
               _arg("--from", dest="lo", required=True),
               _arg("--to", dest="hi", required=True), _FORMAT]),
    "classify-point": ("classify a point of the plane", _classify_point,
                       [_arg("--x", required=True), _arg("--y", required=True),
                        _DEPTH, _STRICT]),
    "dlp": ("semistable-sheaf existence for a character", _dlp, [*_CH, _DEPTH, _STRICT]),
    "charge": ("evaluate a normal-form charge", _charge,
               [_arg("action", choices=("eval",)), _arg("--s", required=True),
                _arg("--q", required=True), *_CH]),
    "stab-region": ("raster of exceptional stability", _stab_region,
                    [_arg("--label", required=True), _DEPTH,
                     _arg("--grid", required=True, help="x0,x1,y0,y1,n"), _STRICT]),
    "triple": ("build an exceptional triple", _make_triple,
               [_arg("action", choices=("make",)),
                _arg("--pattern", choices=tuple(_PATTERNS), required=True),
                _arg("--base", required=True)]),
    "mutate": ("mutate a triple", _mutate,
               [_arg("direction", choices=("left", "right")),
                _arg("--triple", required=True),
                _arg("--slot", type=int, choices=(1, 2), default=2)]),
    "classify-cell": ("classify a chart point into its cell", _classify_cell, _CHART),
    "transport": ("carry a plus-leg point to the mutated chart", _transport,
                  [*_CHART, _arg("--inverse", action="store_true")]),
    "wall": ("wall line between two classes", _wall,
             [_arg("--v", required=True), _arg("--w", required=True)]),
    "walls": ("wall arrangement against a bundle pool", _walls,
              [_arg("--v", required=True),
               _arg("--pool-depth", type=int, required=True),
               _arg("--window", required=True, help="x0,x1,y0,y1"), _FORMAT]),
}


def _build_parser(argv: Sequence[str]) -> _Parser:
    """A parser that knows every verb but the arguments of only those in argv."""
    # help leaves out the docstring's last paragraph, on this module; -OO drops it all
    top = _Parser(prog="stabscope", description=(__doc__ or "").rpartition("\n\n")[0])
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (help_line, _, specs) in _VERBS.items():
        p = sub.add_parser(verb, help=help_line)
        if verb in argv:
            for flags, kw in specs:
                p.add_argument(*flags, **kw)
    return top


def run(argv: Sequence[str]) -> int:
    try:
        # the variable is checked on every verb, also where --depth overrides it
        default = _depth(os.environ.get(ENV_DEPTH, DEFAULT_DEPTH), ENV_DEPTH)
        # argparse would set a leading option aside and take its value for the verb
        flag = argv[0].partition("=")[0] if argv else ""
        if flag.startswith("-") and flag != "-h" and not "--help".startswith(flag):
            raise ValueError(f"option {flag} is given before the verb: options follow the verb")
        args = _build_parser(argv).parse_args(argv)
        if [] in vars(args).values():   # argparse reads --opt=-- as no values
            raise ValueError("an option needs one value, not '--'")
        if hasattr(args, "depth"):
            args.depth = default if args.depth is None else _depth(args.depth, "--depth")
        return _VERBS[args.verb][1](args)
    except (ValueError, AssertionError, OverflowError, ZeroDivisionError) as e:
        return _fail(str(e))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
