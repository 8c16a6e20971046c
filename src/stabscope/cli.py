"""Command-line entry point exposing the library's operations.

Every verb prints a JSON payload on stdout by default; the curve and
wall arrangement verbs can also emit CSV rows or an SVG picture that
embeds the same CSV data.  Errors are reported as one-line JSON on
stderr with exit code 2; with --strict an Unknown verdict exits 3.
Output is deterministic: keys are sorted, floats use their shortest
round-trip form, and nothing depends on time or iteration order.

Each verb is declared once, in the table _VERBS near the end of this
module: its help line, its handler and its arguments.  A run adds
arguments only to the verbs its argv names, builds the parser of its
verb alone when argv starts with one, and loads only the modules its
handler imports; the handlers of the triple, chart and wall verbs are in
stabscope.verbs, and the CSV/SVG writers in stabscope.render.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Sequence

# every verb needs these; handlers import the rest, so a run loads only those
from .corekit import AffPt, CharVec, format_rational, parse_rational
from .exceptional import DyadicLabel, ExcBundle, el, eplus, er
from .surd import _digit_limit_error

ENV_DEPTH = "STABSCOPE_DEPTH"
DEFAULT_DEPTH = 8
MAX_GRID_POINTS = 4096


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


# json is imported where it is written: stab-region and the CSV and SVG
# outputs print none unless they fail
def _emit(payload) -> int:
    import json
    try:
        text = json.dumps(payload, sort_keys=True)
    except ValueError:
        # an int of the payload, such as a surd's radicand, past the digit limit
        raise _digit_limit_error() from None
    sys.stdout.write(text + "\n")
    return 0


def _fail(message: str) -> int:
    import json
    sys.stderr.write(json.dumps({"error": message}, sort_keys=True) + "\n")
    return 2


def _depth(value, source: str) -> int:
    """A depth given as text or int; it must be a non-negative integer."""
    try:
        depth = int(value)
    except ValueError:
        depth = -1
    if depth < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {value!r}")
    return depth


def _ch(args) -> CharVec:
    return CharVec(*(parse_rational(t) for t in (args.ch0, args.ch1, args.ch2)))


def _exc(args) -> int:
    label = DyadicLabel.parse(args.label)
    if args.what == "char":
        return _emit({"char": ExcBundle.of(label).char.to_json()})
    point = {"eplus": eplus, "el": el, "er": er}[args.what](label)
    return _emit({"label": str(label), "point": point.to_json()})


def _curve(args) -> int:
    from .curve import build_curve
    window = (parse_rational(args.lo), parse_rational(args.hi))
    approx = build_curve(args.depth, window)
    if args.format != "json":
        from .render import _curve_rows, _print_rows
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
    from .lepotier import classify_point
    result = classify_point(AffPt(parse_rational(args.x), parse_rational(args.y)), args.depth)
    return _emit({"class": result.value})


def _dlp(args) -> int:
    from .lepotier import dlp_exists
    return _emit({"result": dlp_exists(_ch(args), args.depth).value})


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
            # None off the region
            result = _stable_in_region(E, AffPt(x, y), args.depth)
            if result is None:
                continue
            saw_unknown = saw_unknown or result is StabResult.UNKNOWN
            lines.append(f"{format_rational(x)},{format_rational(y)},{result.value}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 3 if args.strict and saw_unknown else 0


def _later(name: str):
    """A handler that runs the function name of stabscope.verbs, which it
    loads only when its verb runs."""
    def handler(args) -> int:
        from . import verbs
        return getattr(verbs, name)(args)
    return handler


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
    "triple": ("build an exceptional triple", _later("_make_triple"),
               [_arg("action", choices=("make",)),
                _arg("--pattern", choices=("adj", "right", "left"), required=True),
                _arg("--base", required=True)]),
    "mutate": ("mutate a triple", _later("_mutate"),
               [_arg("direction", choices=("left", "right")),
                _arg("--triple", required=True),
                _arg("--slot", type=int, choices=(1, 2), default=2)]),
    "classify-cell": ("classify a chart point into its cell", _later("_classify_cell"), _CHART),
    "transport": ("carry a plus-leg point to the mutated chart", _later("_transport"),
                  [*_CHART, _arg("--inverse", action="store_true")]),
    "wall": ("wall line between two classes", _later("_wall"),
             [_arg("--v", required=True), _arg("--w", required=True)]),
    "walls": ("wall arrangement against a bundle pool", _later("_walls"),
              [_arg("--v", required=True),
               _arg("--pool-depth", type=int, required=True),
               _arg("--window", required=True, help="x0,x1,y0,y1"), _FORMAT]),
}
# the usage's list of verbs, as argparse writes it for the parser of all twelve
_VERB_LIST = "{" + ",".join(_VERBS) + "}"


def _build_parser(argv: Sequence[str]) -> _Parser:
    """A parser for argv: its verb alone when argv starts with one, else every verb.

    Only the verbs that argv names get their arguments.  An argv that
    starts with a verb is not parsed as any other, and the usage lists
    every verb all the same; help, a leading '--' and an unknown verb get
    the parser of all twelve.
    """
    # help leaves out the docstring's last paragraph, on this module; -OO drops it all
    top = _Parser(prog="stabscope", description=(__doc__ or "").rpartition("\n\n")[0])
    if argv and argv[0] in _VERBS:
        verbs = [argv[0]]
        sub = top.add_subparsers(dest="verb", required=True, metavar=_VERB_LIST)
    else:
        verbs = list(_VERBS)
        sub = top.add_subparsers(dest="verb", required=True)
    for verb in verbs:
        help_line, _, specs = _VERBS[verb]
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
    # stabscope.verbs imports this module's helpers: under python -m this
    # module is __main__, so it also answers to its own name, not a second copy
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    main()
