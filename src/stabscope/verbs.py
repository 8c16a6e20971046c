"""The handlers of the CLI verbs that read triples, the chart or walls.

triple, mutate, classify-cell, transport, wall and walls keep their
handlers, the chart options' parsing and their payloads here, so the
other verbs do not compile them.  Like the handlers in stabscope.cli,
each imports the modules it uses when it runs: the wall verbs load no
triple code, and only the chart verbs load the chart.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .cli import _depth, _emit
from .corekit import CharVec, ProjLine, format_rational, parse_rational
from .exceptional import DyadicLabel, ExcBundle, _labels_between

if TYPE_CHECKING:
    from .algebraic import ThetaParams
    from .triples import ExcTriple


def _rats(text: str, n: int) -> list[Fraction]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated rationals, got {text!r}")
    return [parse_rational(p) for p in parts]


def _charvec(text: str) -> CharVec:
    return CharVec(*_rats(text, 3))


def _triple(text: str) -> ExcTriple:
    from .triples import detect_triple
    labels = [DyadicLabel.parse(p) for p in text.split(",")]
    if len(labels) != 3:
        raise ValueError("a triple needs three comma-separated labels")
    t = detect_triple(*labels)
    if t is None:
        raise ValueError("labels do not form a standard triple pattern")
    return t


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
        f"{format_rational(z.re)}:{format_rational(z.im)}:{k}" for z, k in p.slots())
    data["m_approx"] = [float(m) for m in p.magnitudes()]
    data["phi_approx"] = [f.approx() for f in p.phases()]
    return data


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


def _make_triple(args) -> int:
    from .triples import TriplePattern, triple_from
    pattern = {"adj": TriplePattern.ADJACENT, "right": TriplePattern.RIGHT_EXTENDED,
               "left": TriplePattern.LEFT_EXTENDED}[args.pattern]
    return _emit(_triple_json(triple_from(pattern, DyadicLabel.parse(args.base))))


def _mutate(args) -> int:
    from .triples import mutate_left, mutate_right
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
        from .render import _print_rows, _row
        return _print_rows([_row(wl.clip.a.x, wl.clip.a.y, wl.clip.b.x, wl.clip.b.y,
                                 "wall", by_char[wl.w]) for wl in found],
                           args.format, (window[0], window[1]))
    return _emit({"v": v.to_json(),
                  "walls": [{"label": by_char[wl.w], "w": wl.w.to_json(),
                             **_line_json(wl.line),
                             "clip": {"start": wl.clip.a.to_json(),
                                      "end": wl.clip.b.to_json()}} for wl in found]})
