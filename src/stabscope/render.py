"""CSV rows and SVG pictures of the curve and wall verbs.

A row is one line from (x1, y1) to (x2, y2), of a kind and label, in
floats for display.  curve emit and walls print the same CSV, or an SVG
picture that embeds it.  This module reads the records it is given and
imports no other part of the package.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Sequence


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
