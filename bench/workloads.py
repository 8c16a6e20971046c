"""The four seeded workloads: inputs, one operation each, and output checks.

Each workload makes plain seeded data (``spec``) once, turns it into
program objects after every fresh import (``build``), runs one
operation per input (``op``) and checks a pass of answers against the
oracle or against properties the method must have (``check``).  Answers
are plain values, so passes made under different imports compare equal.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
F = Fraction


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Workload:
    """In-process workload; subclasses fill in the four hooks."""

    name = ""
    cold = False        # every timed pass starts from a fresh import
    warm_up = False     # setup ends with one untimed pass
    setup_reps = 3      # setups per run; setup_s is their median
    min_passes = 1
    tail_q = None       # tail percentile; None picks it from the sample count
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = self.make_spec(random.Random(seed))
        order = list(range(len(self.spec)))
        random.Random(seed + 1).shuffle(order)
        self.order = order

    def unknown(self, answer) -> bool:
        return answer == "Unknown"


# ---------------------------------------------------------------- dlp_sweep

DLP_DEPTH = 8
DLP_RANK = 12
# one cell near each magnitude; twisting by a line bundle maps the
# characters of one cell onto those of another, so every seed asks
# isomorphic questions and differs only in where they sit
DLP_MAGNITUDES = (0, 10, 300, 9000)
DLP_DELTA = (F(47, 100), F(51, 50))


class DlpSweep(Workload):
    """One cold pass of dlp_exists over every integral character of a few cells."""

    name = "dlp_sweep"
    cold = True
    setup_reps = 5
    min_passes = 2
    # p99 of these sub-millisecond operations moved 29-40 % between runs of
    # one seed, with host hiccups of a fraction of a millisecond; p90 holds
    tail_q = 0.90

    def make_spec(self, rng):
        self.cells = [rng.choice((-1, 1)) * (m + rng.randrange(8)) for m in DLP_MAGNITUDES]
        lo_d, hi_d = DLP_DELTA
        out = []
        for n in self.cells:
            for r in range(1, DLP_RANK + 1):
                for c in range(n * r, (n + 1) * r):
                    mu = F(c, r)
                    # ch2 in Z - 3c/2 with Delta = mu^2/2 - ch2/r in [lo_d, hi_d]
                    off = F(c % 2, 2)
                    k_lo = math.ceil(r * (mu * mu / 2 - hi_d) - off)
                    k_hi = math.floor(r * (mu * mu / 2 - lo_d) - off)
                    out.extend((F(r), F(c), k + off) for k in range(k_lo, k_hi + 1))
        return out

    def build(self, S):
        CharVec = S.corekit.CharVec
        return [CharVec(*v) for v in self.spec]

    def op(self, S, v):
        return S.lepotier.dlp_exists(v, DLP_DEPTH).value

    def check(self, S, inputs, answers):
        return [ans == oracle.dlp(*v, DLP_DEPTH) for v, ans in zip(self.spec, answers)]


# -------------------------------------------------------------- stab_raster

RASTER_DEPTH = 8
RASTER_GRID = 8
RASTER_LABELS = (F(0), F(1, 2), F(1, 4), F(3, 8), F(5, 16))
SLICE_BUDGETS = (3, 4, 5, 6)
SLICE_PER_BUDGET = 8
RECHECK_POINTS = 6


class StabRaster(Workload):
    """Grid points of the stab-region loop around labels of depth 0-4."""

    name = "stab_raster"
    warm_up = True
    min_passes = 3

    def make_spec(self, rng):
        n0 = rng.randint(-40, 40)
        # one label of each depth 0-4 at a fixed place in the cell, or all
        # at their mirror images mu -> -mu (dual bundles), so that every
        # seed asks isomorphic questions and builds the same curves
        mirror = rng.random() < 0.5
        labels = [n0 + (1 - f if mirror else f) for f in RASTER_LABELS]
        shift = F(rng.randint(-4, 4), 16 * RASTER_GRID)
        out = []    # (label, x, y, depth, kind)
        for label in labels:
            alpha = oracle.slope(label)
            d_lo, d_hi = oracle.disc(alpha) - F(1, 4), F(4, 5)
            g = RASTER_GRID
            for j in range(g):
                delta = d_lo + (d_hi - d_lo) * F(j, g - 1)
                for i in range(g):
                    # even grid: no column sits on the label's own slope
                    x = alpha + F(2 * i + 1 - g, 2 * g) + shift
                    out.append((label, x, x * x / 2 - delta, RASTER_DEPTH, "grid"))
        for d in SLICE_BUDGETS:
            safe = oracle.safe_delta(d)
            den = 1 << d
            gaps = []
            for k in range(den):
                a, b = oracle.slope(n0 + F(k, den)), oracle.slope(n0 + F(k + 1, den))
                local = oracle.disc(oracle.dot(a, b))
                if local > safe:
                    gaps.append((n0 + F(k, den), n0 + F(k + 1, den), a, b, local))
            for _ in range(SLICE_PER_BUDGET):
                left, right, a, b, local = rng.choice(gaps)
                x = oracle.gap_point(a, b, F(rng.randint(2, 8), 10))
                delta = safe + (local - safe) * F(rng.randint(1, 9), 10)
                label = rng.choice((left, right))
                out.append((label, x, x * x / 2 - delta, d, "slice"))
        # the budget-(d+2) recheck: every slice point, and grid points of one
        # label whose segments stay in the cell, so one deeper curve serves them
        recheck_label = rng.choice(labels[1:])
        grid = [i for i, s in enumerate(out)
                if s[0] == recheck_label and s[4] == "grid" and math.floor(s[1]) == n0]
        self.recheck = set(rng.sample(grid, min(RECHECK_POINTS, len(grid))))
        self.recheck |= {i for i, s in enumerate(out) if s[4] == "slice"}
        self.between = [F(rng.randint(1, 9), 10) for _ in out]
        return out

    def build(self, S):
        ExcBundle, AffPt = S.exceptional.ExcBundle, S.corekit.AffPt
        bundles = {}
        out = []
        for label, x, y, d, _ in self.spec:
            if label not in bundles:
                bundles[label] = ExcBundle.of(label)
            out.append((bundles[label], AffPt(x, y), d))
        return out

    def op(self, S, inp):
        E, P, d = inp
        cls = S.lepotier.classify_point(P, d)
        if cls is not S.lepotier.RegionClass.GEO_LP:
            return cls.value
        return S.geometric.exc_stable_at(E, P, d).value

    def check(self, S, inputs, answers):
        stable = ("StableUnshifted", "StableShifted")
        ok = []
        for i, ((label, x, y, d, kind), (E, P, _), ans) in enumerate(zip(self.spec, inputs, answers)):
            alpha = oracle.slope(label)
            cls = oracle.classify(x, y, d)
            good = ans in stable + ("NotStable", "Unknown") if cls == oracle.GEO_LP else ans == cls
            if kind == "slice":
                delta = x * x / 2 - y
                good = good and oracle.gap_at(x, d) is not None \
                    and oracle.safe_delta(d) <= delta < oracle.HALF
            if good and ans in stable:
                good = (ans == "StableUnshifted") == (x < alpha)
                # stability carries to every point of the open segment from E to P
                t = self.between[i]
                ex, ey = alpha, alpha * alpha / 2 - oracle.disc(alpha)
                Q = S.corekit.AffPt(ex + t * (x - ex), ey + t * (y - ey))
                good = good and S.geometric.exc_stable_at(E, Q, d).value == ans
            if good and i in self.recheck and ans != "Unknown":
                good = self.op(S, (E, P, d + 2)) == ans
            ok.append(good)
        return ok


# -------------------------------------------------------------- chart_orbit

CHART_DEPTH = 8
CHART_QUOTA = 5
# phase-gap classes: both gaps at least one (pure tail), both at most one
# (geometric head), only the upper gap below one (plus leg, transported),
# only the lower gap below one (minus leg)
GAP_CLASSES = ("pure", "head", "plus", "minus")
CHART_IMAGES = 3
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29),
                (7, 24, 25), (9, 40, 41), (12, 35, 37), (28, 45, 53))
UNITS = [(F(-1), F(0)), (F(0), F(1))] + [
    (F(sx * u, c), F(v, c)) for a, b, c in _PYTHAGOREAN
    for u, v in ((a, b), (b, a)) for sx in (1, -1)]
PATTERNS = ("adj", "right", "left")


def _phase_lt(k1, u1, k2, u2) -> bool:
    """k1 + angle(u1) < k2 + angle(u2) for units in the upper half-plane."""
    if k1 != k2:
        return k1 < k2
    return u1[0] * u2[1] - u1[1] * u2[0] > 0


def triple_labels(pattern: str, base: Fraction) -> tuple:
    """Labels of the standard triple of a pattern at a base label."""
    step = F(1, base.denominator)
    left, right = base - step, base + step
    if pattern == "adj":
        return (left, base, right)
    if pattern == "right":
        return (base, right, left + 3)
    return (right - 3, left, base)


def _det3(rows) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def kernel_point(chars, zs):
    """(s, q) of the kernel of the charge with values zs on chars, or None.

    The charge is w0*ch0 + w1*ch1 + w2*ch2; its real and imaginary
    coefficient rows solve two 3 x 3 systems, and the kernel is their
    cross product.
    """
    det = _det3(chars)
    rows = []
    for part in (0, 1):
        rhs = [z[part] for z in zs]
        rows.append([_det3([[rhs[j] if col == i else chars[j][col] for col in range(3)]
                            for j in range(3)]) / det for i in range(3)])
    (a0, a1, a2), (b0, b1, b2) = rows
    k0, k1, k2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    return None if k0 == 0 else (k1 / k0, k2 / k0)


class ChartOrbit(Workload):
    """Chart samples classified with their images under a few group elements."""

    name = "chart_orbit"
    warm_up = True
    min_passes = 5

    def make_spec(self, rng):
        # equal quotas of every pattern, base depth and phase-gap class, so
        # that each seed asks the same mix of questions
        n0 = rng.randint(-40, 40)
        out = []
        for pattern in PATTERNS:
            for m in range(4):
                for gaps in GAP_CLASSES:
                    found = 0
                    while found < CHART_QUOTA:
                        sample = self._sample(rng, n0, pattern, m)
                        if sample is not None and sample[-1] == gaps:
                            out.append(sample[:-1])
                            found += 1
        return out

    @staticmethod
    def _sample(rng, n0, pattern, m):
        """A valid chart sample and its phase-gap class, or None."""
        base = n0 + F(2 * rng.randrange(1 << (m - 1)) + 1, 1 << m) if m else F(n0)
        ms = [F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(3)]
        us = [rng.choice(UNITS) for _ in range(3)]
        k1 = rng.randint(-2, 2)
        ks = (k1, k1 + rng.randint(0, 2), k1 + rng.randint(1, 3))
        f1, f2, f3 = zip(ks, us)
        if not (_phase_lt(*f1, *f2) and _phase_lt(*f2, *f3) and _phase_lt(ks[0] + 1, us[0], *f3)):
            return None
        below12 = _phase_lt(*f2, ks[0] + 1, us[0])     # phase gap 1-2 below one
        above12 = _phase_lt(ks[0] + 1, us[0], *f2)
        below23 = _phase_lt(*f3, ks[1] + 1, us[1])
        above23 = _phase_lt(ks[1] + 1, us[1], *f3)
        if not below12 and not below23:
            gaps = "pure"
        elif not above12 and not above23:
            gaps = "head"
        elif above12 and below23:
            gaps = "plus"
        elif below12 and above23:
            gaps = "minus"
        else:
            return None
        zs = tuple((mm * u[0], mm * u[1]) if k % 2 == 0 else (-mm * u[0], -mm * u[1])
                   for mm, u, k in zip(ms, us, ks))
        # a kernel point in the curve strip would make this seed build a
        # depth-8 curve that another seed does not: keep lepotier's share
        # the same in every seed by leaving such samples out
        kernel = kernel_point([oracle.char(lab) for lab in triple_labels(pattern, base)], zs)
        if kernel is not None and kernel[0] ** 2 / 2 - kernel[1] >= oracle.HALF:
            return None
        gs = []
        while len(gs) < CHART_IMAGES:
            a, b, c, d = (F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
            if a * d - b * c > 0:
                gs.append((a, b, c, d, rng.randint(-1, 1)))
        return (pattern, base, zs, ks, gaps == "plus", tuple(gs), gaps)

    def build(self, S):
        ex, geo, alg = S.exceptional, S.geometric, S.algebraic
        pats = {"adj": ex.TriplePattern.ADJACENT, "right": ex.TriplePattern.RIGHT_EXTENDED,
                "left": ex.TriplePattern.LEFT_EXTENDED}
        out = []
        for pattern, base, zs, ks, in_patch, gs in self.spec:
            t = ex.triple_from(pats[pattern], ex.DyadicLabel.from_value(base))
            p = alg.ThetaParams(*(geo.RatComplex(*z) for z in zs), *ks)
            out.append((t, p, in_patch, [geo.GLElement(*g) for g in gs]))
        return out

    def op(self, S, inp):
        t, p, in_patch, gs = inp
        alg = S.algebraic
        label = alg.classify_cell(t, p, CHART_DEPTH)
        images = tuple(alg.classify_cell(t, alg.gl_act(g, p), CHART_DEPTH).value for g in gs)
        back = None
        if label is alg.CellLabel.PLUS_LEG and in_patch:
            t2, p2 = alg.transport_plus_leg(t, p, CHART_DEPTH)
            t3, p3 = alg.transport_plus_leg_inverse(t2, p2, CHART_DEPTH)
            back = (tuple(lab.value for lab in t3.labels),
                    tuple((z.re, z.im) for z in p3.values()), (p3.k1, p3.k2, p3.k3))
        return (label.value, images, back)

    def unknown(self, answer) -> bool:
        return answer[0] == "Unknown"

    def check(self, S, inputs, answers):
        ok = []
        for (pattern, base, zs, ks, in_patch, _), (t, p, _, _), ans in zip(self.spec, inputs, answers):
            if not isinstance(ans, tuple):      # the operation raised
                ok.append(False)
                continue
            label, images, back = ans
            labels = triple_labels(pattern, base)
            chars = [oracle.char(lab) for lab in labels]
            good = tuple(lab.value for lab in t.labels) == labels
            good = good and all(img == label for img in images)
            if label == "PlusLeg" and in_patch:
                good = good and back == (labels, zs, ks)
            Z = S.algebraic.charge_from_params(t, p)
            for (c0, c1, c2), (re, im) in zip(chars, zs):
                good = good and (Z.w0.re * c0 + Z.w1.re * c1 + Z.w2.re * c2 == re
                                 and Z.w0.im * c0 + Z.w1.im * c1 + Z.w2.im * c2 == im)
            ok.append(good)
        return ok


# --------------------------------------------------------------- cli_matrix

SLOTS = "1:0:-1,-21/29:-20/29:1,119/169:-120/169:1"
CLI_ROUND = (
    ["exc", "char", "3/2"],
    ["curve", "emit", "--from=-2", "--to", "2", "--depth", "3", "--format", "svg"],
    ["classify-point", "--x", "1/2", "--y", "0", "--depth", "4"],
    ["dlp", "--ch0", "3", "--ch1", "1", "--ch2=-2", "--depth", "4"],
    ["charge", "eval", "--s", "1/2", "--q", "0", "--ch0", "1", "--ch1", "1", "--ch2", "1/2"],
    ["stab-region", "--label", "0", "--grid=-1/2,1/2,-1/8,1/8,3", "--depth", "6"],
    ["triple", "make", "--pattern", "adj", "--base", "1"],
    ["mutate", "left", "--triple", "0,1,2"],
    ["classify-cell", "--triple", "0,1,2", f"--slots={SLOTS}", "--depth", "6"],
    ["transport", "--triple", "0,1,2", f"--slots={SLOTS}", "--depth", "6"],
    ["wall", "--v", "0,0,1", "--w", "1,0,0"],
    ["walls", "--v", "0,0,1", "--pool-depth", "1", "--window=-2,2,-1,1", "--format", "csv"],
    ["dlp", "--ch0", "3", "--ch1", "1", "--ch2=-2"],
    ["curve", "emit", "--from=-2", "--to", "2", "--depth", "6", "--format", "csv"],
)


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("STABSCOPE_DEPTH", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _options(argv) -> dict:
    """The --name value and --name=value options of an argv."""
    out = {}
    for i, a in enumerate(argv):
        if a.startswith("--") and "=" in a:
            key, val = a.split("=", 1)
            out[key] = val
        elif a.startswith("--") and i + 1 < len(argv):
            out[a] = argv[i + 1]
    return out


def _expected(argv):
    """What direct arithmetic or the oracle says a JSON verb must print."""
    verb, opts = argv[0], _options(argv)
    val = {k: F(v) for k, v in opts.items()
           if k in ("--x", "--y", "--ch0", "--ch1", "--ch2", "--s", "--q")}
    depth = int(opts.get("--depth", 8))    # the CLI's documented default
    if verb == "exc" and argv[1] == "char":
        return {"char": [fmt(c) for c in oracle.char(F(argv[2]))]}
    if verb == "classify-point":
        return {"class": oracle.classify(val["--x"], val["--y"], depth)}
    if verb == "dlp":
        return {"result": oracle.dlp(val["--ch0"], val["--ch1"], val["--ch2"], depth)}
    if verb == "charge":
        return {"re": fmt(-val["--ch2"] + val["--q"] * val["--ch0"]),
                "im": fmt(val["--ch1"] - val["--s"] * val["--ch0"])}
    if verb == "wall":
        v = [F(t) for t in opts["--v"].split(",")]
        w = [F(t) for t in opts["--w"].split(",")]
        coeffs = [v[1] * w[2] - v[2] * w[1], v[2] * w[0] - v[0] * w[2], v[0] * w[1] - v[1] * w[0]]
        return {"coeffs": [fmt(c) for c in coeffs]}
    return None


def parse_output(argv, out: bytes):
    """Parse stdout by the verb's format; raises when it does not parse."""
    text = out.decode()
    fmt_ = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if argv[0] == "stab-region" or fmt_ == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged csv")
        return rows
    if fmt_ == "svg":
        return ET.fromstring(text)
    return json.loads(text)


class CliMatrix(Workload):
    """Rounds of fresh-process CLI invocations."""

    name = "cli_matrix"
    in_process = False
    setup_reps = 5
    min_passes = 4

    def make_spec(self, rng):
        return list(CLI_ROUND)

    @staticmethod
    def _child(args):
        return subprocess.run([sys.executable] + list(args), cwd=ROOT, env=cli_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)

    def run_child(self, argv, dump=None):
        """One CLI invocation; with dump, under the tracer via launch.py."""
        head = [str(ROOT / "bench" / "launch.py"), str(dump)] if dump else ["-m", "stabscope.cli"]
        r = self._child(head + list(argv))
        return (r.returncode, r.stdout)

    def run_import(self):
        self._child(["-c", "import stabscope.cli"]).check_returncode()

    def run_floor(self) -> float:
        """Wall time of an interpreter that does nothing."""
        t0 = time.perf_counter()
        self._child(["-c", "pass"])
        return time.perf_counter() - t0

    def unknown(self, answer) -> bool:
        return b"Unknown" in answer[1]

    def check(self, S, inputs, answers):
        ok = []
        for argv, ans in zip(self.spec, answers):
            if not isinstance(ans, tuple):      # the invocation timed out
                ok.append(False)
                continue
            code, out = ans
            try:
                parsed = parse_output(argv, out)
            except (ValueError, ET.ParseError, UnicodeDecodeError):
                ok.append(False)
                continue
            want = _expected(argv)
            good = code == 0
            if want is not None:
                good = good and all(parsed.get(k) == v for k, v in want.items())
            ok.append(good)
        return ok


WORKLOADS = {w.name: w for w in (DlpSweep, StabRaster, ChartOrbit, CliMatrix)}
