"""Benchmark of the stabscope stack: one seeded workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in this fresh interpreter as a closed loop with one
client: one operation at a time, whole passes over a fixed seeded input
list, until S seconds of timed passes have been made.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of BENCHMARK.json with ``--trace 1``.  End-to-end
times are scaled to a reference host speed by a probe (see ``measure``).
Run outputs and span dumps go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import copy
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import types
import typing
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RAISED = "raised: "
PROBE_TERMS = 1000
PROBE_NOMINAL_S = 0.005   # the probe's time on the reference host
CHUNK_S = 0.25            # work between two probes in a pass
LAYERS = ("surd", "corekit", "exceptional", "lepotier", "geometric", "algebraic", "walls", "cli")


def fresh_import() -> types.SimpleNamespace:
    """Import the package anew, so every module-level cache starts empty."""
    for name in [n for n in sys.modules if n == "stabscope" or n.startswith("stabscope.")]:
        del sys.modules[name]
    # typing caches Union[...] of the old classes (geometric.Charge), which
    # would keep the old modules and their caches alive
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    importlib.import_module("stabscope")
    return types.SimpleNamespace(**{m: importlib.import_module(f"stabscope.{m}") for m in LAYERS})


def probe() -> float:
    """Seconds of a fixed stretch of Fraction arithmetic, the best of two.

    The probe runs the same kind of interpreter work as the program, so
    its time tracks the speed the host gives this process at the moment.
    """
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, PROBE_TERMS):
            acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Scales measured times to the reference host speed.

    A time measured between two probes is multiplied by PROBE_NOMINAL_S
    over the mean of the two probe times.
    """

    def __init__(self):
        self.last = probe()
        self.factors = []

    def factor(self) -> float:
        now = probe()
        f = PROBE_NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(f)
        return f


def _raised(answer) -> bool:
    return isinstance(answer, str) and answer.startswith(RAISED)


def tail_quantile(n_min: int) -> float:
    """Highest of p99, p90, p80 with at least ten of n_min samples beyond it."""
    for q in (0.99, 0.90, 0.80):
        if math.floor(n_min * (1 - q) + 1e-9) >= 10:
            return q
    raise ValueError(f"{n_min} operations per run leave no tail percentile")


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Runner:
    """Setup, timed passes and checks of one workload."""

    def __init__(self, wl):
        self.wl = wl
        self.S = None
        self.inputs = None
        self.tracer = None
        self.cli_lat = []

    # -- in-process workloads
    def reset(self) -> None:
        # drop every reference to the old modules first, so their caches
        # are freed before the new ones fill
        self.inputs = self.S = None
        self.S = fresh_import()
        self.inputs = self.wl.build(self.S)
        if self.tracer is not None:
            self.tracer.install()

    def one_pass(self, clock_=None):
        """One pass; latencies are scaled by the host clock when given."""
        wl, S, inputs = self.wl, self.S, self.inputs
        clock = time.perf_counter
        answers = [None] * len(inputs)
        lat = [0.0] * len(inputs)
        chunk = []
        start = mark = clock()
        for i in wl.order:
            if self.tracer is not None:
                self.tracer.op = i
            t0 = clock()
            try:
                answers[i] = wl.op(S, inputs[i])
            except Exception as exc:    # a raising operation is a failed one
                answers[i] = RAISED + repr(exc)
            lat[i] = clock() - t0
            chunk.append(i)
            if clock_ is not None and clock() - mark >= CHUNK_S:
                f = clock_.factor()
                for j in chunk:
                    lat[j] *= f
                chunk = []
                mark = clock()
        if clock_ is not None and chunk:
            f = clock_.factor()
            for j in chunk:
                lat[j] *= f
        return answers, lat, clock() - start

    # -- fresh-process workload
    def cli_pass(self, launcher_dir=None, clock_=None):
        """One round of CLI children; latencies scaled by the host clock when given."""
        wl = self.wl
        answers = [None] * len(wl.spec)
        lat = [0.0] * len(wl.spec)
        start = time.perf_counter()
        for i in wl.order:
            dump = launcher_dir / f"child-{i}.json" if launcher_dir else None
            t0 = time.perf_counter()
            try:
                answers[i] = wl.run_child(wl.spec[i], dump)
            except subprocess.TimeoutExpired as exc:
                answers[i] = RAISED + repr(exc)
            lat[i] = time.perf_counter() - t0
            if clock_ is not None:
                lat[i] *= clock_.factor()
        self.cli_lat.append(lat)
        return answers, lat, time.perf_counter() - start

    def setup(self, clock_) -> float:
        """Seconds of one setup, scaled by the host clock."""
        clock_.factor()
        t0 = time.perf_counter()
        if self.wl.in_process:
            self.reset()
            if self.wl.warm_up:
                self.one_pass()
        else:
            self.wl.run_import()
        return (time.perf_counter() - t0) * clock_.factor()

    def timed_pass(self, clock_):
        if self.wl.in_process:
            return self.one_pass(clock_)
        return self.cli_pass(clock_=clock_)

    def tally(self, answers, first):
        """(raised, wrong) operations of a pass; the first pass is checked.

        A later pass is held to the answers of the first one, so a pass
        that differs from it counts its differing operations as wrong.
        """
        raised = [_raised(a) for a in answers]
        if first is None:
            good = self.wl.check(self.S, self.inputs, answers)
        else:
            good = [a == b for a, b in zip(answers, first)]
        return sum(raised), sum(1 for r, g in zip(raised, good) if not r and not g)


def measure(wl, seconds: float):
    """End-to-end metrics of untraced passes, with tracing off.

    The speed the host gives one Python thread drifts between a fast and
    a slow state for seconds to minutes.  Every time is therefore scaled
    to the reference host speed with a probe taken every CHUNK_S of work
    (after every invocation, for cli_matrix); the unscaled figures are
    kept in the run output.
    """
    run = Runner(wl)
    clock_ = HostClock()
    setups = [run.setup(clock_) for _ in range(wl.setup_reps)]
    lat, pass_s, raw_pass_s = [], [], []
    raised = wrong = 0
    first = None
    while len(pass_s) < wl.min_passes or sum(raw_pass_s) < seconds:
        if pass_s and wl.cold:
            run.reset()
        answers, pass_lat, wall = run.timed_pass(clock_)
        r, w = run.tally(answers, first)
        raised, wrong = raised + r, wrong + w
        first = first or answers
        lat += pass_lat
        pass_s.append(sum(pass_lat))
        raw_pass_s.append(wall)
    n_ops, passes = len(wl.spec), len(pass_s)
    attempted = n_ops * passes
    failed = raised + wrong
    lat.sort()
    q = wl.tail_q or tail_quantile(n_ops * wl.min_passes)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n_ops * (1 - failed / attempted) / statistics.median(pass_s),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": nearest_rank(lat, q) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "decided": sum(1 for a in first if not _raised(a) and not wl.unknown(a)),
    }
    info = {"passes": passes, "ops_per_pass": n_ops, "tail": f"p{round(q * 100)}",
            "samples": len(lat), "setups_s": setups, "pass_s": pass_s,
            "raw_pass_s": raw_pass_s, "raw_ops_per_s": attempted / sum(raw_pass_s),
            "host_factor_median": statistics.median(clock_.factors),
            "host_factor_range": [min(clock_.factors), max(clock_.factors)]}
    if not wl.in_process:
        info["floor_s"] = statistics.median(wl.run_floor() for _ in range(wl.setup_reps))
        by_op = [[] for _ in wl.spec]
        for pass_lat in run.cli_lat:
            for i, x in enumerate(pass_lat):
                by_op[i].append(x)
        info["invocation_median_s"] = {" ".join(argv): statistics.median(xs)
                                       for argv, xs in zip(wl.spec, by_op)}
    return attempted, failed, wrong == 0, metrics, info


def traced(wl, seed: int):
    """Per-layer metrics from a traced run of the same passes."""
    from tracer import Tracer

    run = Runner(wl)
    tracer = Tracer()
    n_passes = 2 if wl.warm_up else 1
    snaps = []
    if wl.in_process:
        run.reset()
        plain = [run.one_pass() for _ in range(n_passes)]
        run.tracer = tracer
        run.reset()
        spans = []
        for _ in range(n_passes):
            snaps.append(copy.deepcopy(tracer.aggregates()))
            spans.append(run.one_pass())
        tracer.uninstall()
        import_ms, run_ms = [], []
    else:
        plain = [run.cli_pass()]
        child_dir = OUT / f"{wl.name}-seed{seed}-children"
        child_dir.mkdir(parents=True, exist_ok=True)
        snaps.append(copy.deepcopy(tracer.aggregates()))
        spans = [run.cli_pass(child_dir)]
        import_ms, run_ms = [], []
        for i in range(len(wl.spec)):
            with open(child_dir / f"child-{i}.json") as f:
                child = json.load(f)
            tracer.merge(child)
            import_ms.append(child["import_ms"])
            run_ms.append(child["run_ms"])
    snaps.append(tracer.aggregates())
    first = None
    raised = wrong = 0
    for answers, _, _ in plain + spans:
        r, w = run.tally(answers, first)
        raised, wrong = raised + r, wrong + w
        first = first or answers
    slowdown = sum(p[2] for p in spans) / sum(p[2] for p in plain)
    tracer.dump(OUT / f"{wl.name}-seed{seed}-spans.json", workload=wl.name, seed=seed)
    layer = layer_metrics(snaps[-1], len(spans), import_ms, run_ms)
    layer["trace.slowdown"] = slowdown
    # each traced pass on its own: the first is cold, a second one warm
    info = {"traced_passes": len(spans), "per_pass": [
        layer_metrics(_minus(after, before), 1, import_ms, run_ms)
        for before, after in zip(snaps, snaps[1:])]}
    attempted = len(wl.spec) * len(plain + spans)
    return attempted, raised + wrong, wrong == 0, layer, info


def _minus(after: dict, before: dict) -> dict:
    out = {}
    for key, val in after.items():
        if isinstance(val, dict):
            out[key] = {k: v - before[key].get(k, 0) for k, v in val.items()}
        else:
            out[key] = val - before[key]
    return out


def layer_metrics(agg: dict, passes: int, import_ms, run_ms) -> dict:
    """Every per-layer figure of tracer aggregates, by metric name, per pass."""
    out = {}
    calls_of, ns_of = agg["calls"], agg["total_ns"]
    for name, calls in calls_of.items():
        ns = ns_of[name]
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.s"] = ns / 1e9 / passes
        out[f"{name}.us_per_call"] = ns / 1e3 / calls if calls else 0.0
    for layer, ns in agg["self_ns"].items():
        out[f"{layer}.self_s"] = ns / 1e9 / passes
    contact = [n for n in ("exceptional.el", "exceptional.er") if n in calls_of]
    calls = sum(calls_of[n] for n in contact)
    out["exceptional.contact.us_per_call"] = (
        sum(ns_of[n] for n in contact) / 1e3 / calls if calls else 0.0)
    out["lepotier.build_curve.misses"] = agg["curves_built"] / passes
    looked = agg["curves_built"] + agg["curve_hits"]
    out["lepotier.build_curve.hit_ratio"] = agg["curve_hits"] / looked if looked else 0.0
    out["lepotier.tents_built"] = agg["tents_built"] / passes
    out["cli.import_ms"] = statistics.median(import_ms) if import_ms else 0.0
    out["cli.run_ms"] = statistics.median(run_ms) if run_ms else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "stabscope" / "__init__.py").is_file():
        print("bench: no stabscope sources under src/", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        attempted, failed, correct, values, info = traced(wl, args.seed)
        wanted = spec["per_layer"]
        # a layer function this workload never reaches reads 0
        for m in wanted:
            if m["name"].split(".")[0] in LAYERS:
                values.setdefault(m["name"], 0.0)
    else:
        attempted, failed, correct, values, info = measure(wl, args.seconds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: no value for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{wl.name}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{wl.name}: attempted = {attempted}, failed = {failed}")
    for key, val in info.items():
        if key != "per_pass":   # per-pass layer figures go to the run output only
            print(f"{wl.name}: {key} = {val}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(dict(result, info=info), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
