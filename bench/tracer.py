"""Span tracer that wraps the public functions of the stabscope modules.

The wrappers are installed from outside the program: every module-level
binding of a wrapped function is replaced in every ``stabscope`` module,
because ``from .lepotier import classify_point`` copies the binding.
Functions cached with ``functools`` keep their cache, since the wrapper
calls the cached object.  Spans (name, start, end, parent span,
operation id) are kept in memory, up to ``SPAN_CAP``, and written out by
``dump``; per-function call counts and inclusive times, and per-module
self times, are kept for every call.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("surd", "corekit", "exceptional", "lepotier", "geometric",
          "algebraic", "walls", "cli")
# methods whose calls are counted as functions of their module
METHODS = (("surd", "QuadReal", "isolating_interval"),)
SPAN_CAP = 300_000


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.curves_built = 0
        self.curve_hits = 0
        self.tents_built = 0
        self.op = -1
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every public function of the loaded stabscope modules."""
        mods = {name: sys.modules[f"stabscope.{name}"] for name in LAYERS
                if f"stabscope.{name}" in sys.modules}
        holders = [m for n, m in sys.modules.items()
                   if n == "stabscope" or n.startswith("stabscope.")]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", layer, fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, name, fn))
                            setattr(holder, name, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods.get(layer), cls_name, None)
            fn = getattr(cls, meth, None)
            if fn is not None:
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", layer, fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._restore):
            setattr(holder, name, fn)
        self._restore.clear()

    def _wrap(self, name: str, layer: str, fn):
        self.names.append(name)
        name_id = len(self.names) - 1
        self.calls.setdefault(name, 0)
        self.total_ns.setdefault(name, 0)
        stack = self._stack
        clock = time.perf_counter_ns
        cache_info = getattr(fn, "cache_info", None)
        is_curve = name == "lepotier.build_curve"
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [layer, 0, span_id]
            stack.append(frame)
            misses = cache_info().misses if is_curve and cache_info else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.total_ns[name] += dur
                if parent is not None and parent[0] == layer:
                    parent[1] += frame[1]
                else:
                    tracer.self_ns[layer] = tracer.self_ns.get(layer, 0) + dur - frame[1]
                    if parent is not None:
                        parent[1] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((name_id, start, end,
                                         parent[2] if parent else -1, tracer.op))
                else:
                    tracer.dropped += 1
            if is_curve:
                built = cache_info().misses > misses if cache_info else True
                if built:
                    tracer.curves_built += 1
                    tracer.tents_built += len(getattr(result, "tents", ()))
                else:
                    tracer.curve_hits += 1
            return result

        return wrapper

    def merge(self, other: dict) -> None:
        """Add the aggregates of a tracer dumped by another process."""
        for name, n in other["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, ns in other["total_ns"].items():
            self.total_ns[name] = self.total_ns.get(name, 0) + ns
        for layer, ns in other["self_ns"].items():
            self.self_ns[layer] = self.self_ns.get(layer, 0) + ns
        self.curves_built += other["curves_built"]
        self.curve_hits += other["curve_hits"]
        self.tents_built += other["tents_built"]
        self.dropped += other["dropped"]

    def aggregates(self) -> dict:
        return {"calls": self.calls, "total_ns": self.total_ns,
                "self_ns": self.self_ns, "curves_built": self.curves_built,
                "curve_hits": self.curve_hits, "tents_built": self.tents_built,
                "dropped": self.dropped}

    def dump(self, path, **extra) -> None:
        data = dict(self.aggregates(), names=self.names, spans=self.spans,
                    span_fields=["name", "start_ns", "end_ns", "parent", "op"],
                    **extra)
        with open(path, "w") as f:
            json.dump(data, f)
