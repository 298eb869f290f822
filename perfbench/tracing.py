"""Spans around the public entry points of each layer, installed from outside.

The tracer wraps each hook at the name where the engine looks it up (a
module global such as ``ailtl.runtime.gate``, or a class attribute such
as ``History.since``), records one span per call, and, for hooks that
return iterators, one more span per ``__next__``: the work of
``FactBase.query``, ``History.since``, ``occurrences`` and the profile
evaluators happens while they are iterated, not while they are called.
Evaluators are wrapped as ``FactBase.register`` receives them, so the
tracer must be installed before the ``Engine`` is built.

Spans live in flat arrays (layer, parent, tick, start, end) and are only
aggregated when the run is over.  A layer's self time is its spans'
duration minus the spans nested directly inside them.  The tick is the
request id: ``ExprRuntime.step`` and ``History.record`` carry it, and a
gate span takes the tick of the next top-level span, because the engine
always records or steps in the cycle that gated the action.  A cycle's
latency is the wall time from the first to the last top-level span of
its tick.

Leaving the ``with`` block restores every original attribute, so runs
timed afterwards carry no wrappers.  A hook whose name no longer exists
is listed in ``missing`` and its metrics read ``None``, never 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# layer, module, attribute path, wrapper kind
HOOKS: Tuple[Tuple[str, str, str, str], ...] = (
    ("metagate.gate", "ailtl.runtime", "gate", "gate"),
    ("evolutionary.step", "ailtl.evolutionary", "ExprRuntime.step", "step"),
    ("patterns.match_prefix", "ailtl.evolutionary", "match_prefix", "call"),
    ("patterns.occurrences", "ailtl.evolutionary", "occurrences", "iter"),
    ("temporal.eval_once", "ailtl.evolutionary", "eval_once", "call"),
    ("temporal.fire_reaction", "ailtl.evolutionary", "fire_reaction", "call"),
    ("events.record", "ailtl.events", "History.record", "record"),
    ("events.since", "ailtl.events", "History.since", "iter"),
    ("kb.query", "ailtl.kb", "FactBase.query", "iter"),
    ("profiles.evaluate", "ailtl.kb", "FactBase.register", "register"),
)

LAYERS = tuple(h[0] for h in HOOKS)

# Highest percentile of this ladder that leaves at least TAIL_MIN samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_MIN = 10

_clock = time.perf_counter_ns
_INHERITED = object()  # the hook came from a base class; restore by deleting the wrapper


def _resolve(module: str, path: str) -> Optional[Tuple[object, str]]:
    """The object holding the hook's last attribute, or None when it is gone."""
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class _Spanned:
    """Iterator proxy recording one span per ``__next__``."""

    __slots__ = ("_it", "_tracer", "_layer")

    def __init__(self, it: Iterator, tracer: "Tracer", layer: int) -> None:
        self._it = it
        self._tracer = tracer
        self._layer = layer

    def __iter__(self) -> "_Spanned":
        return self

    def __next__(self):
        tracer = self._tracer
        span = tracer.enter(self._layer, -1)
        try:
            value = next(self._it)
        finally:
            tracer.exit(span)
        tracer.yielded[self._layer] += 1
        return value


class Tracer:
    def __init__(self) -> None:
        n = len(LAYERS)
        self.layer = array("B")
        self.parent = array("q")
        self.tick = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = [-1]
        self.calls = [0] * n
        self.yielded = [0] * n
        self.terminal_steps = 0
        self.terminal_unknown = False
        self.blocked = 0
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, layer: int, tick: int) -> int:
        span = len(self.start)
        self.layer.append(layer)
        self.parent.append(self.stack[-1])
        self.tick.append(tick)
        self.end.append(0)
        self.stack.append(span)
        self.start.append(_clock())
        return span

    def exit(self, span: int) -> None:
        self.end[span] = _clock()
        self.stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _call(self, layer: int, fn: Callable, tick_of: Optional[Callable] = None, after: Optional[Callable] = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            span = tracer.enter(layer, tick_of(args, kwargs) if tick_of else -1)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(span)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _iter(self, layer: int, fn: Callable):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            span = tracer.enter(layer, -1)
            try:
                it = fn(*args, **kwargs)
            finally:
                tracer.exit(span)
            return _Spanned(iter(it), tracer, layer)

        return wrapper

    def _wrap(self, layer: int, kind: str, fn: Callable) -> Callable:
        if kind == "call":
            return self._call(layer, fn)
        if kind == "iter":
            return self._iter(layer, fn)
        if kind == "gate":
            return self._call(layer, fn, after=self._count_blocked)
        if kind == "step":
            inner = self._call(layer, fn, tick_of=_step_tick)
            tracer = self

            @functools.wraps(fn)
            def step(runtime, *args, **kwargs):
                terminal = getattr(runtime, "terminal", None)
                if terminal is None:
                    tracer.terminal_unknown = True
                elif terminal:
                    tracer.terminal_steps += 1
                return inner(runtime, *args, **kwargs)

            return step
        if kind == "record":
            return self._call(layer, fn, tick_of=_record_tick)
        if kind == "register":
            evaluator_layer = LAYERS.index("profiles.evaluate")
            tracer = self

            @functools.wraps(fn)
            def register(kb, name, arity, evaluator):
                return fn(kb, name, arity, tracer._iter(evaluator_layer, evaluator))

            return register
        raise ValueError(f"unknown hook kind {kind!r}")

    def _count_blocked(self, args, decision) -> None:
        if str(getattr(decision, "value", "")).startswith("blocked"):
            self.blocked += 1

    def __enter__(self) -> "Tracer":
        for layer, (name, module, path, kind) in enumerate(HOOKS):
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr = found
            original = owner.__dict__.get(attr, _INHERITED)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, kind, getattr(owner, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def cycle_us(self) -> List[float]:
        """Wall time per tick, from the first to the last top-level span."""
        roots = [i for i in range(len(self.start)) if self.parent[i] == -1]
        ticks: List[int] = [self.tick[i] for i in roots]
        following = -1
        for j in range(len(roots) - 1, -1, -1):
            if ticks[j] == -1:
                ticks[j] = following
            else:
                following = ticks[j]
        extent: Dict[int, List[int]] = {}
        for i, tick in zip(roots, ticks):
            if tick == -1:
                continue
            span = extent.get(tick)
            if span is None:
                extent[tick] = [self.start[i], self.end[i]]
            else:
                span[0] = min(span[0], self.start[i])
                span[1] = max(span[1], self.end[i])
        return [(hi - lo) / 1000 for lo, hi in extent.values()]

    def metrics(self) -> Dict[str, Tuple[Optional[float], str]]:
        """Per-layer counts, self times and ratios; ``None`` for a missing hook."""
        n = len(LAYERS)
        self_ns = [0] * n
        inclusive_ns = [0] * n
        for i in range(len(self.start)):
            duration = self.end[i] - self.start[i]
            layer = self.layer[i]
            self_ns[layer] += duration
            parent = self.parent[i]
            if parent == -1 or self.layer[parent] != layer:
                inclusive_ns[layer] += duration
            if parent != -1:
                self_ns[self.layer[parent]] -= duration
        index = {name: i for i, name in enumerate(LAYERS)}
        out: Dict[str, Tuple[Optional[float], str]] = {}

        def put(metric: str, layers: Tuple[str, ...], value: Callable[[], float], unit: str) -> None:
            present = all(layer not in self.missing for layer in layers)
            out[metric] = (value() if present else None, unit)

        def calls(layer: str) -> int:
            return self.calls[index[layer]]

        def self_us(layer: str) -> float:
            return self_ns[index[layer]] / 1000

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        # cycles are grouped by the ticks that steps and records carry; with
        # too few of them for any percentile of the ladder they read missing
        cycles = sorted(self.cycle_us())
        tail_pct = next((p for p in TAIL_LADDER if len(cycles) * (100 - p) / 100 >= TAIL_MIN), None)
        ticked = ("evolutionary.step", "events.record")
        if tail_pct is None:
            for metric, unit in (("cycle_us_p50", "us"), ("cycle_us_tail", "us"), ("cycle_tail_pct", "%"), ("cycles", "count")):
                out[f"runtime.{metric}"] = (None, unit)
        else:
            put("runtime.cycle_us_p50", ticked, lambda: _nearest_rank(cycles, 50.0), "us")
            put("runtime.cycle_us_tail", ticked, lambda: _nearest_rank(cycles, tail_pct), "us")
            put("runtime.cycle_tail_pct", ticked, lambda: tail_pct, "%")
            put("runtime.cycles", ticked, lambda: len(cycles), "count")

        step = ("evolutionary.step",)
        put("evolutionary.step_calls", step, lambda: calls("evolutionary.step"), "count")
        put("evolutionary.step_self_us", step, lambda: self_us("evolutionary.step"), "us")
        if self.terminal_unknown:
            out["evolutionary.terminal_step_ratio"] = (None, "ratio")
        else:
            put("evolutionary.terminal_step_ratio", step,
                lambda: ratio(self.terminal_steps, calls("evolutionary.step")), "ratio")

        for layer in ("temporal.eval_once", "temporal.fire_reaction", "kb.query", "profiles.evaluate",
                      "patterns.match_prefix", "patterns.occurrences", "events.record", "events.since",
                      "metagate.gate"):
            put(f"{layer}_calls", (layer,), functools.partial(calls, layer), "count")
            if layer != "events.since":
                put(f"{layer}_self_us", (layer,), functools.partial(self_us, layer), "us")
        put("temporal.us_per_check", ("temporal.eval_once",),
            lambda: ratio(inclusive_ns[index["temporal.eval_once"]] / 1000, calls("temporal.eval_once")), "us")
        put("kb.solutions", ("kb.query",), lambda: self.yielded[index["kb.query"]], "count")
        put("events.since_yielded", ("events.since",), lambda: self.yielded[index["events.since"]], "count")
        put("metagate.blocked_ratio", ("metagate.gate",), lambda: ratio(self.blocked, calls("metagate.gate")), "ratio")
        put("trace.spans", (), lambda: len(self.start), "count")
        return out


def _step_tick(args, kwargs) -> int:
    # ExprRuntime.step(self, history, kb, now, ...)
    now = kwargs.get("now", args[3] if len(args) > 3 else -1)
    return now if isinstance(now, int) else -1


def _record_tick(args, kwargs) -> int:
    # History.record(self, event)
    event = args[1] if len(args) > 1 else kwargs.get("e")
    return getattr(event, "timestamp", -1)


def _nearest_rank(ordered: List[float], pct: float) -> float:
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]
