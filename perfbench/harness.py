"""Measurement passes over one workload, driving the public library API.

Every pass parses with ``parse_program``/``parse_trace``, builds a fresh
``Engine`` and calls ``Engine.run``, in this process and thread, with
the garbage collector at its default setting.  Only ``Engine.run`` is
timed; the report of every run is checked against the workload's
expectation.

Wall times on a shared machine drift with its load: on a 2-vCPU sandbox
the same run took anywhere from 1.3 to 2.8 s over a few minutes, and a
whole 20 s run could land in a slow phase.  So every timed call is
bracketed by runs of a fixed reference computation that does not touch
``ailtl`` (``reference_work``), and the timed seconds are rescaled to a
machine on which the reference takes ``REFERENCE_S``: each time is
multiplied by ``REFERENCE_S`` over the mean of the two reference runs
around it.  Raw seconds are kept alongside.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ailtl import Engine, Event, Program, Report, parse_program, parse_trace
from ailtl.evolutionary import ExprStatus
from ailtl.terms import render_term

from tracing import Tracer
from workloads import Case, Expect

SETUP_REPS = 9
MIN_ROUNDS = 3
REFERENCE_S = 0.035  # fastest reference_work seen on the 2-vCPU machine the baseline was taken on


class _Var:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


# The reference: a two-join conjunctive query over a tuple store, evaluated
# by recursive generators with dict bindings, then 20000 small records
# allocated and indexed.  That is the engine's kind of interpreter work
# (queries; many short-lived objects), written without it.  Machine
# slowdowns hit the two halves differently, and the engine has both.
_STORE = {
    "edge": [(i % 40, (i * 7) % 40) for i in range(120)],
    "colour": [(i % 40, f"c{i % 5}") for i in range(120)],
}
_QUERY = (("edge", _Var("A"), _Var("B")), ("edge", _Var("B"), _Var("C")), ("colour", _Var("C"), "c1"))


def _unify(args, row, binding):
    out = dict(binding)
    for arg, value in zip(args, row):
        if isinstance(arg, _Var):
            seen = out.get(arg.name)
            if seen is None:
                out[arg.name] = value
            elif seen != value:
                return None
        elif arg != value:
            return None
    return out


def _solve(i, binding):
    if i == len(_QUERY):
        yield binding
        return
    relation, *args = _QUERY[i]
    for row in _STORE[relation]:
        extended = _unify(args, row, binding)
        if extended is not None:
            yield from _solve(i + 1, extended)


def reference_work() -> int:
    solutions = sum(1 for _ in _solve(0, {}))
    records = [{"key": i, "value": (i * 7919) % 10007} for i in range(20000)]
    index: Dict[int, list] = {}
    for record in records:
        index.setdefault(record["value"] % 512, []).append((record["key"], record["value"]))
    return solutions + len(index)


def reference_run() -> float:
    gc.collect()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Rescaler:
    """Factors from wall seconds to reference seconds, one per timed call."""

    def __init__(self) -> None:
        self.references = [reference_run()]

    def factor(self) -> float:
        """Runs the reference again; the factor for the call since the last one."""
        self.references.append(reference_run())
        return REFERENCE_S / ((self.references[-2] + self.references[-1]) / 2)


@dataclass
class Prepared:
    case: Case
    program: Program
    events: List[Event]

    @classmethod
    def parse(cls, case: Case) -> "Prepared":
        return cls(case, parse_program(case.program), parse_trace(case.trace))


def outcome(report: Report) -> Expect:
    """The facts of a report that a workload's expectation fixes."""
    return Expect(
        violation_ticks=tuple(sorted(t.tick for t in report.transitions if t.new is ExprStatus.VIOLATED)),
        blocked=report.blocked_actions,
        emitted=tuple(sorted(Counter(render_term(e.payload) for e in report.emissions).items())),
        events_seen=report.events_seen,
    )


def mismatches(report: Report, expect: Expect) -> List[str]:
    got = outcome(report)
    return [
        f"{name}: expected {getattr(expect, name)!r}, got {getattr(got, name)!r}"
        for name in Expect.__dataclass_fields__
        if getattr(got, name) != getattr(expect, name)
    ]


@dataclass
class Tally:
    """Runs attempted and failed (raised, or verdicts off the expectation)."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, label: str, report: Report, expect: Expect) -> bool:
        self.attempted += 1
        wrong = mismatches(report, expect)
        if wrong:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(wrong))
        return not wrong

    def raised(self, label: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{label}: raised\n{traceback.format_exc()}")


def timed_run(prep: Prepared) -> Tuple[float, Report]:
    """Wall seconds of one ``Engine.run`` on a fresh engine, and its report."""
    gc.collect()
    engine = Engine(prep.program)
    start = time.perf_counter()
    report = engine.run(prep.events)
    return time.perf_counter() - start, report


def setup_times(case: Case, rescale: Rescaler, reps: int = SETUP_REPS) -> Dict[str, float]:
    """Medians over ``reps`` rescaled set-ups: parse, trace parse, engine build."""
    phases: Dict[str, List[float]] = {"parse_program": [], "parse_trace": [], "engine_init": [], "setup": []}
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        program = parse_program(case.program)
        t1 = time.perf_counter()
        parse_trace(case.trace)
        t2 = time.perf_counter()
        Engine(program)
        t3 = time.perf_counter()
        scale = rescale.factor()
        phases["parse_program"].append((t1 - t0) * scale)
        phases["parse_trace"].append((t2 - t1) * scale)
        phases["engine_init"].append((t3 - t2) * scale)
        phases["setup"].append((t3 - t0) * scale)
    return {name: statistics.median(values) for name, values in phases.items()}


def peak_kib(prep: Prepared) -> Tuple[float, Report]:
    """``tracemalloc`` peak of one ``Engine.run`` (engine built beforehand)."""
    gc.collect()
    engine = Engine(prep.program)
    tracemalloc.start()
    try:
        report = engine.run(prep.events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024, report


def traced_run(prep: Prepared) -> Tuple[float, Report, Tracer]:
    """One ``Engine.run`` with every layer hook wrapped; wrappers removed after."""
    gc.collect()
    with Tracer() as tracer:
        engine = Engine(prep.program)
        start = time.perf_counter()
        report = engine.run(prep.events)
        elapsed = time.perf_counter() - start
    return elapsed, report, tracer


@dataclass
class Samples:
    """Per-round times; ``*_raw`` in wall seconds, the others rescaled."""

    short: List[float] = field(default_factory=list)
    long: List[float] = field(default_factory=list)
    short_raw: List[float] = field(default_factory=list)
    long_raw: List[float] = field(default_factory=list)
    events_short: int = 0
    events_long: int = 0


def timed_rounds(short: Prepared, long: Prepared, seconds: float, rescale: Rescaler, tally: Tally) -> Samples:
    """Rounds of one short and one long run until ``seconds`` have passed.

    A round counts only when both of its runs finished with the expected
    verdicts, so the lists stay paired by round.
    """
    samples = Samples()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        timed = []
        for label, prep in (("short", short), ("long", long)):
            try:
                elapsed, report = timed_run(prep)
            except Exception:
                tally.raised(f"{label} run {rounds}")
                break
            scaled = elapsed * rescale.factor()
            if not tally.check(f"{label} run {rounds}", report, prep.case.expect):
                break
            timed.append((elapsed, scaled, report.events_seen))
        if len(timed) < 2:
            continue
        (short_raw, short_scaled, samples.events_short), (long_raw, long_scaled, samples.events_long) = timed
        samples.short_raw.append(short_raw)
        samples.short.append(short_scaled)
        samples.long_raw.append(long_raw)
        samples.long.append(long_scaled)
    return samples
