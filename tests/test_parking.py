"""Parking: a quiet instance whose check reads no log is not stepped until it can change.

Such an instance is holding, polices no sequence and keeps its binding,
and its check reads only the fact base, so until the fact base moves or
its upper bound comes each step would only add a due tick.  The engine
parks it, wakes it on a version change or at its upper bound, and adds
the ticks it was due at when it wakes or the run ends.  These tests
compare whole runs with parking forced off, which must give the same
report, the same check ticks and the same ``f`` per cycle; cover the
wakes (sparse cycle ticks with k > 1, an upper bound, a fact asserted
mid-run); keep a partial report whole; keep the engine's record of cycle
ticks to the cycles since the parking; and guard the step count that
parking saves.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from ailtl.dsl import parse_program, parse_trace
from ailtl.evolutionary import ExprRuntime, ExprStatus
from ailtl.runtime import CapExceeded, Engine, EngineConfig
from ailtl.scenarios import bench_scenario, gen_scenario
from ailtl.terms import Compound, Const

from genprog import random_profile_program, random_profile_trace, random_program, random_trace
from test_golden import CASES, GOLDEN_DIR


def _without_parking(monkeypatch):
    monkeypatch.setattr(ExprRuntime, "stands_at", lambda self, version: False)


def _outcome(program, source, config=None, prepare=False):
    """The report text, the check ticks and ``f`` per cycle of a run, or its error and check ticks.

    With ``prepare``, ``source`` is called with the engine to give the events.
    """
    engine = Engine(program, config or EngineConfig(metrics=True, max_feedback_ticks=50))
    try:
        report = engine.run(source(engine) if prepare else source)
    except Exception as exc:  # the run's error is part of what must agree
        return f"{type(exc).__name__}: {exc}", engine.report.eval_ticks
    text = report.render()
    text = text[: text.index("\nmetrics ") + 1] if report.metrics else text  # timings differ run to run
    return text, report.eval_ticks, [cycle.f for cycle in report.metrics]


def _compare_with_parking_off(monkeypatch, cases, prepare=False):
    parked = [0]
    check = Engine._check

    def counted(self, tick):
        check(self, tick)
        parked[0] += self._parked_count  # instances that skip the next cycle unless woken

    monkeypatch.setattr(Engine, "_check", counted)
    with_parking = [_outcome(program, source, prepare=prepare) for program, source in cases]
    monkeypatch.undo()
    _without_parking(monkeypatch)
    without = [_outcome(program, source, prepare=prepare) for program, source in cases]
    assert with_parking == without
    return parked[0]


def test_random_runs_give_the_same_report_without_parking(monkeypatch):
    cases = []
    for seed in range(80):
        rng = random.Random(seed)
        program = random_program(rng)
        cases.append((program, random_trace(rng, program)))
        rng = random.Random(seed)
        program = random_profile_program(rng)
        cases.append((program, random_profile_trace(rng, program)))
    assert _compare_with_parking_off(monkeypatch, cases) > 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_shipped_scenarios_give_the_golden_report_without_parking(monkeypatch, case):
    name, params = CASES[case]
    program_text, trace_text = gen_scenario(name, **params)
    program, events = parse_program(program_text), parse_trace(trace_text)
    golden = (GOLDEN_DIR / f"{case}.txt").read_text(encoding="utf-8")
    plain = _outcome(program, events, EngineConfig())
    assert plain[0] == golden
    _compare_with_parking_off(monkeypatch, [(program, events)])  # timed runs; leaves parking off
    assert _outcome(program, events, EngineConfig()) == plain


# -- wakes ------------------------------------------------------------------------------

_SPARSE_PROGRAMS = [
    "expr:\nNEVER(0, 40; 5) ghost.\n",
    "config:\nfrequency = 3.\nexpr:\nALWAYS(2, 33) ok.\nEVENTUALLY(0, 25; 4) ghost.\nNEVER ghost.\nfacts:\nok.\n",
]


@pytest.mark.parametrize("text", _SPARSE_PROGRAMS)
@settings(max_examples=60, deadline=None)
@given(ticks=st.lists(st.integers(0, 60), min_size=1, max_size=30, unique=True).map(sorted))
def test_sparse_cycle_ticks_give_the_same_report_without_parking(text, ticks):
    program = parse_program(text)
    events = parse_trace("\n".join(f"{t} N tickmark({t})" for t in ticks))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _compare_with_parking_off(monkeypatch, [(program, events)])


def test_a_parked_instance_wakes_at_its_upper_bound():
    program = parse_program("expr:\nNEVER(0, 40; 5) ghost.\n")
    ticks = [0, 1, 3, 5, 6, 10, 12, 20, 21, 23, 35, 38, 41, 45]
    engine = Engine(program)
    steps = []
    step = ExprRuntime.step

    def counted(self, history, kb, now, default_k=1, timed=None):
        steps.append(now)
        return step(self, history, kb, now, default_k, timed)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ExprRuntime, "step", counted)
        report = engine.run(parse_trace("\n".join(f"{t} N tickmark({t})" for t in ticks)))
    # checked at 0, quiet at 1, parked until the first cycle past 40 closes it
    assert steps == [0, 1, 41]
    assert report.eval_ticks == {"e1": [0, 5, 10, 20, 35]}
    assert [(t.tick, t.new, t.cause) for t in report.transitions][-1] == (
        41,
        ExprStatus.FULFILLED,
        Const("interval_closed"),
    )


def _asserting(events, at, fact):
    """A source that asserts ``fact`` into the engine's fact base as it hands over tick ``at``.

    The engine reads one event ahead, so the first event of tick ``at``
    is read, and the fact asserted, before the cycle of the tick before.
    """

    def source(engine):
        for event in events:
            if event.timestamp == at:
                engine.kb.assert_fact(fact)
            yield event

    return source


@pytest.mark.parametrize("at", [1, 7, 19])
def test_a_fact_asserted_mid_run_wakes_parked_instances(monkeypatch, at):
    program = parse_program(
        "expr:\nNEVER alarm(on).\nALWAYS(0, 30; 2) ok.\nEVENTUALLY alarm(X).\nNEVER(3, 12) alarm(on).\n"
        "NEVER(0, 40; 4) alarm(on).\nfacts:\nok.\n"
    )
    events = parse_trace("\n".join(f"{t} N tickmark({t})" for t in range(0, 21)))
    source = _asserting(events, at, Compound("alarm", (Const("on"),)))
    assert _compare_with_parking_off(monkeypatch, [(program, source)], prepare=True) > 0
    text, _, _ = _outcome(program, source, prepare=True)
    violated = [line.split()[1:3] for line in text.splitlines() if line.endswith("->violated cause=alarm(on)")]
    assert violated[0] == [str(at - 1), "e1"]
    # e5 is woken at a tick it is not due at, and decides at its next due tick
    assert [str(-(-(at - 1) // 4) * 4), "e5"] in violated


# -- a partial report ---------------------------------------------------------------------


def test_an_error_leaves_the_parked_ticks_in_the_report(monkeypatch):
    program = parse_program("expr:\nNEVER ghost.\nrules:\nNEVER echo_A(X) DIV echo(again).\n")
    events = parse_trace("1 A echo(start)\n")
    runs = []
    for parking in (True, False):
        if not parking:
            _without_parking(monkeypatch)
        engine = Engine(program, EngineConfig(max_feedback_ticks=20))
        with pytest.raises(CapExceeded):
            engine.run(events)
        runs.append((engine.report.last_tick, engine.report.tick_runs))
    assert runs[0] == runs[1]
    assert runs[0][1]["e1"] == (range(1, runs[0][0] + 1),)


# -- the work parking saves ---------------------------------------------------------------


def test_static_constraints_are_stepped_at_most_three_times_each(monkeypatch):
    calls = [0]
    step = ExprRuntime.step

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return step(self, *args, **kwargs)

    monkeypatch.setattr(ExprRuntime, "step", counted)
    program_text, trace_text = bench_scenario(100, 100)
    report = Engine(parse_program(program_text)).run(parse_trace(trace_text))
    assert report.eval_ticks == {name: list(range(1, 101)) for name in report.final_statuses}
    assert calls[0] <= 3 * 100


def test_the_cycle_record_holds_only_the_cycles_since_the_parking():
    # irregular ticks, and a fact asserted as tick 20 is read, so before the cycle of 16
    program = parse_program("expr:\nNEVER alarm(on).\n")
    ticks = [0, 1, 3, 4, 8, 9, 15, 16, 20, 27, 28, 35, 36, 50, 51, 53]
    events = _asserting(parse_trace("\n".join(f"{t} N tickmark({t})" for t in ticks)), 20, Const("ok"))
    before = {}  # the record as each event is read: before the cycle of the event before it

    def source(engine):
        for event in events(engine):
            before[event.timestamp] = [t for run in engine._cycle_runs() for t in run]
            yield event

    engine = Engine(program)
    report = engine.run(source(engine))
    assert report.eval_ticks == {"e1": ticks}
    # parked at 1; woken at 16, which empties the record, and parked again there
    assert before[16] == [1, 3, 4, 8, 9]
    assert before[27] == [16]
    assert before[53] == [16, 20, 27, 28, 35, 36, 50]
    assert engine._cycle_runs() == ()  # closed, and nothing is parked
