"""Checked ticks kept as runs: what an instance records per check.

An instance records the ticks it was checked at as runs of one gap, so a
check adds nothing while the stride between checks stays the same.  The
recorder must expand to exactly the ticks it was fed, and start a new
run only where the gap changes.  Through the engine, the expanded
ticks are the due ticks that had a cycle, and the report keeps an ended
instance's final status and ticks after the engine has dropped it.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from ailtl.dsl import parse_program, parse_trace
from ailtl.evolutionary import ExprStatus, TickRuns
from ailtl.runtime import Engine, _Instance, run


def _gap_changes(ticks):
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    return sum(1 for a, b in zip(gaps, gaps[1:]) if a != b)


# increasing tick sequences: segments of one stride each, apart by random gaps
_segments = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 9)),  # stride, ticks, gap before
    max_size=12,
)


def _ticks(start, segments):
    ticks = []
    for stride, count, gap in segments:
        first = ticks[-1] + gap if ticks else start
        ticks.extend(range(first, first + stride * count, stride))
    return ticks


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 50), _segments)
def test_tick_runs_expand_to_the_ticks_fed(start, segments):
    ticks = _ticks(start, segments)
    recorder = TickRuns()
    for tick in ticks:
        recorder.add(tick)
    runs = recorder.runs()
    assert [tick for run in runs for tick in run] == ticks
    assert all(len(run) >= 1 for run in runs)
    assert len(runs) == (_gap_changes(ticks) + 1 if ticks else 0)


def _state(recorder):
    return tuple(getattr(recorder, slot) for slot in TickRuns.__slots__)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 50), _segments, st.lists(st.booleans(), min_size=12, max_size=12))
def test_extending_by_a_range_equals_adding_each_tick(start, segments, bulk):
    # each segment is one arithmetic range: fed whole, or a tick at a time
    extended, added = TickRuns(), TickRuns()
    first = start
    for (stride, count, gap), whole in zip(segments, bulk):
        ticks = range(first, first + stride * count, stride)
        if whole:
            extended.extend(ticks)
        else:
            for tick in ticks:
                extended.add(tick)
        for tick in ticks:
            added.add(tick)
        first = ticks[-1] + gap
    assert _state(extended) == _state(added)
    assert extended.runs() == added.runs()


def test_a_steady_stride_keeps_one_run_and_large_gaps_survive():
    recorder = TickRuns()
    for tick in range(0, 3000, 3):
        recorder.add(tick)
    assert recorder.runs() == (range(0, 2998, 3),)
    far = [5, 5 + 2**70, 5 + 2**71, 7 + 2**71]  # gaps that take several bytes each
    recorder = TickRuns()
    for tick in far:
        recorder.add(tick)
    assert [tick for run in recorder.runs() for tick in run] == far


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=60, deadline=None)
@given(ticks=st.lists(st.integers(1, 120), min_size=1, max_size=60, unique=True).map(sorted))
def test_checked_ticks_are_the_due_ticks_that_had_a_cycle(k, ticks):
    # the constraint arms at the first tick, so its checks are due every k
    # ticks from there; a due tick without an event has no cycle
    program = parse_program(f"config:\nfrequency = {k}.\nexpr:\nNEVER ghost.\n")
    report = run(program, parse_trace("\n".join(f"{t} N tickmark({t})" for t in ticks)))
    assert report.eval_ticks == {"e1": [t for t in ticks if (t - ticks[0]) % k == 0]}
    assert sum(len(r) for r in report.tick_runs["e1"]) == len(report.eval_ticks["e1"])


def test_terminal_clones_keep_their_status_and_ticks_after_release():
    program = parse_program("config:\nfrequency = 2.\nexpr:\nNEVER level_N(high).\n")
    ticks = [1, 2, 3, 5, 6, 9, 10, 11, 14, 15, 17, 20]
    events = parse_trace("\n".join(f"{t} N level({'high' if t in (5, 14) else 'low'})" for t in ticks))
    engine = Engine(program)
    seen = {}

    def source():
        # the engine reads one event ahead: it asks for tick 9's event
        # after the cycle of tick 5, where e1 was violated and re-armed
        for event in events:
            if event.timestamp == 9:
                report = engine.report
                seen.update(live=[i.name for i in engine._live], statuses=dict(report.final_statuses), runs=report.tick_runs)
            yield event

    report = engine.run(source())
    # the ended e1 is gone from the engine; the report keeps its status and
    # ticks, and lists the live clone, not checked yet, with its status at creation
    assert seen == {
        "live": ["e1#2"],
        "statuses": {"e1": ExprStatus.VIOLATED, "e1#2": ExprStatus.DORMANT},
        "runs": {"e1": (range(1, 6, 2),), "e1#2": ()},
    }
    assert report.final_statuses == {
        "e1": ExprStatus.VIOLATED,
        "e1#2": ExprStatus.VIOLATED,
        "e1#3": ExprStatus.FULFILLED_SO_FAR,
    }
    assert report.eval_ticks == {"e1": [1, 3, 5], "e1#2": [6, 10, 14], "e1#3": [15, 17]}
    assert report.tick_runs == {"e1": (range(1, 6, 2),), "e1#2": (range(6, 15, 4),), "e1#3": (range(15, 18, 2),)}
    assert report == run(program, events)  # reports compare by their ticks, not by identity


def _instances_kept():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, _Instance))


def test_the_engine_keeps_no_instance_that_ended():
    # every high level violates the standing constraint and re-arms it
    program = parse_program("expr:\nNEVER level_N(high).\n")
    events = parse_trace("\n".join(f"{t} N level(high)" for t in range(1, 61)))
    before = _instances_kept()
    engine = Engine(program)
    kept = []

    def source():
        for event in events:
            if event.timestamp in (30, 60):
                kept.append((_instances_kept() - before, len(engine._live)))
            yield event

    report = engine.run(source())
    kept.append((_instances_kept() - before, len(engine._live)))
    assert report.violations == 60 and len(report.final_statuses) == 61  # the last clone survives
    assert kept == [(1, 1), (1, 1), (0, 0)]
