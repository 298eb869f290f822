from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ailtl.events import Event, EventKind, History, StateSequence, TimestampRegression
from ailtl.terms import Compound, Const, atom


def ev(kind, functor, *args, t=0):
    return Event(kind, atom(functor, *(Const(a) for a in args)), t)


def test_newer_version_supersedes_into_pnv():
    h = History()
    h.record(ev(EventKind.PAST, "push", 5, "q", t=1))
    h.record(ev(EventKind.PAST, "push", 9, "q", t=2))
    latest = h.latest(EventKind.PAST, "push", 2)
    assert latest.timestamp == 2 and latest.payload.args[0] == Const(9)
    archived = h.archived(EventKind.PAST, "push", 2)
    assert [e.timestamp for e in archived] == [1]


def test_first_event_leaves_archive_empty():
    h = History()
    h.record(ev(EventKind.EXTERNAL, "rain", t=3))
    assert h.p_size == 1 and h.pnv_size == 0


def test_timestamp_regression_rejected():
    h = History()
    h.record(ev(EventKind.ACTION, "a", t=3))
    with pytest.raises(TimestampRegression):
        h.record(ev(EventKind.ACTION, "b", t=2))


def test_latest_for_unknown_functor_is_none():
    h = History()
    assert h.latest(EventKind.ACTION, "nothing", 0) is None


def test_latest_returns_newest_of_two():
    h = History()
    h.record(ev(EventKind.PAST, "recharge_battery", t=3))
    h.record(ev(EventKind.PAST, "recharge_battery", t=9))
    assert h.latest(EventKind.PAST, "recharge_battery", 0).timestamp == 9


def test_superseded_version_only_in_archive():
    h = History()
    first = ev(EventKind.ACTION, "move", "north", t=1)
    second = ev(EventKind.ACTION, "move", "south", t=4)
    h.record(first)
    h.record(second)
    assert h.latest(EventKind.ACTION, "move", 1) == second
    assert h.archived(EventKind.ACTION, "move", 1) == [first]


def test_past_filter_covers_actions_and_externals():
    h = History()
    h.record(ev(EventKind.ACTION, "push", 1, "q", t=1))
    h.record(ev(EventKind.EXTERNAL, "push", 2, "q", t=2))
    newest = h.latest_for_filter(EventKind.PAST, "push", 2)
    assert newest.timestamp == 2
    # a present-kind filter sees only present events
    assert h.latest_for_filter(EventKind.PRESENT, "push", 2) is None


def test_arrival_order_breaks_timestamp_ties():
    h = History()
    h.record(ev(EventKind.ACTION, "ping", "a", t=5))
    h.record(ev(EventKind.ACTION, "ping", "b", t=5))
    assert h.latest(EventKind.ACTION, "ping", 1).payload.args[0] == Const("b")


def test_retention_limit_trims_archive():
    h = History(default_limit=2)
    for t in range(5):
        h.record(ev(EventKind.PAST, "reading", t, t=t))
    assert len(h.archived(EventKind.PAST, "reading", 1)) == 2
    # conservation still accounts for dropped versions
    assert h.p_size + h.pnv_size == len(h.log)


_kinds = st.sampled_from(list(EventKind))
_payloads = st.tuples(st.sampled_from(["f", "g"]), st.integers(0, 3))
_timelines = st.lists(st.tuples(_kinds, _payloads, st.integers(0, 5)), max_size=20)


@given(_timelines)
def test_replay_determinism_and_conservation(spec):
    spec = sorted(spec, key=lambda s: s[2])
    runs = []
    for _ in range(2):
        h = History()
        for kind, (f, a), t in spec:
            h.record(Event(kind, Compound(f, (Const(a),)), t))
        runs.append(h)
    a, b = runs
    assert a.log == b.log
    assert a.p_size == b.p_size and a.pnv_size == b.pnv_size
    assert a.p_size + a.pnv_size == len(a.log)


@given(_timelines, st.integers(-1, 6), st.integers(0, 22))
def test_since_reads_from_a_cursor_by_timestamp(spec, ts, start):
    h = History()
    for kind, (f, a), t in sorted(spec, key=lambda s: s[2]):
        h.record(Event(kind, Compound(f, (Const(a),)), t))
    expected = [(i, e) for i, e in enumerate(h.log) if i >= start and e.timestamp >= ts]
    assert list(h.since(ts, start)) == expected


def test_state_sequence_advances_only_when_dirty():
    seq = StateSequence()
    assert seq.advance(5, True, (1, 0))
    assert not seq.advance(6, False)
    assert seq.advance(7, True, (2, 0))
    times = [s.time for s in seq.states]
    indices = [s.index for s in seq.states]
    assert times == [0, 5, 7]
    assert indices == [0, 1, 2]


def test_state_sequence_monotonicity_invariant():
    seq = StateSequence()
    seq.advance(5, True, (1, 0))
    seq.advance(5, True, (2, 0))
    seq.advance(9, True, (3, 0))
    for prev, cur in zip(seq.states, seq.states[1:]):
        assert cur.time >= prev.time
        if cur.time > prev.time:
            assert cur.snapshot != prev.snapshot
