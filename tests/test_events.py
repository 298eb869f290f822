from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ailtl.events import PAST_LIKE, Event, EventKind, History, TimestampRegression
from ailtl.terms import Compound, Const, atom, functor_of


def ev(kind, functor, *args, t=0):
    return Event(kind, atom(functor, *(Const(a) for a in args)), t)


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
    for kind in EventKind:
        for f in ("f", "g"):
            assert a.latest_for_filter(kind, f, 1) == b.latest_for_filter(kind, f, 1)


def _newest_by_scan(log, kinds, functor, arity):
    # the newest logged entry of the key; arrival order breaks timestamp ties
    hits = [
        (e.timestamp, i, e)
        for i, e in enumerate(log)
        if e.kind in kinds and functor_of(e.payload) == (functor, arity)
    ]
    return max(hits, key=lambda h: h[:2])[2] if hits else None


@given(_timelines)
def test_latest_is_the_newest_entry_of_a_plain_log_scan(spec):
    h = History()
    for kind, (f, a), t in sorted(spec, key=lambda s: s[2]):
        h.record(Event(kind, Compound(f, (Const(a),)), t))
    for kind in EventKind:
        for functor, arity in (("f", 1), ("g", 1), ("f", 2)):
            assert h.latest(kind, functor, arity) == _newest_by_scan(h.log, (kind,), functor, arity)
            kinds = PAST_LIKE if kind is EventKind.PAST else (kind,)
            assert h.latest_for_filter(kind, functor, arity) == _newest_by_scan(h.log, kinds, functor, arity)


@given(_timelines, st.integers(-1, 6), st.integers(0, 22))
def test_since_reads_from_a_cursor_by_timestamp(spec, ts, start):
    h = History()
    for kind, (f, a), t in sorted(spec, key=lambda s: s[2]):
        h.record(Event(kind, Compound(f, (Const(a),)), t))
    expected = [(i, e) for i, e in enumerate(h.log) if i >= start and e.timestamp >= ts]
    assert list(h.since(ts, start)) == expected

