"""The incremental core: consumers that read only what the log gained.

Breaking scans and derived-state profiles keep a cursor into the log and
fold in just the events logged since their last read.  These properties
feed the log in random chunks and check, after every chunk, that the
incremental answer equals the one computed from the whole log at once by
the straight-line ledgers in ``oracles``; a work-count guard keeps the
per-event matching work of a whole run flat as the trace grows.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from ailtl import patterns, profiles
from ailtl.dsl import parse_program, parse_trace
from ailtl.events import Event, EventKind, History
from ailtl.evolutionary import EvolutionaryExpr, ExprRuntime
from ailtl.kb import FactBase, Literal
from ailtl.patterns import PatternElem, PatternSeq, Quant
from ailtl.runtime import run
from ailtl.scenarios import queue_scenario
from ailtl.temporal import ContextualFormula, IntervalOp, ReactionAtom, TemporalOp
from ailtl.terms import Const, Var, atom

from oracles import battery_charge, queue_contents, stock_totals

KINDS = (EventKind.ACTION, EventKind.PAST, EventKind.EXTERNAL, EventKind.PRESENT)


def _chunked(events_strategy):
    """Lists of chunks; chunk i is recorded at tick i, then the consumer reads."""
    return st.lists(st.lists(events_strategy, max_size=4), min_size=1, max_size=8)


# -- breaking hits ------------------------------------------------------------

_OPTIONS = (Const("a"), Const("b"))

# pre go(X)+ keeps X while every go agrees and drops it at the first one
# that does not; the check is not due before tick 100, so the instance
# stays armed and keeps rebinding; every breaking hit fires hit(N)
_PREVENTIVE = EvolutionaryExpr(
    core=ContextualFormula(IntervalOp(TemporalOp.NEVER, 100), (Literal(Const("impossible")),)),
    pre=PatternSeq((PatternElem(atom("go", Var("X")), EventKind.ACTION, Quant.PLUS),)),
    breaking=PatternSeq((PatternElem(atom("boom", Var("X"), Var("N")), EventKind.ACTION),)),
    eta3=(ReactionAtom(atom("hit", Var("N"))),),
)


@settings(max_examples=200, deadline=None)
@given(_chunked(st.tuples(st.sampled_from(("go", "boom", "idle")), st.sampled_from(_OPTIONS))))
def test_breaking_hits_are_reported_once_each(chunks):
    h, kb = History(), FactBase()
    rt = ExprRuntime(_PREVENTIVE)
    booms = 0
    reported = []
    for tick, chunk in enumerate(chunks):
        for name, option in chunk:
            if name == "boom":
                payload = atom("boom", option, Const(booms))
                booms += 1
            else:
                payload = atom(name, option)
            h.record(Event(EventKind.ACTION, payload, tick))
        out = rt.step(h, kb, tick)
        reported += [e.payload.args[0].value for e in out.effects if e.channel == "eta3"]

    goes = [e.payload.args[0] for e in h.log if e.payload.functor == "go"]
    boom_options = [e.payload.args[0] for e in h.log if e.payload.functor == "boom"]
    if not goes:
        expected = set()
    elif len(set(goes)) > 1:  # X was dropped: every boom hits
        expected = set(range(booms))
    else:
        expected = {n for n, option in enumerate(boom_options) if option == goes[0]}
    assert len(reported) == len(set(reported)), f"a hit was reported twice: {reported}"
    assert set(reported) == expected
    if len(set(goes)) <= 1:
        assert reported == sorted(reported)  # one binding throughout: log order


# -- derived-state folds ----------------------------------------------------------

_QUEUE_EVENTS = st.tuples(
    st.sampled_from(KINDS),
    st.one_of(
        st.builds(lambda v: atom("push", Const(v), Const("q1")), st.integers(1, 4)),
        st.builds(lambda i: atom("pop", Const(f"e{i}"), Const("q1")), st.integers(1, 8)),
        st.just(atom("peek", Const("q1"))),
    ),
)


def _record_chunk(h, tick, chunk):
    for kind, payload in chunk:
        h.record(Event(kind, payload, tick))


def _query(kb, h, functor, *args):
    return list(kb.query((Literal(atom(functor, *args)),), history=h))


@settings(max_examples=150, deadline=None)
@given(_chunked(_QUEUE_EVENTS))
def test_queue_fold_matches_the_ledger_after_every_chunk(chunks):
    kb, h = FactBase(), History()
    profiles.install(kb, "queue")
    for tick, chunk in enumerate(chunks):
        _record_chunk(h, tick, chunk)
        expected = queue_contents(h.log)
        rows = _query(kb, h, "in_queue", Var("E"), Var("V"))
        assert [(r["E"], r["V"]) for r in rows] == expected
        for value in (Const(1), Const(2)):
            rows = _query(kb, h, "in_queue", Var("E"), value)
            assert [r["E"] for r in rows] == [e for e, v in expected if v == value]


_STOCK_EVENTS = st.tuples(
    st.sampled_from(KINDS),
    st.builds(
        lambda name, resource, amount: atom(name, Const(resource), Const(amount)),
        st.sampled_from(("supply", "consume", "audit")),
        st.sampled_from(("r", "s", "t")),
        st.integers(0, 9),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_chunked(_STOCK_EVENTS), st.booleans())
def test_stock_fold_matches_the_ledger_after_every_chunk(chunks, add_fact_midway):
    kb, h = FactBase(), History()
    profiles.install(kb, "stock")
    initial = [(Const("s"), 5)]
    kb.assert_fact(atom("initial_quantity", Const("s"), Const(5)))
    for tick, chunk in enumerate(chunks):
        _record_chunk(h, tick, chunk)
        if add_fact_midway and tick == 1:
            # a fact-base change starts the fold over
            kb.assert_fact(atom("initial_quantity", Const("t"), Const(3)))
            initial.append((Const("t"), 3))
        rows = _query(kb, h, "quantity", Var("R"), Var("V"))
        assert [(r["R"], r["V"].value) for r in rows] == stock_totals(h.log, initial)


_BATTERY_EVENTS = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from((Const("recharge_battery"), Const("move"), Const("clean"), atom("move", Const(2)))),
)


@settings(max_examples=150, deadline=None)
@given(_chunked(_BATTERY_EVENTS))
def test_battery_fold_matches_the_ledger_after_every_chunk(chunks):
    kb, h = FactBase(), History()
    profiles.install(kb, "battery")
    kb.assert_fact(atom("battery_full", Const(90)))
    kb.assert_fact(atom("drain", Const("move"), Const(6)))
    kb.assert_fact(atom("drain", Const("clean"), Const(8)))
    for tick, chunk in enumerate(chunks):
        _record_chunk(h, tick, chunk)
        [row] = _query(kb, h, "charge_level", Var("L"))
        assert row["L"].value == battery_charge(h.log, {"move": 6, "clean": 8}, full=90)


# -- work-count guard ---------------------------------------------------------------


def _template_matches_per_event(monkeypatch, size):
    calls = 0
    original = patterns.template_match

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(patterns, "template_match", counted)
    program_text, trace_text = queue_scenario(size, 7)
    report = run(parse_program(program_text), parse_trace(trace_text))
    monkeypatch.setattr(patterns, "template_match", original)
    return calls / report.events_seen


def test_pattern_work_per_event_stays_flat_as_the_trace_grows(monkeypatch):
    short = _template_matches_per_event(monkeypatch, 100)
    long = _template_matches_per_event(monkeypatch, 400)
    assert long <= 1.2 * short, f"template matches per event: {short:.2f} at size 100, {long:.2f} at 400"
