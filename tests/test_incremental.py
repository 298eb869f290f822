"""The incremental core: consumers that read only what the log gained.

Breaking scans and derived-state profiles keep a cursor into the log and
fold in just the events logged since their last read.  These properties
feed the log in random chunks and check, after every chunk, that the
incremental answer equals the one computed from the whole log at once by
the straight-line ledgers in ``oracles``, and that a query ``since`` a
log index sees exactly the ledger rows that entered at or after it.
Work-count guards keep the per-event matching work and the profile rows
read per event flat as the trace grows, and a matcher's live parses
bounded by its pattern and the values in the trace, not by its length.
A memory guard keeps the live memory a run leaves behind flat in the
number of checks.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from ailtl import evolutionary, patterns, profiles
from ailtl.dsl import parse_program, parse_trace
from ailtl.events import Event, EventKind, History
from ailtl.evolutionary import EvolutionaryExpr, ExprRuntime, ExprStatus
from ailtl.kb import FactBase, Literal
from ailtl.patterns import PatternElem, PatternSeq, Quant
from ailtl.runtime import run
from ailtl.scenarios import bench_scenario, queue_scenario
from ailtl.temporal import ContextualFormula, IntervalOp, ReactionAtom, TemporalOp
from ailtl.terms import Const, Var, Wildcard, atom, variables

from oracles import battery_charge, queue_contents, queue_trace_stats, stock_totals

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


def _since(kb, h, functor, since, *args):
    """The rows the profile's evaluator yields with ``since``, as binding tuples."""
    evaluate = kb._evaluators[(functor, len(args))]
    return [tuple(b[a.name] for a in args if isinstance(a, Var)) for b in evaluate(kb, h, args, {}, since=since)]


def _entered_since(ledger, log, since):
    """Rows of ``ledger(log)`` missing from the ledger of some prefix ``log[:j]``, ``j >= since``.

    That is: the rows that entered at log index ``since`` or later.  With
    ``since`` 0 every row counts, as a query with ``since=0`` sees them all.
    """
    rows = ledger(log)
    if since == 0:
        return rows
    earlier = [ledger(log[:j]) for j in range(since, len(log))]
    return [row for row in rows if any(row not in prefix for prefix in earlier)]


def _check_since(kb, h, functor, ledger, *args):
    for since in range(len(h.log) + 1):
        assert _since(kb, h, functor, since, *args) == _entered_since(ledger, h.log, since), since


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
        _check_since(kb, h, "in_queue", queue_contents, Var("E"), Var("V"))
        for value in (Const(1), Const(2)):
            for since in range(len(h.log) + 1):
                rows = _since(kb, h, "in_queue", since, Var("E"), value)
                entered = _entered_since(queue_contents, h.log, since)
                assert rows == [(e,) for e, v in entered if v == value]


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
        ledger = lambda log: [(r, Const(v)) for r, v in stock_totals(log, initial)]  # noqa: E731
        _check_since(kb, h, "quantity", ledger, Var("R"), Var("V"))


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
        ledger = lambda log: [(Const(battery_charge(log, {"move": 6, "clean": 8}, full=90)),)]  # noqa: E731
        _check_since(kb, h, "charge_level", ledger, Var("L"))


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


def _profile_rows_per_event(monkeypatch, size):
    rows = 0
    original = profiles.yield_matches

    def counted(templates, binding, candidates):
        nonlocal rows
        rows += len(candidates)
        return original(templates, binding, candidates)

    monkeypatch.setattr(profiles, "yield_matches", counted)
    program_text, trace_text = queue_scenario(size, 7)
    report = run(parse_program(program_text), parse_trace(trace_text))
    monkeypatch.setattr(profiles, "yield_matches", original)
    return rows / report.events_seen


def test_profile_rows_read_per_event_stay_flat_as_the_trace_grows(monkeypatch):
    # the NEVER self-join over in_queue had no solution at its last check,
    # so each new check reads only the entries pushed since
    short = _profile_rows_per_event(monkeypatch, 100)
    for size in (400, 1600):
        long = _profile_rows_per_event(monkeypatch, size)
        assert long <= 1.2 * short, f"profile rows per event: {short:.2f} at size 100, {long:.2f} at {size}"


def test_the_gated_queue_evaluates_its_formula_in_full_once(monkeypatch):
    calls = 0
    original = evolutionary.eval_once

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(evolutionary, "eval_once", counted)
    program_text, trace_text = queue_scenario(400, 7)
    report = run(parse_program(program_text), parse_trace(trace_text))
    assert calls == 1
    assert report.violations == 0 and len(report.eval_ticks["e1"]) > 400


def _live_bytes_after_run(gaps, checks):
    """Live traced bytes that a run of ``bench_scenario(100, ...)``'s program leaves, after ``gc.collect()``.

    The trace has one event per tick; the ticks advance by ``gaps`` in turn.
    """
    program = parse_program(bench_scenario(100, 1)[0])
    ticks = accumulate(gaps[i % len(gaps)] for i in range(checks))
    events = parse_trace("\n".join(f"{t} N tickmark({t})" for t in ticks))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run(program, events)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, report
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "gaps, bound",
    [
        ((1,), 1.0),  # bench_scenario(100, T): every check at the same stride
        ((1, 2), 3.0),  # the gap changes at every check, the worst case for tick runs
    ],
)
def test_live_memory_per_check_stays_flat(gaps, bound):
    # live bytes, not the peak: the peak also counts the allocator's free lists
    short, _ = _live_bytes_after_run(gaps, 200)
    long, report = _live_bytes_after_run(gaps, 800)
    assert sum(len(ticks) for ticks in report.eval_ticks.values()) == 100 * 800
    per_check = (long - short) / (100 * (800 - 200))
    assert per_check < bound, f"{per_check:.2f} live bytes per check ({short} B at 200 ticks, {long} B at 800)"


def test_the_injected_queue_violates_at_each_duplicate_push():
    program_text, trace_text = queue_scenario(250, 7, inject_duplicates=6)
    events = parse_trace(trace_text)
    report = run(parse_program(program_text), events)
    counts = [queue_trace_stats(events[:i])["duplicates"] for i in range(len(events) + 1)]
    expected = [e.timestamp for i, e in enumerate(events) if counts[i + 1] > counts[i]]
    violated = [t.tick for t in report.transitions if t.new is ExprStatus.VIOLATED]
    assert len(expected) == 6 and violated == expected


# a standing duty whose expected-future and breaking sequences are classified
# by stored facts; the trace never breaks it, so the same formula checks run
# with the sequences and without them
_CLASSIFIED_FACTS = "facts:\nhalted(no).\nroutine_action(move).\nroutine_action(clean).\nheavy_action(flush).\n"


def _kb_calls(monkeypatch, expr_text, trace_text):
    """``FactBase.query`` and ``FactBase.plan`` calls, and template matches, of one run."""
    calls = {"query": 0, "plan": 0, "template_match": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(FactBase, "query")
    counting(FactBase, "plan")
    counting(patterns, "template_match")
    report = run(parse_program(_CLASSIFIED_FACTS + "expr:\n" + expr_text), parse_trace(trace_text))
    monkeypatch.undo()
    assert report.final_statuses["e1"] is ExprStatus.FULFILLED_SO_FAR and not report.warnings
    return calls, report.events_seen


def test_matching_over_stored_classifiers_adds_no_query(monkeypatch):
    lines = []
    for tick in range(1, 401):
        lines.append(f"{tick} N sensor({tick % 7})")
        if tick % 3 == 0:
            lines.append(f"{tick} A {('move', 'clean', 'idle')[tick % 9 // 3]}")
    trace = "\n".join(lines) + "\n"
    watched, events = _kb_calls(
        monkeypatch, "NEVER halted(yes) ::: routine_action(Act)* :::: heavy_action(Act)*.\n", trace
    )
    bare, _ = _kb_calls(monkeypatch, "NEVER halted(yes).\n", trace)
    assert events >= 500
    # every event is probed by both sequences, each through a classifier
    assert watched["template_match"] >= 2 * events and bare["template_match"] == 0
    assert (watched["query"], watched["plan"]) == (bare["query"], bare["plan"])


# -- live parses --------------------------------------------------------------


def _parse_bound(pattern, values):
    """The most distinct parses a matcher can hold, however long the trace.

    A parse is its element, whether that element's run is empty, the
    bindings exported so far and the values seen in the current run;
    each variable is unbound, one of ``values`` distinct values, or (in
    a run) in conflict.
    """
    names = {name for e in pattern.elems for name in variables(e.template)}
    return len(pattern.elems) * 2 * (values + 1) ** len(names) * (values + 2) ** len(names)


def _guard_live_parses(mp, bound):
    """Fail at the first event after which a matcher holds more than ``bound`` parses."""
    feed = patterns._Matcher.feed

    def guarded(self, event, history):
        alive = feed(self, event, history)
        assert len(self.states) <= bound, f"{len(self.states)} live parses, bound {bound}"
        return alive

    mp.setattr(patterns._Matcher, "feed", guarded)


_RUN_TEMPLATES = (
    atom("f", Var("X")),
    atom("f", Const("a")),
    atom("f", Wildcard("_w")),
    atom("g", Var("X")),
    atom("g", Wildcard("_w")),
)
_RUN_PAYLOADS = (atom("f", Const("a")), atom("f", Const("b")), atom("g", Const("a")))
_run_patterns = st.lists(
    st.builds(PatternElem, st.sampled_from(_RUN_TEMPLATES), st.none(), st.sampled_from(list(Quant))),
    min_size=1,
    max_size=3,
).map(lambda elems: PatternSeq(tuple(elems)))


@settings(max_examples=60, deadline=None)
@given(
    _run_patterns,
    st.lists(st.sampled_from(_RUN_PAYLOADS), min_size=1, max_size=3, unique=True),
    st.integers(0, 2**16),
)
def test_live_parses_stay_bounded_on_long_traces(pattern, alphabet, seed):
    rng = random.Random(seed)
    h = History()
    for tick in range(1, 301):
        h.record(Event(EventKind.ACTION, rng.choice(alphabet), tick))
    with pytest.MonkeyPatch.context() as mp:
        _guard_live_parses(mp, _parse_bound(pattern, 2))
        patterns.match_prefix(pattern, h, 0)


def test_a_two_run_expected_future_keeps_its_parses_bounded_over_2000_events(monkeypatch):
    program = parse_program("facts:\nhalted(no).\nexpr:\nNEVER halted(yes) ::: ping_E(X)*, ping_E(Y)*.\n")
    [(_, expr)] = program.evolutionary
    _guard_live_parses(monkeypatch, _parse_bound(expr.future, 1))
    report = run(program, parse_trace("".join(f"{t} E ping(a)\n" for t in range(1, 2001))))
    assert report.final_statuses == {"e1": ExprStatus.FULFILLED_SO_FAR} and not report.warnings
