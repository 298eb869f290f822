from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ailtl.events import Event, EventKind, History
from ailtl.kb import FactBase
from ailtl.patterns import (
    Complete,
    Mismatch,
    NoEvents,
    PatternElem,
    PatternSeq,
    Prefix,
    PrefixCursor,
    Quant,
    match_prefix,
    occurrences,
)
from ailtl.terms import Compound, Const, Var, Wildcard, atom

from oracles import oracle_match_prefix


def elem(name, *args, kind=None, quant=Quant.ONE):
    return PatternElem(atom(name, *args), kind, quant)


def seq(*elems):
    return PatternSeq(tuple(elems))


def log(*payloads, kind=EventKind.ACTION):
    h = History()
    for t, p in enumerate(payloads, start=1):
        h.record(Event(kind, p, t))
    return h


A, B, C = Const("a"), Const("b"), Const("c")


def test_plus_absorbs_a_whole_run():
    p = seq(elem("supply", Const("r"), Wildcard("_s"), kind=EventKind.PAST, quant=Quant.PLUS))
    h = log(
        atom("supply", Const("r"), Const(5)),
        atom("supply", Const("r"), Const(2)),
        atom("supply", Const("r"), Const(9)),
    )
    assert match_prefix(p, h, 0) == Complete({})


def test_partial_pattern_is_a_prefix():
    p = seq(elem("a"), elem("b"))
    result = match_prefix(p, log(A), 0)
    assert result == Prefix(1, {})


def test_out_of_order_event_is_a_mismatch():
    p = seq(elem("a"), elem("b"))
    assert match_prefix(p, log(B, A), 0) == Mismatch(0)


def test_no_relevant_events():
    p = seq(elem("a"))
    assert match_prefix(p, log(C), 0) == NoEvents()
    assert match_prefix(p, History(), 0) == NoEvents()


def test_empty_pattern_always_satisfied():
    assert match_prefix(PatternSeq(()), History(), 0) == Complete({})


def test_irrelevant_events_are_skipped():
    p = seq(elem("a"), elem("b"))
    assert match_prefix(p, log(A, C, C, B), 0) == Complete({})


def test_shared_variable_constrains_later_elements():
    # the queue id must recur; the pushed items may differ
    p = seq(
        elem("push", Var("Req"), Var("Q"), quant=Quant.PLUS),
        elem("pop", Var("E"), Var("Q"), quant=Quant.PLUS),
    )
    h = log(
        atom("push", Const(1), Const("q1")),
        atom("push", Const(2), Const("q1")),
        atom("pop", Const("e1"), Const("q1")),
    )
    result = match_prefix(p, h, 0)
    assert isinstance(result, Complete)
    assert result.binding["Q"] == Const("q1")
    assert "Req" not in result.binding  # demoted: items differed across the run


def test_uniform_run_variable_is_exported():
    p = seq(elem("push", Var("Req"), Var("Q"), quant=Quant.PLUS))
    h = log(atom("push", Const(7), Const("q1")), atom("push", Const(7), Const("q1")))
    result = match_prefix(p, h, 0)
    assert result == Complete({"Req": Const(7), "Q": Const("q1")})


def test_mismatched_shared_variable_dies():
    p = seq(elem("ask", Var("V")), elem("ack", Var("V")))
    h = log(atom("ask", Const(1)), atom("ack", Const(2)))
    assert match_prefix(p, h, 0) == Mismatch(1)


def test_kind_filter_restricts_matches():
    p = seq(elem("ping", kind=EventKind.PRESENT))
    h = log(Const("ping"))  # logged as an action
    assert match_prefix(p, h, 0) == NoEvents()


def test_since_restricts_the_scan():
    p = seq(elem("a"))
    h = log(A, B, A)  # a@1, b@2, a@3
    assert match_prefix(p, h, 2) == Complete({})
    assert match_prefix(p, h, 4) == NoEvents()


def test_star_elements_can_be_skipped():
    p = seq(elem("a", quant=Quant.STAR), elem("b"))
    assert match_prefix(p, log(B), 0) == Complete({})
    assert match_prefix(p, log(A, B), 0) == Complete({})


def test_classification_via_fact_base():
    kb = FactBase()
    kb.assert_fact(atom("extensive_usage_action", Const("dry_water")))
    p = seq(elem("extensive_usage_action", Var("Act"), quant=Quant.STAR))
    h = log(Const("dry_water"))
    [(idx, event, binding)] = occurrences(p, h, 0, kb)
    assert idx == 0 and event.payload == Const("dry_water")
    assert binding["Act"] == Const("dry_water")


def test_occurrences_on_empty_log():
    p = seq(elem("boom"))
    assert list(occurrences(p, History(), 0)) == []


def test_occurrences_come_in_log_order():
    p = seq(elem("boom"), elem("crash"))
    h = log(Const("crash"), Const("boom"))
    hits = [(event.payload, event.timestamp) for _, event, _ in occurrences(p, h, 0)]
    assert hits == [(Const("crash"), 1), (Const("boom"), 2)]


def test_occurrences_are_strictly_after_since():
    p = seq(elem("boom"))
    h = log(Const("boom"))  # at t=1
    assert list(occurrences(p, h, 1)) == []
    assert len(list(occurrences(p, h, 0))) == 1


def test_history_dependent_classifier_is_rechecked_from_scratch():
    # flagged(p) holds once some flag(p) has been logged, so an event read
    # as irrelevant may turn relevant later; the cursor must not miss it
    def flagged(kb, history, args, binding):
        marks = {e.payload.args[0] for e in history.log if isinstance(e.payload, Compound)}
        if args[0] in marks:
            yield dict(binding)

    kb = FactBase()
    kb.register("flagged", 1, flagged)
    p = seq(elem("flagged", Var("X")))
    h = log(A)
    cursor = PrefixCursor()
    assert match_prefix(p, h, 0, kb, cursor=cursor) == NoEvents()
    h.record(Event(EventKind.ACTION, atom("flag", A), 2))
    assert match_prefix(p, h, 0, kb, cursor=cursor) == Complete({"X": A})


def test_monotone_triggering():
    p = seq(elem("a"), elem("b"))
    h = History()
    h.record(Event(EventKind.ACTION, A, 1))
    first = match_prefix(p, h, 0)
    assert isinstance(first, Prefix)
    h.record(Event(EventKind.ACTION, B, 2))
    assert not isinstance(match_prefix(p, h, 0), NoEvents)


# exhaustive equivalence with the segmentation oracle: every log of length
# <= 5 over a 3-symbol alphabet, against a catalogue of patterns
_CATALOGUE = [
    seq(elem("a")),
    seq(elem("a", quant=Quant.PLUS)),
    seq(elem("a"), elem("b")),
    seq(elem("a", quant=Quant.PLUS), elem("b")),
    seq(elem("a", quant=Quant.STAR), elem("b")),
    seq(elem("a", quant=Quant.STAR), elem("b", quant=Quant.STAR), elem("c")),
    seq(elem("a"), elem("b", quant=Quant.PLUS), elem("c")),
    seq(elem("a", quant=Quant.PLUS), elem("a")),
    seq(elem("a", quant=Quant.STAR), elem("a"), elem("b")),
    seq(elem("b"), elem("a", quant=Quant.STAR)),
]


@pytest.mark.parametrize("pattern", _CATALOGUE, ids=range(len(_CATALOGUE)))
def test_exhaustive_equivalence_with_oracle(pattern):
    for length in range(6):
        for combo in itertools.product((A, B, C), repeat=length):
            h = log(*combo)
            got = match_prefix(pattern, h, 0)
            expected = oracle_match_prefix(pattern, h.log, 0)
            assert got == expected, f"log={combo}"


_X, _Y = Const("x"), Const("y")
_BINDING_PAYLOADS = (atom("f", _X), atom("f", _Y), atom("g", _X))
_BINDING_PATTERNS = [
    seq(elem("f", Var("V"), quant=Quant.PLUS)),
    seq(elem("f", Var("V")), elem("g", Var("V"))),
    seq(elem("f", Var("V"), quant=Quant.PLUS), elem("g", Var("V"))),
]


def test_binding_equivalence_with_oracle():
    for pattern in _BINDING_PATTERNS:
        for length in range(5):
            for combo in itertools.product(_BINDING_PAYLOADS, repeat=length):
                h = log(*combo)
                got = match_prefix(pattern, h, 0)
                expected = oracle_match_prefix(pattern, h.log, 0)
                assert got == expected, f"pattern={pattern} log={combo}"


# a cursor fed the log in chunks must agree, after every chunk, with the
# oracle run on the whole log so far -- also when its seed changes midway
_FEEDS = [(p, (A, B, C)) for p in _CATALOGUE] + [(p, _BINDING_PAYLOADS) for p in _BINDING_PATTERNS]
_SEEDS = ({}, {"V": _X}, {"V": _Y})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cursor_fed_in_chunks_agrees_with_the_oracle(data):
    pattern, alphabet = data.draw(st.sampled_from(_FEEDS))
    since = data.draw(st.integers(0, 3))
    chunks = data.draw(
        st.lists(
            st.tuples(st.lists(st.sampled_from(alphabet), max_size=3), st.sampled_from(_SEEDS)),
            min_size=1,
            max_size=6,
        )
    )
    h = History()
    cursor = PrefixCursor()
    for tick, (payloads, seed) in enumerate(chunks):
        for payload in payloads:
            h.record(Event(EventKind.ACTION, payload, tick))
        got = match_prefix(pattern, h, since, seed=seed, cursor=cursor)
        assert got == oracle_match_prefix(pattern, h.log, since, seed=seed), f"chunks={chunks}"
