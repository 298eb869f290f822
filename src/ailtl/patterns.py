"""Event-sequence patterns and their matching against the history.

A pattern is an ordered sequence of elements, each a payload template with
an optional event-kind filter (from the functor postfix) and a quantifier:
exactly one, ``+`` (one or more consecutive), or ``*`` (zero or more).
Matching scans the log from a given time, prefix-style: the relevant
events seen so far must form a prefix of the pattern, in order.  Events
matching no element at all are skipped -- only relevant events and their
order count.  Matching is incremental: a ``PrefixCursor`` carries the
matcher's live parses and its log index between calls, so each call
reads only the events logged since the previous one, and each event's
relevance is decided once, when it is first read.

Template matching is structural first; when that fails, a unary template
``f(X)`` also matches an event whose payload ``p`` the fact base
classifies as ``f(p)`` (so ``extensive_usage_action(Act)`` matches a
logged ``dry_water`` action when the knowledge base says
``extensive_usage_action(dry_water)``).  Each element computes once, when
it is built, the ``(functor, arity)`` key of its template and the
classifier functor of a unary template.  The structural match is tried
only when the template has no key (a variable, wildcard or integer) or
its key is the payload's, and classification is one
``FactBase.classifies`` call: a membership test for a stored classifier,
one evaluator call for a registered one.  No query is built per event.

Variables bound by earlier elements constrain later ones.  Within a
``+``/``*`` run, a variable that takes the same value on every repetition
exports that value; one that disagrees across repetitions is demoted and
exports nothing (``push_P+(Req, Q)`` keeps ``Q`` shared across pushes
while the pushed items differ).  Wildcards never bind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .events import Event, EventKind, History, PAST_LIKE
from .kb import FactBase
from .terms import EMPTY_BINDING, Binding, Compound, Term, functor_of, match

_CONFLICT = object()  # demoted in-run variable


class Quant(Enum):
    ONE = ""
    PLUS = "+"
    STAR = "*"


@dataclass(frozen=True)
class PatternElem:
    template: Term
    kind: Optional[EventKind] = None
    quant: Quant = Quant.ONE
    # computed once per element (see ``template_match``): the template's
    # (functor, arity), None when it is a variable, wildcard or integer; and
    # the functor of a unary compound template, which may classify a payload
    key: Optional[Tuple[str, int]] = field(init=False, repr=False, compare=False)
    classifier: Optional[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = self.template
        object.__setattr__(self, "key", functor_of(t))
        object.__setattr__(self, "classifier", t.functor if isinstance(t, Compound) and len(t.args) == 1 else None)


@dataclass(frozen=True)
class PatternSeq:
    elems: Tuple[PatternElem, ...]

    def __bool__(self) -> bool:
        return bool(self.elems)


EMPTY_SEQ = PatternSeq(())


@dataclass(frozen=True)
class NoEvents:
    pass


@dataclass(frozen=True)
class Prefix:
    consumed: int
    binding: Binding = field(default_factory=dict)


@dataclass(frozen=True)
class Complete:
    binding: Binding = field(default_factory=dict)


@dataclass(frozen=True)
class Mismatch:
    at: int  # index of the offending event within the relevant sub-log


MatchResult = Union[NoEvents, Prefix, Complete, Mismatch]


def _kind_ok(elem: PatternElem, event: Event) -> bool:
    if elem.kind is None:
        return True
    if elem.kind is EventKind.PAST:
        return event.kind in PAST_LIKE
    return event.kind is elem.kind


def template_match(
    elem: PatternElem, event: Event, binding: Binding, kb: Optional[FactBase], history: Optional[History]
) -> Optional[Binding]:
    """Structural match, falling back to fact-base classification."""
    if not _kind_ok(elem, event):
        return None
    payload = event.payload
    key = elem.key
    # a template with a key matches only a payload with the same key
    if key is None or key == functor_of(payload):
        hit = match(elem.template, payload, binding)
        if hit is not None:
            return hit
    functor = elem.classifier
    if functor is None or kb is None:
        return None
    hit = match(elem.template.args[0], payload, binding)
    if hit is None or not kb.classifies(functor, payload, history):
        return None
    return hit


def first_hit(
    pattern: PatternSeq, event: Event, seed: Binding, kb: Optional[FactBase], history: Optional[History]
) -> Optional[Binding]:
    """The binding of the first element the event matches under ``seed``, if any."""
    for elem in pattern.elems:
        hit = template_match(elem, event, seed, kb, history)
        if hit is not None:
            return hit
    return None


@dataclass
class _State:
    pos: int  # element currently being filled
    count: int  # events consumed by the current run
    exports: Binding
    run_vals: Dict[str, object]

    def key(self) -> tuple:
        # a run's length matters only as empty or not (``extendable``,
        # ``_run_satisfied``), so parses that differ in it alone are one
        return (
            self.pos,
            self.count > 0,
            tuple(sorted(self.exports.items(), key=lambda kv: kv[0])),
            tuple(sorted(((k, id(v) if v is _CONFLICT else v) for k, v in self.run_vals.items()), key=lambda kv: kv[0])),
        )


def _run_satisfied(quant: Quant, count: int) -> bool:
    if quant is Quant.ONE:
        return count == 1
    if quant is Quant.PLUS:
        return count >= 1
    return True


def _merge_run(run_vals: Dict[str, object], extended: Binding, base: Binding) -> Dict[str, object]:
    out = dict(run_vals)
    for name, value in extended.items():
        if name in base:
            continue
        seen = out.get(name)
        if seen is None:
            out[name] = value
        elif seen is not _CONFLICT and seen != value:
            out[name] = _CONFLICT
    return out


def _closed_exports(state: _State) -> Binding:
    out = dict(state.exports)
    for name, value in state.run_vals.items():
        if value is not _CONFLICT:
            out[name] = value
    return out


class _Matcher:
    def __init__(self, pattern: PatternSeq, kb: Optional[FactBase], seed: Binding):
        self.pattern = pattern
        self.kb = kb
        self.states: List[_State] = [_State(0, 0, seed, {})]

    def feed(self, event: Event, history: History) -> bool:
        """Consume one relevant event; False when no parse survives."""
        elems = self.pattern.elems
        new_states: List[_State] = []
        seen = set()

        def push(st: _State) -> None:
            k = st.key()
            if k not in seen:
                seen.add(k)
                new_states.append(st)

        for st in self.states:
            if st.pos < len(elems):
                elem = elems[st.pos]
                extendable = elem.quant is not Quant.ONE or st.count == 0
                if extendable:
                    hit = template_match(elem, event, st.exports, self.kb, history)
                    if hit is not None:
                        push(_State(st.pos, st.count + 1, st.exports, _merge_run(st.run_vals, hit, st.exports)))
                if _run_satisfied(elem.quant, st.count):
                    exports = _closed_exports(st)
                    for j in range(st.pos + 1, len(elems)):
                        hit = template_match(elems[j], event, exports, self.kb, history)
                        if hit is not None:
                            push(_State(j, 1, exports, _merge_run({}, hit, exports)))
                        if elems[j].quant is not Quant.STAR:
                            break
        self.states = new_states
        return bool(new_states)

    def _completable(self, st: _State) -> bool:
        elems = self.pattern.elems
        if not _run_satisfied(elems[st.pos].quant, st.count):
            return False
        return all(e.quant is Quant.STAR for e in elems[st.pos + 1 :])

    def result(self, saw_events: bool, died_at: Optional[int]) -> MatchResult:
        if died_at is not None:
            return Mismatch(died_at)
        if not saw_events:
            return NoEvents()
        best_prefix = -1
        best_binding: Binding = {}
        for st in self.states:
            if self._completable(st):
                return Complete(_closed_exports(st))
            consumed = st.pos + 1 if _run_satisfied(self.pattern.elems[st.pos].quant, st.count) else st.pos
            if consumed > best_prefix:
                best_prefix = consumed
                best_binding = _closed_exports(st)
        return Prefix(best_prefix, best_binding)


def _history_dependent(pattern: PatternSeq, kb: Optional[FactBase]) -> bool:
    """Does an element fall back on a classifier answered by a registered evaluator?"""
    if kb is None:
        return False
    return any(e.classifier is not None and kb.evaluates(e.classifier, 1) for e in pattern.elems)


class PrefixCursor:
    """A caller's place in one prefix match, carried between ``match_prefix`` calls.

    It holds the next log index to read and the matcher's live parses.
    The match starts over from ``since`` whenever the inputs of the call
    change -- pattern, history, start time, seed binding or fact-base
    version -- and on every call when an element's classifier is a
    registered evaluator, whose answer depends on the history.
    """

    __slots__ = ("_inputs", "_volatile", "_matcher", "_at", "_saw", "_died_at")

    def __init__(self) -> None:
        self._inputs: Optional[tuple] = None
        self._volatile = False

    def read(
        self, pattern: PatternSeq, history: History, since: int, kb: Optional[FactBase], seed: Binding
    ) -> MatchResult:
        inputs = (pattern, history, since, seed, kb, None if kb is None else kb.version)
        if self._volatile or inputs != self._inputs:
            self._inputs = inputs
            self._volatile = _history_dependent(pattern, kb)
            self._matcher = _Matcher(pattern, kb, seed)
            self._at = 0
            self._saw = 0
            self._died_at = None
        if self._died_at is None and self._at < len(history.log):
            for _, event in history.since(since, self._at):
                if first_hit(pattern, event, {}, kb, history) is None:
                    continue  # irrelevant to the pattern
                if not self._matcher.feed(event, history):
                    self._died_at = self._saw
                    break
                self._saw += 1
        self._at = len(history.log)
        return self._matcher.result(self._saw > 0, self._died_at)


def match_prefix(
    pattern: PatternSeq,
    history: History,
    since: int,
    kb: Optional[FactBase] = None,
    seed: Optional[Binding] = None,
    cursor: Optional[PrefixCursor] = None,
) -> MatchResult:
    """Match the relevant sub-log at/after ``since`` against the pattern.

    ``NoEvents`` when nothing relevant occurred; ``Prefix``/``Complete``
    with the accumulated binding when relevant events follow the pattern
    order; ``Mismatch`` at the first relevant event no parse can absorb.
    Without a ``cursor`` the match is one-shot; with one, the call reads
    only what was logged since the cursor's last call.  The seed is not
    copied: an empty pattern completes with the seed itself.
    """
    seed = seed if seed is not None else EMPTY_BINDING
    if not pattern.elems:
        return Complete(seed)
    return (cursor or PrefixCursor()).read(pattern, history, since, kb, seed)


def occurrences(
    pattern: PatternSeq,
    history: History,
    since: int,
    kb: Optional[FactBase] = None,
    seed: Optional[Binding] = None,
    start: int = 0,
) -> Iterator[Tuple[int, Event, Binding]]:
    """Logged events strictly after ``since`` unifying with any element.

    Yields ``(log index, event, binding)`` in log order from log index
    ``start`` on, so a caller that passes the log length of its previous
    call sees each event once; used for breaking ("expected not to
    happen") sequences, where any single hit counts.
    """
    base = seed if seed is not None else EMPTY_BINDING
    for idx, event in history.since(since + 1, start):
        hit = first_hit(pattern, event, base, kb, history)
        if hit is not None:
            yield idx, event, hit
