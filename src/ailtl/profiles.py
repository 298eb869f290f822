"""Derived-state evaluators: state predicates computed from the event log.

The fact layer has no rules, so predicates that describe evolving state
(queue contents, stock level, battery charge) are registered evaluators
that derive their answers from the history on demand.  Each profile is a
left fold over the log: on a query it folds in only the entries logged
since its previous read, keeping rows in insertion order.  A program selects
a profile in its config section (``derived = queue.``), which is what
makes a run fully determined by the program and trace files alone.

The fold stamps every row with the log index at which it entered (its
birth): for the queue the push that made the entry, for stock and
battery the last event that changed the row, 0 for a row no event has
changed.  The evaluators are :func:`~ailtl.kb.since_capable`: a query
with ``since=L`` sees only the rows born at index ``L`` or later, so a
check that had no solution at log length ``L`` can look at the new rows
alone (``since=0``, the default, sees every row).

* ``queue``   -- ``in_queue(E, V)``: the i-th recorded ``push(V, Q)``
  enters as entry ``e<i>``; ``pop(e<i>, Q)`` removes it.
* ``stock``   -- ``quantity(R, V)``: ``initial_quantity(R, N)`` facts plus
  recorded ``supply(R, Q)`` minus ``consume(R, Q)``.
* ``battery`` -- ``charge_level(L)``: ``battery_full(N)`` (default 100)
  minus the ``drain(Action, D)`` cost of every action logged after the
  latest ``recharge_battery`` event.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .events import Event, EventKind, History, PAST_LIKE
from .kb import FactBase, Literal, since_capable, yield_matches
from .terms import Binding, Compound, Const, Term, Var, functor_of


class UnknownProfile(Exception):
    pass


def install(kb: FactBase, name: str) -> None:
    if name == "queue":
        kb.register("in_queue", 2, _QueueState().evaluate)
    elif name == "stock":
        kb.register("quantity", 2, _StockState().evaluate)
    elif name == "battery":
        kb.register("charge_level", 1, _BatteryState().evaluate)
    else:
        raise UnknownProfile(f"unknown derived-state profile {name!r}")


class _Fold:
    """A left fold over the log, advanced by the entries logged since its last read.

    Subclasses give the initial state (``_reset``), the step (``_fold``,
    handed each entry with its log index, which births the rows it
    changes) and the rows a query sees (``_rows``, those born at or after
    ``since``).  The fold starts over when it is handed another history
    and, if it reads the fact base, when the fact-base version moves; so
    its state, birth stamps included, always equals a fold of the whole
    log from scratch.
    """

    reads_facts = False

    def __init__(self) -> None:
        self._log: Optional[List[Event]] = None
        self._at = 0
        self._facts_at = -1

    @since_capable
    def evaluate(
        self, kb: FactBase, history: Optional[History], args: Tuple[Term, ...], binding: Binding, since: int = 0
    ) -> Iterator[Binding]:
        if history is None:
            return
        if history.log is not self._log or (self.reads_facts and kb.version != self._facts_at):
            self._log = history.log
            self._at = 0
            self._facts_at = kb.version
            self._reset(kb)
        if self._at < len(history.log):
            for index, event in history.since(0, self._at):
                self._fold(kb, index, event)
            self._at = len(history.log)
        yield from yield_matches(args, binding, self._rows(args, since))


class _QueueState(_Fold):
    def _reset(self, kb: FactBase) -> None:
        self._pushes = 0
        self._entries: Dict[str, Tuple[Const, Term]] = {}  # entry index -> row, push order
        self._by_value: Dict[Term, Dict[str, Tuple[Const, Term]]] = {}
        self._born: Dict[str, int] = {}  # entry index -> log index of its push

    def _fold(self, kb: FactBase, index: int, event: Event) -> None:
        if event.kind not in PAST_LIKE:
            return
        payload = event.payload
        fa = functor_of(payload)
        if fa == ("push", 2):
            self._pushes += 1
            entry = Const(f"e{self._pushes}")
            row = (entry, payload.args[0])
            self._entries[entry.value] = row
            self._by_value.setdefault(row[1], {})[entry.value] = row
            self._born[entry.value] = index
        elif fa == ("pop", 2) and isinstance(payload.args[0], Const):
            row = self._entries.pop(str(payload.args[0].value), None)
            if row is not None:
                del self._born[row[0].value]
                bucket = self._by_value[row[1]]
                del bucket[row[0].value]
                if not bucket:
                    del self._by_value[row[1]]

    def _rows(self, args: Tuple[Term, ...], since: int) -> Tuple[Tuple[Const, Term], ...]:
        value = args[1]
        if isinstance(value, Const):
            bucket = self._by_value.get(value, {})
            return tuple(row for entry, row in bucket.items() if self._born[entry] >= since)
        if not since:
            return tuple(self._entries.values())
        # entries are in push order, so the ones born since are a suffix
        newer = []
        for entry in reversed(self._entries):
            if self._born[entry] < since:
                break
            newer.append(self._entries[entry])
        return tuple(reversed(newer))


_INITIAL_QUANTITY = (Literal(Compound("initial_quantity", (Var("R"), Var("N")))),)
_BATTERY_FULL = (Literal(Compound("battery_full", (Var("N"),))),)
_DRAIN = (Literal(Compound("drain", (Var("A"), Var("D")))),)


class _StockState(_Fold):
    reads_facts = True

    def _reset(self, kb: FactBase) -> None:
        self._totals: Dict[Term, int] = {}
        self._born: Dict[Term, int] = {}  # resource -> log index of its last change
        for hit in kb.query(_INITIAL_QUANTITY):
            self._totals[hit["R"]] = self._totals.get(hit["R"], 0) + hit["N"].value
            self._born[hit["R"]] = 0

    def _fold(self, kb: FactBase, index: int, event: Event) -> None:
        if event.kind not in PAST_LIKE:
            return
        payload = event.payload
        fa = functor_of(payload)
        if fa not in (("supply", 2), ("consume", 2)):
            return
        amount = payload.args[1]
        if not (isinstance(amount, Const) and isinstance(amount.value, int)):
            return
        delta = amount.value if fa[0] == "supply" else -amount.value
        resource = payload.args[0]
        if delta or resource not in self._totals:
            self._totals[resource] = self._totals.get(resource, 0) + delta
            self._born[resource] = index

    def _rows(self, args: Tuple[Term, ...], since: int) -> List[Tuple[Term, Const]]:
        return [(r, Const(v)) for r, v in self._totals.items() if self._born[r] >= since]


class _BatteryState(_Fold):
    reads_facts = True

    def _full_charge(self, kb: FactBase) -> int:
        hit = next(kb.query(_BATTERY_FULL), None)
        return hit["N"].value if hit else 100

    def _drain(self, kb: FactBase, action: Term) -> int:
        fa = functor_of(action)
        if fa is None:
            return 0
        hit = next(kb.query(_DRAIN, seed={"A": Const(fa[0])}), None)
        return hit["D"].value if hit else 0

    def _reset(self, kb: FactBase) -> None:
        self._level = self._full_charge(kb)
        self._born = 0  # log index of the last change to the level

    def _fold(self, kb: FactBase, index: int, event: Event) -> None:
        if event.kind in PAST_LIKE and functor_of(event.payload) == ("recharge_battery", 0):
            level = self._full_charge(kb)
        elif event.kind is EventKind.ACTION:
            level = self._level - self._drain(kb, event.payload)
        else:
            return
        if level != self._level:
            self._level, self._born = level, index

    def _rows(self, args: Tuple[Term, ...], since: int) -> List[Tuple[Const]]:
        return [(Const(self._level),)] if self._born >= since else []
