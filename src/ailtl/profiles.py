"""Derived-state evaluators: state predicates computed from the event log.

The fact layer has no rules, so predicates that describe evolving state
(queue contents, stock level, battery charge) are registered evaluators
that derive their answers from the history on demand.  Each profile is a
left fold over the log: on a query it folds in only the entries logged
since its previous read, keeping rows in insertion order.  A program selects
a profile in its config section (``derived = queue.``), which is what
makes a run fully determined by the program and trace files alone.

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
from .kb import FactBase, Literal, yield_matches
from .terms import Binding, Compound, Const, Term, Var, functor_of

PROFILES = ("queue", "stock", "battery")


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

    Subclasses give the initial state (``_reset``), the step
    (``_fold``) and the rows a query sees (``_rows``).  The fold starts
    over when it is handed another history and, if it reads the fact
    base, when the fact-base version moves; so its state always equals a
    fold of the whole log from scratch.
    """

    reads_facts = False

    def __init__(self) -> None:
        self._log: Optional[List[Event]] = None
        self._at = 0
        self._facts_at = -1

    def evaluate(
        self, kb: FactBase, history: Optional[History], args: Tuple[Term, ...], binding: Binding
    ) -> Iterator[Binding]:
        if history is None:
            return
        if history.log is not self._log or (self.reads_facts and kb.version != self._facts_at):
            self._log = history.log
            self._at = 0
            self._facts_at = kb.version
            self._reset(kb)
        if self._at < len(history.log):
            for _, event in history.since(0, self._at):
                self._fold(kb, event)
            self._at = len(history.log)
        yield from yield_matches(args, binding, self._rows(args))


class _QueueState(_Fold):
    def _reset(self, kb: FactBase) -> None:
        self._pushes = 0
        self._entries: Dict[str, Tuple[Const, Term]] = {}  # entry index -> row, push order
        self._by_value: Dict[Term, Dict[str, Tuple[Const, Term]]] = {}

    def _fold(self, kb: FactBase, event: Event) -> None:
        if event.kind not in PAST_LIKE:
            return
        payload = event.payload
        fa = functor_of(payload)
        if fa == ("push", 2):
            self._pushes += 1
            index = Const(f"e{self._pushes}")
            row = (index, payload.args[0])
            self._entries[index.value] = row
            self._by_value.setdefault(row[1], {})[index.value] = row
        elif fa == ("pop", 2) and isinstance(payload.args[0], Const):
            row = self._entries.pop(str(payload.args[0].value), None)
            if row is not None:
                bucket = self._by_value[row[1]]
                del bucket[row[0].value]
                if not bucket:
                    del self._by_value[row[1]]

    def _rows(self, args: Tuple[Term, ...]) -> Tuple[Tuple[Const, Term], ...]:
        value = args[1]
        rows = self._by_value.get(value, {}) if isinstance(value, Const) else self._entries
        return tuple(rows.values())


class _StockState(_Fold):
    reads_facts = True

    def _reset(self, kb: FactBase) -> None:
        self._totals: Dict[Term, int] = {}
        probe = Literal(Compound("initial_quantity", (Var("R"), Var("N"))))
        for hit in kb.query((probe,)):
            self._totals[hit["R"]] = self._totals.get(hit["R"], 0) + hit["N"].value

    def _fold(self, kb: FactBase, event: Event) -> None:
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
        self._totals[resource] = self._totals.get(resource, 0) + delta

    def _rows(self, args: Tuple[Term, ...]) -> List[Tuple[Term, Const]]:
        return [(r, Const(v)) for r, v in self._totals.items()]


class _BatteryState(_Fold):
    reads_facts = True

    def _full_charge(self, kb: FactBase) -> int:
        probe = Literal(Compound("battery_full", (Var("N"),)))
        hit = next(kb.query((probe,)), None)
        return hit["N"].value if hit else 100

    def _drain(self, kb: FactBase, action: Term) -> int:
        fa = functor_of(action)
        if fa is None:
            return 0
        probe = Literal(Compound("drain", (Const(fa[0]), Var("D"))))
        hit = next(kb.query((probe,)), None)
        return hit["D"].value if hit else 0

    def _reset(self, kb: FactBase) -> None:
        self._level = self._full_charge(kb)

    def _fold(self, kb: FactBase, event: Event) -> None:
        if event.kind in PAST_LIKE and functor_of(event.payload) == ("recharge_battery", 0):
            self._level = self._full_charge(kb)
        elif event.kind is EventKind.ACTION:
            self._level -= self._drain(kb, event.payload)

    def _rows(self, args: Tuple[Term, ...]) -> List[Tuple[Const]]:
        return [(Const(self._level),)]
