"""Ground-fact store with conjunctive query evaluation.

The store plays the role of "logical consequence in the host language":
the monitored formulas never see an inference engine, only this fact base
plus a registry of evaluator predicates.  Three literal shapes exist:

* plain predicate atoms, answered from stored facts or from a registered
  evaluator (comparisons aside, there are no derived rules in the store --
  derived predicates are supplied as registered evaluators);
* comparisons ``t1 op t2`` with ``op`` one of ``< <= > >= = \\=``,
  evaluated on ground arguments only;
* event references such as ``temperature_N(T)`` -- a functor carrying a
  kind postfix -- answered from the newest matching entry of the agent's
  history, see :mod:`ailtl.events`.

Negation is negation-as-failure restricted to call-time-ground negated
literals (wildcards allowed, unbound variables not).  Solutions are
produced leftmost-literal-first in store-insertion order, so identical
store + query always yields the identical solution sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .events import EventKind, HistoryView
from .terms import (
    Binding,
    Compound,
    Const,
    Term,
    functor_of,
    is_ground,
    match,
    render_term,
    subst,
    variables,
)


class NonGroundFact(Exception):
    """Raised when asserting a fact that still contains variables."""


class ReservedFunctor(Exception):
    """Raised when asserting a fact whose functor names a registered evaluator."""


class UnboundBuiltinArg(Exception):
    """A comparison or negated literal was reached with unbound variables."""


COMPARISON_OPS = ("<", "<=", ">", ">=", "=", "\\=")


@dataclass(frozen=True)
class Comparison:
    op: str
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class EventRef:
    """A literal resolved against the history's most recent matching event."""

    kind: EventKind
    template: Term  # functor already stripped of its kind postfix


@dataclass(frozen=True)
class Literal:
    body: Union[Term, Comparison, EventRef]
    negated: bool = False


Conj = Tuple[Literal, ...]

# Evaluator: called with (kb, history-or-None, substituted args, binding),
# yields extended bindings.  History access is what lets profiles derive
# state predicates (queue contents, stock level, charge) from the event log.
Evaluator = Callable[["FactBase", Optional[HistoryView], Tuple[Term, ...], Binding], Iterator[Binding]]

CostFn = Callable[[Term], Optional[int]]


def subst_literal(lit: Literal, binding: Binding) -> Literal:
    body = lit.body
    if isinstance(body, Comparison):
        return Literal(Comparison(body.op, subst(body.lhs, binding), subst(body.rhs, binding)), lit.negated)
    if isinstance(body, EventRef):
        return Literal(EventRef(body.kind, subst(body.template, binding)), lit.negated)
    return Literal(subst(body, binding), lit.negated)


def render_literal(lit: Literal) -> str:
    body = lit.body
    if isinstance(body, Comparison):
        text = f"{render_term(body.lhs)} {body.op} {render_term(body.rhs)}"
    elif isinstance(body, EventRef):
        head = _reattach_kind(body.template, body.kind)
        text = head
    else:
        text = render_term(body)
    return f"not {text}" if lit.negated else text


def _reattach_kind(template: Term, kind: EventKind) -> str:
    fa = functor_of(template)
    assert fa is not None
    name = f"{fa[0]}_{kind.value}"
    if isinstance(template, Compound):
        return f"{name}({', '.join(render_term(a) for a in template.args)})"
    return name


class FactBase:
    """Set of ground atoms plus registered evaluator and cost predicates."""

    def __init__(self) -> None:
        self._store: Dict[Tuple[str, int], List[Term]] = {}
        self._present: set = set()
        self._evaluators: Dict[Tuple[str, int], Evaluator] = {}
        self._costs: Dict[str, CostFn] = {}
        self.version = 0

    # -- mutation ------------------------------------------------------

    def assert_fact(self, f: Term) -> bool:
        """Insert a ground atom; returns False if it was already present."""
        key = functor_of(f)
        if key is None:
            raise NonGroundFact(f"not a predicate atom: {render_term(f)}")
        if not is_ground(f):
            raise NonGroundFact(f"fact is not ground: {render_term(f)}")
        if key in self._evaluators:
            raise ReservedFunctor(f"{key[0]}/{key[1]} is a registered evaluator")
        if f in self._present:
            return False
        self._present.add(f)
        self._store.setdefault(key, []).append(f)
        self.version += 1
        return True

    def retract_fact(self, f: Term) -> bool:
        """Remove an atom; no-op returning False if absent."""
        if f not in self._present:
            return False
        self._present.remove(f)
        key = functor_of(f)
        self._store[key].remove(f)
        self.version += 1
        return True

    def facts(self) -> Iterator[Term]:
        for bucket in self._store.values():
            yield from bucket

    def __contains__(self, f: Term) -> bool:
        return f in self._present

    def __len__(self) -> int:
        return len(self._present)

    # -- registries ----------------------------------------------------

    def register(self, name: str, arity: int, fn: Evaluator) -> None:
        if (name, arity) in self._store and self._store[(name, arity)]:
            raise ReservedFunctor(f"{name}/{arity} already has stored facts")
        self._evaluators[(name, arity)] = fn

    def evaluates(self, name: str, arity: int) -> bool:
        """Is ``name/arity`` answered by a registered evaluator?"""
        return (name, arity) in self._evaluators

    def register_cost(self, name: str, table_or_fn: Union[Dict[str, int], CostFn]) -> None:
        if callable(table_or_fn):
            self._costs[name] = table_or_fn
        else:
            table = dict(table_or_fn)

            def lookup(t: Term, _table: Dict[str, int] = table) -> Optional[int]:
                if isinstance(t, Const):
                    return _table.get(str(t.value))
                return None

            self._costs[name] = lookup

    def cost_evaluator(self, name: str) -> Optional[CostFn]:
        return self._costs.get(name)

    # -- query ---------------------------------------------------------

    def query(
        self,
        conj: Iterable[Literal],
        seed: Optional[Binding] = None,
        history: Optional[HistoryView] = None,
    ) -> Iterator[Binding]:
        """All bindings satisfying the conjunction, left to right."""
        literals = tuple(conj)
        return self._solve(literals, 0, dict(seed or {}), history)

    def _solve(self, conj: Conj, i: int, binding: Binding, history: Optional[HistoryView]) -> Iterator[Binding]:
        if i == len(conj):
            yield binding
            return
        lit = conj[i]
        if lit.negated:
            self._check_negation_ground(lit, binding)
            if next(self._solutions(lit.body, binding, history), None) is None:
                yield from self._solve(conj, i + 1, binding, history)
            return
        for extended in self._solutions(lit.body, binding, history):
            yield from self._solve(conj, i + 1, extended, history)

    def _check_negation_ground(self, lit: Literal, binding: Binding) -> None:
        body = lit.body
        inner = body.template if isinstance(body, EventRef) else body
        if isinstance(body, Comparison):
            return  # comparison evaluation enforces groundness itself
        for name in variables(inner):
            if name not in binding:
                raise UnboundBuiltinArg(
                    f"negated literal {render_literal(lit)} has unbound variable {name}"
                )

    def _solutions(
        self, body: Union[Term, Comparison, EventRef], binding: Binding, history: Optional[HistoryView]
    ) -> Iterator[Binding]:
        if isinstance(body, Comparison):
            if self._compare(body, binding):
                yield dict(binding)
            return
        if isinstance(body, EventRef):
            if history is None:
                return
            event = history.latest_for_filter(body.kind, *functor_of(body.template))
            if event is None:
                return
            extended = match(body.template, event.payload, binding)
            if extended is not None:
                yield extended
            return
        key = functor_of(subst(body, binding))
        if key is None:
            return
        evaluator = self._evaluators.get(key)
        if evaluator is not None:
            args = body.args if isinstance(body, Compound) else ()
            yield from evaluator(self, history, tuple(subst(a, binding) for a in args), binding)
            return
        for fact in self._store.get(key, ()):
            extended = match(body, fact, binding)
            if extended is not None:
                yield extended

    def _compare(self, cmp: Comparison, binding: Binding) -> bool:
        lhs = subst(cmp.lhs, binding)
        rhs = subst(cmp.rhs, binding)
        for side in (lhs, rhs):
            if not is_ground(side):
                raise UnboundBuiltinArg(
                    f"comparison argument not ground: {render_term(side)}"
                )
        if cmp.op == "=":
            return lhs == rhs
        if cmp.op == "\\=":
            return lhs != rhs
        if not (isinstance(lhs, Const) and isinstance(lhs.value, int)):
            return False
        if not (isinstance(rhs, Const) and isinstance(rhs.value, int)):
            return False
        a, b = lhs.value, rhs.value
        if cmp.op == "<":
            return a < b
        if cmp.op == "<=":
            return a <= b
        if cmp.op == ">":
            return a > b
        if cmp.op == ">=":
            return a >= b
        raise ValueError(f"unknown comparison operator {cmp.op}")


def yield_matches(
    templates: Tuple[Term, ...], binding: Binding, rows: Iterable[Tuple[Term, ...]]
) -> Iterator[Binding]:
    """Helper for evaluators: match literal args against candidate rows."""
    for row in rows:
        extended: Optional[Binding] = dict(binding)
        for tpl, value in zip(templates, row):
            extended = match(tpl, value, extended)
            if extended is None:
                break
        if extended is not None and len(row) == len(templates):
            yield extended
