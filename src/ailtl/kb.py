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

Each distinct conjunction is compiled once into a :class:`Plan`, kept by
the fact base until an evaluator is registered.  Callers pass run-time
values through the seed binding rather than substituting them into the
conjunction, so the plans stay as few as the program's conjunctions.

An evaluator must be a function of its arguments, the binding, the fact
base and the history's log: given the same four it yields the same
bindings.  The log only grows, so its length stands for it; with the
fact-base ``version`` it identifies everything a plan reads.  Monitors
rely on this to reuse a check's result while none of these has moved.

An evaluator marked with :func:`since_capable` also takes a keyword
``since``, a log index.  With ``since=L`` it yields only the solutions
that use a row which entered at index ``L`` or later: a row that is
there now but was missing at some log length of ``L`` or more.  It may
yield more rows than that, never fewer; ``since=0``, the default, yields
them all.  A plan over such evaluators can then tell whether a
conjunction that had no solution at one log length has one now from the
new rows alone (``Plan.delta``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .events import EventKind, History
from .terms import (
    EMPTY_BINDING,
    Binding,
    Compound,
    Const,
    Term,
    Var,
    Wildcard,
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
    # filled on the first ``__hash__``: a plan lookup then hashes one int per
    # literal instead of walking its terms, and parsing pays nothing for it
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.body, self.negated))
            object.__setattr__(self, "_hash", h)
        return h


Conj = Tuple[Literal, ...]

# Evaluator: called with (kb, history-or-None, substituted args, binding),
# yields extended bindings.  History access is what lets profiles derive
# state predicates (queue contents, stock level, charge) from the event log.
Evaluator = Callable[["FactBase", Optional[History], Tuple[Term, ...], Binding], Iterator[Binding]]


def since_capable(fn: Evaluator) -> Evaluator:
    """Mark an evaluator as taking ``since=`` (see the module docstring).

    The mark is a function attribute, read with ``getattr``: it is also
    read through a bound method and through ``functools.wraps``.
    """
    fn.since_capable = True  # type: ignore[attr-defined]
    return fn


CostFn = Callable[[Term], Optional[int]]


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
        self._plans: Dict[Conj, Plan] = {}
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
        self._plans.clear()  # plans classified the functor as stored
        self.version += 1

    def evaluates(self, name: str, arity: int) -> bool:
        """Is ``name/arity`` answered by a registered evaluator?"""
        return (name, arity) in self._evaluators

    def classifies(self, functor: str, payload: Term, history: Optional[History]) -> bool:
        """Does ``functor(payload)`` hold: a stored fact, or a solution of its evaluator?

        This is what a plan of ``functor(Classified)`` answers under the
        seed ``{Classified: payload}``, decided without one: a membership
        test, or one call of the evaluator with the arguments and the
        binding that plan would pass it.
        """
        for _ in self._atom_solutions(Compound(functor, (payload,)), {"Classified": payload}, history):
            return True
        return False

    def _atom_solutions(self, atom: Term, binding: Binding, history: Optional[History]) -> Iterable[Binding]:
        """The bindings a ground atom yields: its evaluator's solutions, or ``binding`` if it is stored."""
        evaluator = self._evaluators.get(functor_of(atom))
        if evaluator is not None:
            return evaluator(self, history, atom.args if isinstance(atom, Compound) else (), binding)
        return (binding,) if atom in self._present else ()

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
        history: Optional[History] = None,
    ) -> Iterator[Binding]:
        """All bindings satisfying the conjunction, left to right."""
        return self.plan(tuple(conj)).solutions(seed if seed is not None else EMPTY_BINDING, history)

    def plan(self, conj: Conj) -> "Plan":
        """The plan of ``conj``, compiled on its first use and kept until ``register``."""
        plan = self._plans.get(conj)
        if plan is None:
            plan = self._plans[conj] = Plan(tuple(self._compile(lit) for lit in conj))
        return plan

    def _compile(self, lit: Literal) -> Step:
        body = lit.body
        if isinstance(body, Comparison):
            step = Step(_comparison(body), False)
        elif isinstance(body, EventRef):
            step = Step(_event_ref(body), True)
        elif isinstance(body, Var):
            step = Step(self._bound_atom(body.name), True)
        else:
            key = functor_of(body)
            if key is None:
                step = Step(_nothing, False)  # an integer or a wildcard is never a fact
            elif key in self._evaluators:
                step = self._evaluated(self._evaluators[key], body)
            elif is_ground(body):
                step = Step(self._member(body), False)
            else:
                step = Step(self._scan(key, body), False)
        if lit.negated:
            step = Step(_negation(lit, step.solve), step.reads_history)
        return step

    def _member(self, fact: Term) -> Solve:
        present = self._present

        def solve(binding: Binding, history: Optional[History]) -> Iterator[Binding]:
            if fact in present:
                yield binding

        return solve

    def _scan(self, key: Tuple[str, int], template: Term) -> Solve:
        """Stored atom with variables: scan its bucket, or test membership once all are bound."""
        store, present = self._store, self._present
        names = tuple(dict.fromkeys(variables(template)))
        probe = None if _has_wildcard(template) else template

        def solve(binding: Binding, history: Optional[History]) -> Iterator[Binding]:
            if probe is not None and all(name in binding for name in names):
                if subst(probe, binding) in present:
                    yield binding
                return
            for fact in store.get(key, ()):
                extended = match(template, fact, binding)
                if extended is not None:
                    yield extended

        return solve

    def _evaluated(self, evaluator: Evaluator, template: Term) -> Step:
        args = template.args if isinstance(template, Compound) else ()

        def solve(binding: Binding, history: Optional[History]) -> Iterator[Binding]:
            yield from evaluator(self, history, tuple(subst(a, binding) for a in args), binding)

        if not getattr(evaluator, "since_capable", False):
            return Step(solve, True)

        def solve_since(binding: Binding, history: Optional[History], since: int) -> Iterator[Binding]:
            yield from evaluator(self, history, tuple(subst(a, binding) for a in args), binding, since=since)

        return Step(solve, True, solve_since)

    def _bound_atom(self, name: str) -> Solve:
        """A variable used as a literal: the atom it is bound to, looked up when reached."""

        def solve(binding: Binding, history: Optional[History]) -> Iterator[Binding]:
            atom = binding.get(name)
            if atom is not None:
                yield from self._atom_solutions(atom, binding, history)

        return solve


Solve = Callable[[Binding, Optional[History]], Iterator[Binding]]
SolveSince = Callable[[Binding, Optional[History], int], Iterator[Binding]]
Delta = Callable[[Binding, History, int], bool]


class Step(NamedTuple):
    """One literal of a plan: its solver and whether it reads the history.

    ``since`` is set for a positive call of a :func:`since_capable`
    evaluator: the solver restricted to the rows that entered at or after
    a log index.
    """

    solve: Solve
    reads_history: bool
    since: Optional[SolveSince] = None


class Plan:
    """A conjunction compiled against one fact base.

    Each literal is classified once into a step: a ground stored atom is a
    membership test, a stored atom with variables a scan of its bucket, an
    evaluator a call, a comparison direct integer or term operations, an
    event reference a lookup of the newest matching history entry, a
    variable the atom it is bound to; a negated step succeeds when its
    positive form has no solution.  The
    steps nest left to right, so solutions come leftmost-literal-first in
    store-insertion order.  ``reads_history`` is true when any step is an
    event reference or may call an evaluator: only then can the answer
    change while the fact base stays at one version.

    ``delta(binding, history, since)`` tells whether the conjunction has
    a solution that uses a row which entered at or after log index
    ``since``.  It exists only when every step that reads the history is
    a positive call of a :func:`since_capable` evaluator; a negation, an
    event reference, a variable literal or any other evaluator leaves it
    ``None``.  Every literal that can change is then positive, so a
    deletion cannot make a solution: with the fact base at one version, a
    conjunction that had none at log length ``since`` has one now exactly
    when ``delta`` finds one.  It runs one existence search per
    history-reading step, that step in ``since`` mode first and the
    others in their order.  Moving a positive literal to the front only
    binds variables earlier, so comparisons and negations still see
    ground arguments; where they do not, it raises ``UnboundBuiltinArg``
    as the full search may too.
    """

    __slots__ = ("reads_history", "solutions", "delta")

    def __init__(self, steps: Tuple[Step, ...]) -> None:
        self.reads_history = any(step.reads_history for step in steps)
        self.solutions = _chain([step.solve for step in steps])
        reading = [i for i, step in enumerate(steps) if step.reads_history]
        self.delta: Optional[Delta] = None
        if reading and all(steps[i].since is not None for i in reading):
            self.delta = _delta(
                [(steps[i].since, _chain([s.solve for j, s in enumerate(steps) if j != i])) for i in reading]
            )


def _chain(solvers: List[Solve]) -> Solve:
    """The solvers nested left to right: each extends the solutions of the one before."""
    solve: Solve = solvers[-1] if solvers else _unit
    for first in reversed(solvers[:-1]):
        solve = _then(first, solve)
    return solve


def _delta(solvers: List[Tuple[SolveSince, Solve]]) -> Delta:
    def found(binding: Binding, history: History, since: int) -> bool:
        for first, rest in solvers:
            for extended in first(binding, history, since):
                if next(rest(extended, history), None) is not None:
                    return True
        return False

    return found


def _unit(binding: Binding, history: Optional[History]) -> Iterator[Binding]:
    yield binding


def _nothing(binding: Binding, history: Optional[History]) -> Iterator[Binding]:
    return
    yield


def _then(first: Solve, rest: Solve) -> Solve:
    def solve(binding: Binding, history: Optional[History]) -> Iterator[Binding]:
        for extended in first(binding, history):
            yield from rest(extended, history)

    return solve


def _negation(lit: Literal, positive: Solve) -> Solve:
    """Negation as failure; the literal must be ground but for wildcards when reached."""
    body = lit.body
    if isinstance(body, Comparison):
        names: Tuple[str, ...] = ()  # comparison evaluation enforces groundness itself
    else:
        names = tuple(dict.fromkeys(variables(body.template if isinstance(body, EventRef) else body)))

    def solve(binding: Binding, history: Optional[History]) -> Iterator[Binding]:
        for name in names:
            if name not in binding:
                raise UnboundBuiltinArg(f"negated literal {render_literal(lit)} has unbound variable {name}")
        if next(positive(binding, history), None) is None:
            yield binding

    return solve


def _event_ref(ref: EventRef) -> Solve:
    kind, template = ref.kind, ref.template
    functor, arity = functor_of(template)

    def solve(binding: Binding, history: Optional[History]) -> Iterator[Binding]:
        event = history.latest_for_filter(kind, functor, arity) if history is not None else None
        if event is not None:
            extended = match(template, event.payload, binding)
            if extended is not None:
                yield extended

    return solve


_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _comparison(cmp: Comparison) -> Solve:
    """``lhs op rhs`` on ground sides: term (in)equality, or an order on integers."""
    lhs, rhs, op = cmp.lhs, cmp.rhs, cmp.op
    if op == "=":
        holds: Callable[[Term, Term], bool] = operator.eq
    elif op == "\\=":
        holds = operator.ne
    else:
        order = _ORDER.get(op)

        def holds(a: Term, b: Term) -> bool:
            if not (isinstance(a, Const) and isinstance(a.value, int)):
                return False
            if not (isinstance(b, Const) and isinstance(b.value, int)):
                return False
            if order is None:
                raise ValueError(f"unknown comparison operator {op}")
            return order(a.value, b.value)

    def solve(binding: Binding, history: Optional[History]) -> Iterator[Binding]:
        if holds(_ground_side(lhs, binding), _ground_side(rhs, binding)):
            yield binding

    return solve


def _ground_side(t: Term, binding: Binding) -> Term:
    side = subst(t, binding)
    if not is_ground(side):
        raise UnboundBuiltinArg(f"comparison argument not ground: {render_term(side)}")
    return side


def _has_wildcard(t: Term) -> bool:
    if isinstance(t, Wildcard):
        return True
    return isinstance(t, Compound) and any(_has_wildcard(a) for a in t.args)


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
