"""Interval temporal operators over the states the engine checks.

Three operators, all interpreted over states with inclusive interval
bounds ``[m, n]``:

* ``ALWAYS``     -- the condition must hold at every checked state;
* ``EVENTUALLY`` -- the condition must hold at some checked state;
* ``NEVER``      -- the condition must be satisfiable at no checked state.

Bounds are absolute engine ticks; a missing lower bound anchors at the
moment the expression was enabled, a missing upper bound means "from then
on".  Operators do not nest.  Each constraint carries its own checking
frequency ``k``: with enable time ``e``, checks are due at the ticks where
``(now - e) mod k = 0``.  A violation whose truth span falls strictly
between due ticks is by design undetected; raising the frequency is the
remedy.

A formula is a conjunction of literals, optionally instantiated by a
context conjunction evaluated first (first solution wins, no backtracking
into the context).  Evaluation reports whether the formula has a
satisfying instance; the verdict machine decides what that means for the
operator at hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple, Union

from .events import EventKind, History
from .kb import Conj, FactBase, UnboundBuiltinArg
from .terms import EMPTY_BINDING, Binding, Compound, Const, Term, Var, Wildcard, render_term, subst


class NonGroundAfterContext(Exception):
    """The formula kept unbound, non-query-bindable variables after its context."""


class UnresolvedPreference(Exception):
    """A preference construct referenced an unregistered cost evaluator."""


class TemporalOp(Enum):
    ALWAYS = "ALWAYS"
    EVENTUALLY = "EVENTUALLY"
    NEVER = "NEVER"


@dataclass(frozen=True)
class IntervalOp:
    op: TemporalOp
    m: Optional[int] = None
    n: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.m is not None and self.n is not None and self.m > self.n:
            raise ValueError(f"interval lower bound {self.m} above upper bound {self.n}")
        if self.k is not None and self.k < 1:
            raise ValueError("frequency must be at least 1")


def due(op: IntervalOp, enabled_at: int, now: int, default_k: int = 1) -> bool:
    """Is a check due at ``now`` for a constraint enabled at ``enabled_at``?"""
    if now < enabled_at:
        raise ValueError("now precedes enable time")
    k = op.k if op.k is not None else default_k
    return (now - enabled_at) % k == 0


@dataclass(frozen=True)
class ContextualFormula:
    op: IntervalOp
    phi: Conj
    chi: Conj = ()


def eval_once(
    f: ContextualFormula,
    kb: FactBase,
    history: Optional[History] = None,
    seed: Optional[Binding] = None,
) -> Tuple[Optional[bool], Binding]:
    """One check of the formula against the current snapshot.

    The context is evaluated first and commits to its first solution; the
    formula is then tested for a satisfying instance under that binding.
    Returns ``(satisfiable, binding)``, where the binding carries the
    witnessing instance when one exists.  When the context itself has no
    solution the check is not applicable: ``(None, seed)``.  The seed is
    returned as it is, not copied: no binding is changed in place.
    """
    base = seed if seed is not None else EMPTY_BINDING
    if f.chi:
        ctx = next(kb.query(f.chi, seed=base, history=history), None)
        if ctx is None:
            return None, base
        base = ctx
    try:
        witness = next(kb.query(f.phi, seed=base, history=history), None)
    except UnboundBuiltinArg as exc:
        raise NonGroundAfterContext(str(exc)) from exc
    if witness is None:
        return False, base
    return True, witness


class CoreVerdict(Enum):
    HOLDS_SO_FAR = "holds_so_far"
    HOLDS_FINAL = "holds_final"
    VIOLATED_NOW = "violated_now"


def quiet_result(op: TemporalOp) -> bool:
    """The check result that leaves an open verdict as it is.

    ALWAYS waits on true checks, NEVER and EVENTUALLY on false ones; the
    other result decides the constraint at once.
    """
    return op is TemporalOp.ALWAYS


def step_core(op: IntervalOp, holds_now: bool, now: int) -> CoreVerdict:
    """The verdict after one due check at ``now``, inside the interval.

    The verdict machine stores nothing: the caller keeps the verdict, and
    steps it only while it is open and only at ticks from the interval's
    lower bound up to its upper bound ``op.n``.  ``holds_now`` is the
    formula's satisfiability at this state.  A check that differs from
    ``quiet_result`` decides the constraint: ALWAYS and NEVER are
    violated, EVENTUALLY holds for good.  A quiet check at the upper
    bound closes the interval (``close_core``).  Unbounded constraints
    never settle on a quiet check.
    """
    if bool(holds_now) is not quiet_result(op.op):
        return CoreVerdict.HOLDS_FINAL if op.op is TemporalOp.EVENTUALLY else CoreVerdict.VIOLATED_NOW
    if op.n is not None and now >= op.n:
        return close_core(op)
    return CoreVerdict.HOLDS_SO_FAR


def close_core(op: IntervalOp) -> CoreVerdict:
    """The verdict of an open bounded constraint whose interval has elapsed."""
    return CoreVerdict.VIOLATED_NOW if op.op is TemporalOp.EVENTUALLY else CoreVerdict.HOLDS_FINAL


# -- reactions ----------------------------------------------------------

GROUND_PLACEHOLDER = Const("any")


@dataclass(frozen=True)
class ReactionAtom:
    payload: Term
    kind: EventKind = EventKind.ACTION
    precond: Conj = ()


@dataclass(frozen=True)
class Choice:
    """``X IN {options : cost}`` -- bind X to the cheapest option."""

    var: str
    options: Tuple[Term, ...]
    cost: str


ReactionElem = Union[ReactionAtom, Choice]
Reaction = Tuple[ReactionElem, ...]


@dataclass(frozen=True)
class ReactiveRule:
    """``OP(M,N;K) formula :: context DIV reaction`` -- react on violation."""

    monitor: ContextualFormula
    reaction: Reaction

    def __post_init__(self) -> None:
        if not self.reaction:
            raise ValueError("reactive rule needs a non-empty reaction")


def ground_for_emit(t: Term) -> Term:
    """Close residual variables: an unbound slot emits as the constant ``any``."""
    if isinstance(t, (Var, Wildcard)):
        return GROUND_PLACEHOLDER
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(ground_for_emit(a) for a in t.args))
    return t


def fire_reaction(
    reaction: Reaction,
    kb: FactBase,
    binding: Binding,
    history: Optional[History] = None,
) -> List[Tuple[EventKind, Term]]:
    """Resolve a reaction into the ground events it emits.

    Preference constructs are binders and resolve first, choosing the
    option with the lowest registered cost (ties keep the listed order).
    Each emitting element then checks its precondition and is skipped when
    it fails; the surviving atoms are emitted in declaration order.
    """
    bound = dict(binding)
    for elem in reaction:
        if not isinstance(elem, Choice):
            continue
        evaluate = kb.cost_evaluator(elem.cost)
        if evaluate is None:
            raise UnresolvedPreference(f"no cost evaluator registered for '{elem.cost}'")
        best: Optional[Term] = None
        best_cost: Optional[int] = None
        for option in elem.options:
            candidate = subst(option, bound)
            cost = evaluate(candidate)
            if cost is None:
                continue
            if best_cost is None or cost < best_cost:
                best, best_cost = candidate, cost
        if best is None:
            raise UnresolvedPreference(
                f"cost evaluator '{elem.cost}' ranked none of "
                f"{{{', '.join(render_term(o) for o in elem.options)}}}"
            )
        bound[elem.var] = best
    emitted: List[Tuple[EventKind, Term]] = []
    for elem in reaction:
        if isinstance(elem, Choice):
            continue
        local = bound
        if elem.precond:
            solution = next(kb.query(elem.precond, seed=bound, history=history), None)
            if solution is None:
                continue
            local = solution
        emitted.append((elem.kind, ground_for_emit(subst(elem.payload, local))))
    return emitted
