"""Reflective action gate: solve/solve_not rules over ground goals.

Before an attempted action or goal executes, control shifts upward: the
goal's name is matched against the heads of the registered meta-rules.
A matching ``solve`` rule must succeed for the goal to be confirmed; a
succeeding ``solve_not`` rule blocks it outright; with no matching rule
of either polarity the goal proceeds ungated.  Downward reflection then
returns control to the object level.

A ground term is its own name: names mirror term structure one-to-one,
so a head is matched against the goal term itself, and the binding that
match produces seeds the rule body, an ordinary conjunction over the
fact base.

The semantic side -- a set of atoms is *acceptable* when it satisfies
both schemata ``A <- solve(name(A))`` and ``not A <- solve_not(name(A))``
-- is checked by an oracle in the test suite, which enumerates the set
the gate realizes over a goal universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Tuple

from .events import History
from .kb import Conj, FactBase
from .terms import Binding, Term, is_ground, match, render_term


class NonGroundReify(Exception):
    """Only ground terms have names."""


class Polarity(Enum):
    SOLVE = "solve"
    SOLVE_NOT = "solve_not"


@dataclass(frozen=True)
class MetaRule:
    polarity: Polarity
    head: Term  # template matched against the ground goal, its own name
    body: Conj = ()


class GateDecision(Enum):
    CONFIRMED = "confirmed"
    BLOCKED_BY_SOLVE_FAIL = "blocked_by_solve_fail"
    BLOCKED_BY_SOLVE_NOT = "blocked_by_solve_not"
    NO_RULES_APPLY = "no_rules_apply"


def _body_succeeds(rule: MetaRule, binding: Binding, kb: FactBase, history: Optional[History]) -> bool:
    return next(kb.query(rule.body, seed=binding, history=history), None) is not None


def gate(
    goal: Term,
    rules: Iterable[MetaRule],
    kb: FactBase,
    history: Optional[History] = None,
) -> GateDecision:
    """Decide whether a ground goal may proceed.

    A failing applicable ``solve`` gate is reported first; a succeeding
    ``solve_not`` overrides a confirmed ``solve``.
    """
    if not is_ground(goal):
        raise NonGroundReify(f"gated goal must be ground: {render_term(goal)}")
    solve_matches: List[Tuple[MetaRule, Binding]] = []
    solve_not_matches: List[Tuple[MetaRule, Binding]] = []
    for rule in rules:
        hit = match(rule.head, goal, {})
        if hit is None:
            continue
        if rule.polarity is Polarity.SOLVE:
            solve_matches.append((rule, hit))
        else:
            solve_not_matches.append((rule, hit))
    if not solve_matches and not solve_not_matches:
        return GateDecision.NO_RULES_APPLY
    if solve_matches and not any(_body_succeeds(r, b, kb, history) for r, b in solve_matches):
        return GateDecision.BLOCKED_BY_SOLVE_FAIL
    if any(_body_succeeds(r, b, kb, history) for r, b in solve_not_matches):
        return GateDecision.BLOCKED_BY_SOLVE_NOT
    return GateDecision.CONFIRMED
