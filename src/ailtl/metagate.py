"""Reflective action gate: naming, solve/solve_not rules, acceptable sets.

Before an attempted action or goal executes, control shifts upward: the
goal is reified into its structural name and matched against the heads of
the registered meta-rules.  A matching ``solve`` rule must succeed for the
goal to be confirmed; a succeeding ``solve_not`` rule blocks it outright;
with no matching rule of either polarity the goal proceeds ungated.
Downward reflection then returns control to the object level.

Names mirror term structure one-to-one (``unname(name(t)) = t``), so
meta-variables range over name-level constants; when a head binding flows
into a rule body, the bound names are lowered back to object terms for
query evaluation -- rule bodies are ordinary conjunctions over the fact
base.

The semantic side: a set of atoms is *acceptable* when it satisfies both
schemata  ``A <- solve(name(A))``  and  ``not A <- solve_not(name(A))``.
The gate realizes an acceptable set; ``operative_atom_set`` builds that
set for a goal universe so tests can check the agreement by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .events import History
from .kb import Conj, FactBase
from .terms import Binding, Compound, Const, Term, Var, Wildcard, is_ground, render_term


class NonGroundReify(Exception):
    """Only ground terms have names."""


@dataclass(frozen=True)
class Name:
    """Base class for name-level (reified) values."""


@dataclass(frozen=True)
class NameConst(Name):
    value: Union[str, int]


@dataclass(frozen=True)
class NameCompound(Name):
    functor: str
    args: Tuple[Name, ...]


def reify(t: Term) -> Name:
    if isinstance(t, Const):
        return NameConst(t.value)
    if isinstance(t, Compound):
        return NameCompound(t.functor, tuple(reify(a) for a in t.args))
    raise NonGroundReify(f"cannot name non-ground term {render_term(t)}")


def unreify(n: Name) -> Term:
    if isinstance(n, NameConst):
        return Const(n.value)
    if isinstance(n, NameCompound):
        return Compound(n.functor, tuple(unreify(a) for a in n.args))
    raise TypeError(f"not a name: {n!r}")


def render_name(n: Name) -> str:
    if isinstance(n, NameConst):
        return f"{n.value}'"
    return f"{n.functor}'({', '.join(render_name(a) for a in n.args)})"


class Polarity(Enum):
    SOLVE = "solve"
    SOLVE_NOT = "solve_not"


@dataclass(frozen=True)
class MetaRule:
    polarity: Polarity
    head: Term  # template over name-level values; constants are names by position
    body: Conj = ()


class GateDecision(Enum):
    CONFIRMED = "confirmed"
    BLOCKED_BY_SOLVE_FAIL = "blocked_by_solve_fail"
    BLOCKED_BY_SOLVE_NOT = "blocked_by_solve_not"
    NO_RULES_APPLY = "no_rules_apply"


MetaBinding = Dict[str, Name]


def match_name(template: Term, name: Name, binding: MetaBinding) -> Optional[MetaBinding]:
    """Match a head template against a reified goal at the name level."""
    out = dict(binding)
    if _match_name_into(template, name, out):
        return out
    return None


def _match_name_into(template: Term, name: Name, binding: MetaBinding) -> bool:
    if isinstance(template, Wildcard):
        return True
    if isinstance(template, Var):
        seen = binding.get(template.name)
        if seen is None:
            binding[template.name] = name
            return True
        return seen == name
    if isinstance(template, Const):
        return isinstance(name, NameConst) and name.value == template.value
    if isinstance(template, Compound):
        if not isinstance(name, NameCompound):
            return False
        if template.functor != name.functor or len(template.args) != len(name.args):
            return False
        return all(_match_name_into(t, a, binding) for t, a in zip(template.args, name.args))
    return False


def _lowered(binding: MetaBinding) -> Binding:
    # downward reflection: name-level bindings become object terms in bodies
    return {var: unreify(name) for var, name in binding.items()}


def _body_succeeds(rule: MetaRule, binding: MetaBinding, kb: FactBase, history: Optional[History]) -> bool:
    return next(kb.query(rule.body, seed=_lowered(binding), history=history), None) is not None


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
    name = reify(goal)
    solve_matches: List[Tuple[MetaRule, MetaBinding]] = []
    solve_not_matches: List[Tuple[MetaRule, MetaBinding]] = []
    for rule in rules:
        hit = match_name(rule.head, name, {})
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


# -- acceptable-set semantics --------------------------------------------


@dataclass(frozen=True)
class MetaAtom:
    polarity: Polarity
    name: Name


AtomSet = Set[Union[Term, MetaAtom]]


def acceptable(atoms: AtomSet) -> bool:
    """Does the set satisfy  A <- solve(name(A))  and  not A <- solve_not(name(A))?"""
    for a in atoms:
        if not isinstance(a, MetaAtom):
            continue
        obj = unreify(a.name)
        if a.polarity is Polarity.SOLVE and obj not in atoms:
            return False
        if a.polarity is Polarity.SOLVE_NOT and obj in atoms:
            return False
    return True


def base_version(atoms: AtomSet) -> AtomSet:
    """The set with every solve/solve_not atom filtered away."""
    return {a for a in atoms if not isinstance(a, MetaAtom)}


def operative_atom_set(
    goals: Iterable[Term],
    rules: Iterable[MetaRule],
    kb: FactBase,
    history: Optional[History] = None,
) -> AtomSet:
    """The atom set the gate realizes over a goal universe.

    Confirmed and ungated goals are included, together with the meta atoms
    that actually decided them.  A solve atom overridden by a succeeding
    solve_not is not operative (no consistent set could contain both).
    """
    rules = list(rules)
    out: AtomSet = set()
    for goal in goals:
        decision = gate(goal, rules, kb, history)
        if decision in (GateDecision.CONFIRMED, GateDecision.NO_RULES_APPLY):
            out.add(goal)
        name = reify(goal)
        solve_ok = False
        solve_not_ok = False
        for rule in rules:
            hit = match_name(rule.head, name, {})
            if hit is None or not _body_succeeds(rule, hit, kb, history):
                continue
            if rule.polarity is Polarity.SOLVE:
                solve_ok = True
            else:
                solve_not_ok = True
        if solve_not_ok:
            out.add(MetaAtom(Polarity.SOLVE_NOT, name))
        elif solve_ok and decision is GateDecision.CONFIRMED:
            out.add(MetaAtom(Polarity.SOLVE, name))
    return out
